"""The two workloads: set-up, one timed repetition, and output checks.

Each workload calls the public functions of abiwave in the order the
matching CLI subcommand does, with set-up (config parsing, initial
field, mode geometry) split off so that it is timed as ``setup_s``.
Calls go through module attributes so that a traced run sees them.

``tiny=True`` selects the harness self-test sizes (an N=8 simulation,
the four constraint certificates) and ``inject`` breaks a run on
purpose: ``nan`` puts a NaN in the initial field, ``zero-reducer``
makes the ideal reduction return zero for every entry.
"""
from __future__ import annotations

import json
import math
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CONSTRAINT_COLUMNS = ("res_divb_sup", "res_divd_sup", "res_rot_sup")
MANIFOLD_COLUMNS = ("man_scalar_sup", "man_vector_sup")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def _writing(tracer):
    return tracer.span("cli.write") if tracer is not None else nullcontext()


class Simulation:
    """``abiwave simulate --config configs/<config>``, with ic.seed replaced.

    ``floor`` and ``man_bound`` set the preservation checks: every
    constraint sup stays <= 10 * max(initial, floor * amplitude) and
    every manifold sup <= man_bound.  None skips them (tiny size).
    """

    def __init__(self, name, config, seed, rows, floor, man_bound,
                 tiny=False, inject=None):
        if inject not in (None, "nan"):
            raise ValueError(f"{name} takes --inject nan only")
        self.name, self.config, self.seed = name, config, seed
        self.rows, self.floor, self.man_bound = rows, floor, man_bound
        self.tiny, self.inject = tiny, inject

    def setup(self, outdir: Path):
        from abiwave import cli, spectral

        with open(ROOT / "configs" / self.config) as f:
            raw = json.load(f)
        raw["ic"]["seed"] = self.seed
        raw["output"]["dir"] = str(outdir)
        if self.tiny:
            raw["grid"]["N"] = 8
            raw["time"]["t_end"] = 1.0
        self.raw = raw
        self.cfg, _, _ = cli.parse_sim_config(raw)
        self.cfg.resolved_dt()
        self.field0 = self.cfg.initial_field()
        spectral._geometry(self.cfg.grid, self.cfg.state)
        if self.inject == "nan":
            self.field0.data[0, 0, 0, 0] = math.nan

    def run(self, outdir: Path, tracer=None):
        from abiwave import cli
        from abiwave import simulate as sim

        outdir.mkdir(parents=True, exist_ok=True)
        manifest = cli.RunManifest("simulate", self.raw, seed=self.cfg.seed)
        res = sim.simulate(self.cfg, self.field0)
        with _writing(tracer):
            series_path = outdir / "series.csv"
            res.series.write_csv(series_path)
            manifest.add_output(series_path)
            for t, snap in res.snapshots:
                path = outdir / f"snapshot_t{t:g}.raw"
                sim.write_snapshot(path, snap, self.cfg.state, t)
                manifest.add_output(path)
            manifest.write(outdir)
        return res

    def check(self, res, outdir: Path) -> list:
        checks = []
        rows = res.series.rows if res is not None else []
        checks.append(("completed", res is not None and not res.series.blowup,
                       "no blow-up"))
        checks.append(("rows", len(rows) == self.rows,
                       f"{len(rows)} samples, expected {self.rows}"))
        full = len(rows) == self.rows
        if self.floor is not None:
            amp = self.cfg.amplitude
            for c in CONSTRAINT_COLUMNS:
                col = [r[c] for r in rows]
                bound = 10.0 * max(col[0], self.floor * amp) if col else 0.0
                checks.append((c, full and max(col) <= bound,
                               f"max {max(col, default=math.nan):.2e} "
                               f"<= {bound:.2e}"))
            for c in MANIFOLD_COLUMNS:
                top = max((r[c] for r in rows), default=math.nan)
                checks.append((c, full and top <= self.man_bound,
                               f"max {top:.2e} <= {self.man_bound:.0e}"))
        reference = None if self.tiny else load_reference()
        ref = reference and reference["simulate"][self.name].get(str(self.seed))
        if ref is not None:
            rtol = reference["rtol"]
            last = rows[-1] if full else {}
            bad = [c for c, v in ref.items()
                   if not abs(last.get(c, math.inf) - v) <= rtol * abs(v)]
            checks.append(("reference", full and not bad,
                           f"final row within rtol {rtol:g}; off: {bad}"))
        checks.append(("outputs", self._outputs_ok(rows, outdir),
                       "series.csv, snapshots and manifest.json written"))
        return checks

    def _outputs_ok(self, rows, outdir):
        series = outdir / "series.csv"
        if not series.is_file() or not (outdir / "manifest.json").is_file():
            return False
        with open(series) as f:
            if sum(1 for _ in f) != len(rows) + 1:
                return False
        snaps = sorted(outdir.glob("snapshot_t*.raw"))
        size = 10 * self.cfg.grid.N ** 3 * 8
        due = [t for t in self.cfg.snapshots if t <= self.cfg.t_end]
        return (len(snaps) == len(due)
                and all(p.stat().st_size == size for p in snaps))


class Certification:
    """``certify_all(preflight=True)`` plus one mutated certificate."""

    def __init__(self, tiny=False, inject=None):
        if inject not in (None, "zero-reducer"):
            raise ValueError("certify takes --inject zero-reducer only")
        self.inject = inject
        if tiny:
            self.which = ("constraint",)
            self.expected = (4, 2000)
            self.mutation = ((0, 1, 1), "constraint", (0, 2, 3))
        else:
            self.which = ("evolution", "constraint")
            self.expected = (12, 10000)
            self.mutation = ((1, 1, 1), "evolution", (1, 2, 3))

    def setup(self, outdir: Path):
        from abiwave.symbolic import certify as C

        if self.inject == "zero-reducer":
            C.reduce_terms = lambda terms, s: {}

    def run(self, outdir: Path, tracer=None):
        from abiwave import cli
        from abiwave.symbolic import certify as C

        outdir.mkdir(parents=True, exist_ok=True)
        eps, which, entry = self.mutation
        manifest = cli.RunManifest("verify-symbols",
                                   {"which": list(self.which),
                                    "mutate_entry": list(entry)})
        certs = C.certify_all(self.which, preflight=True)
        mutated = C.certify(eps, which, preflight=False, mutate_entry=entry)
        with _writing(tracer):
            path = outdir / "certificates.json"
            C.write_certificates(certs, path)
            manifest.add_output(path)
            manifest.write(outdir)
        return certs, mutated

    def check(self, result, outdir: Path) -> list:
        certs, mutated = result if result is not None else ([], None)
        n, entries = self.expected
        verified = sum(c.verified for c in certs)
        total = sum(c.entries_total for c in certs)
        flagged = (mutated is not None and mutated.entries_nonzero == 1
                   and mutated.witnesses[0]["entry"] == list(self.mutation[2]))
        path = outdir / "certificates.json"
        written = path.is_file() and json.loads(path.read_text())[
            "all_verified"] is (verified == n)
        return [
            ("residue_zero", len(certs) == n and verified == n,
             f"{verified}/{len(certs)} residue-zero, expected {n}/{n}"),
            ("entries", total == entries, f"{total} entries, expected {entries}"),
            ("mutation_flagged", flagged,
             f"entry {self.mutation[2]} of {self.mutation[0]} flagged"),
            ("outputs", written, "certificates.json and manifest.json written"),
        ]


WORKLOADS = ("desk", "certify")


def make(name: str, seed: int, tiny: bool = False, inject=None):
    """The workload object for a benchmark name and seed."""
    if name == "desk":
        return Simulation("desk", "desk.json", seed, rows=2 if tiny else 10,
                          floor=None if tiny else 1e-6,
                          man_bound=None if tiny else 1e-6,
                          tiny=tiny, inject=inject)
    if name == "certify":
        return Certification(tiny=tiny, inject=inject)
    raise ValueError(f"unknown workload {name!r}")
