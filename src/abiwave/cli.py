"""Command-line interface.

Subcommands: verify-symbols, check-identities, simulate, decay-report,
projectors.  Exit codes are a stable contract: 0 pass, 1 usage or
configuration error, 2 verification failure, 3 numerical blow-up,
130 interrupted (Ctrl-C).
Every output directory receives a run manifest sufficient to reproduce
it (bitwise at ABI_THREADS=1).
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .grid import Grid, fft_workers
from .model import IC_KINDS
from .state import CERTIFICATION_BACKGROUND, ConstantState, bi_lift_constant
from .fields import StateField

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BLOWUP = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

def _code_version() -> str:
    v = __version__
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        if rev.returncode == 0:
            v += "+g" + rev.stdout.strip()
    except Exception:
        pass
    return v


class RunManifest:
    """Reproducibility record written alongside every output."""

    def __init__(self, command: str, config: dict, seed=None):
        self.data = {
            "command": command,
            "config": config,
            "code_version": _code_version(),
            "seed": seed,
            "rng": "philox4x64",
            "threads": fft_workers(),
            "threads_requested": os.environ.get("ABI_THREADS"),
            "started": _now(),
            "finished": None,
            "outputs": [],
        }

    def add_output(self, path):
        self.data["outputs"].append(str(path))

    def write(self, outdir: Path):
        self.data["finished"] = _now()
        path = Path(outdir) / "manifest.json"
        with open(path, "w") as f:
            json.dump(self.data, f, indent=2)
        return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _outdir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# config handling (fail-closed: unknown keys are errors)
# ----------------------------------------------------------------------

SIM_SCHEMA = 1
_REQUIRED = object()


def _reject_unknown(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def _read(d: dict, where: str, key: str, conv, default=_REQUIRED):
    """``conv(d[key])``, with any error naming ``where.key``.

    An absent key gives ``default``, and so does null when the default
    is None (an optional key); without a default the key is required.
    """
    value = d.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{where}.{key} is missing")
    if value is None and default is None:
        return None
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}.{key}: {exc}") from None


def _boolean(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"must be true or false, got {x!r}")
    return x


def _text(x) -> str:
    if not isinstance(x, str):
        raise ValueError(f"must be a string, got {x!r}")
    return x


def _positive(x) -> float:
    """A finite number > 0."""
    if isinstance(x, (bool, str)) or not 0 < float(x) < math.inf:
        raise ValueError(f"must be a finite number > 0, got {x!r}")
    return float(x)


def _seed(x) -> int:
    """A JSON integer in [0, 2**64), the range of a Philox seed."""
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < 2 ** 64:
        raise ValueError(f"must be an integer in [0, 2**64), got {x!r}")
    return x


def _ic_kind(x) -> str:
    if x not in IC_KINDS:
        raise ValueError(f"must be one of {list(IC_KINDS)}, got {x!r}")
    return x


def _three(x) -> list:
    if not isinstance(x, list) or len(x) != 3:
        raise ValueError(f"must be a list of three numbers, got {x!r}")
    return [float(c) for c in x]


def _two_positive(x) -> tuple:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"must be a list of two numbers > 0, got {x!r}")
    return tuple(_positive(a) for a in x)


def parse_state(d: dict) -> ConstantState:
    _reject_unknown(d, {"tau0", "v0", "b0", "d0", "manifold_from"}, "state")
    if "manifold_from" in d:
        if set(d) != {"manifold_from"}:
            raise ValueError(f"state.manifold_from excludes "
                             f"{sorted(set(d) - {'manifold_from'})}")
        lift = d["manifold_from"]
        _reject_unknown(lift, {"B0", "D0"}, "state.manifold_from")
        return bi_lift_constant(
            B0=_read(lift, "state.manifold_from", "B0", _three),
            D0=_read(lift, "state.manifold_from", "D0", _three))
    return ConstantState(
        tau0=_read(d, "state", "tau0", float),
        **{key: _read(d, "state", key, _three, [0.0] * 3)
           for key in ("v0", "b0", "d0")})


def parse_grid(d: dict) -> Grid:
    _reject_unknown(d, {"N", "L"}, "grid")
    return Grid(N=_read(d, "grid", "N", int), L=_read(d, "grid", "L", float))


def parse_sim_config(d: dict):
    """(SimConfig, mode, u0_probe section) of a simulate config.

    This is the config schema; every rejection names its key.
    """
    from .simulate import SimConfig

    _reject_unknown(d, {"schema", "mode", "grid", "state", "ic", "time",
                        "dealias", "diagnostics", "output", "u0_probe"},
                    "config")
    if d.get("schema") != SIM_SCHEMA:
        raise ValueError(f"config schema must be {SIM_SCHEMA}")
    grid = parse_grid(d["grid"])
    state = parse_state(d["state"])
    ic = d.get("ic", {})
    _reject_unknown(ic, {"kind", "amplitude", "k0", "width", "seed"}, "ic")
    tm = d.get("time", {})
    _reject_unknown(tm, {"t_end", "cfl", "dt"}, "time")
    diag = d.get("diagnostics", {})
    _reject_unknown(diag, {"cadence", "sobolev_n"}, "diagnostics")
    outd = d.get("output", {})
    _reject_unknown(outd, {"dir", "snapshots"}, "output")
    cfg = SimConfig(
        grid=grid, state=state,
        t_end=_read(tm, "time", "t_end", float, 5.0),
        cfl=_read(tm, "time", "cfl", float, 0.4),
        dt=_read(tm, "time", "dt", float, None),
        dealias=_read(d, "config", "dealias", _boolean, True),
        cadence=_read(diag, "diagnostics", "cadence", float, 0.5),
        sobolev_n=_read(diag, "diagnostics", "sobolev_n", int, 8),
        ic_kind=_read(ic, "ic", "kind", _ic_kind, "bi_lift"),
        amplitude=_read(ic, "ic", "amplitude", float, 1e-2),
        k0=_read(ic, "ic", "k0", float, None),
        width=_read(ic, "ic", "width", float, None),
        seed=_read(ic, "ic", "seed", _seed, 1234),
        snapshots=_read(outd, "output", "snapshots",
                        lambda ts: tuple(float(t) for t in ts), ()),
    )
    mode = d.get("mode", "simulate")
    if mode not in ("simulate", "u0_probe"):
        raise ValueError(f"unknown mode {mode!r}")
    probe = d.get("u0_probe", {})
    _reject_unknown(probe, {"amplitudes"}, "u0_probe")
    probe = {"amplitudes": _read(probe, "u0_probe", "amplitudes",
                                 _two_positive, None)}
    return cfg, mode, probe


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify_symbols(ns) -> int:
    from .symbolic import certify as C

    state = _state_from_flags(ns)
    mutate_entry = _parse_entry(ns.mutate_entry)
    if mutate_entry and not ns.interactions and ns.which == "both":
        raise ValueError("--mutate-entry needs --which N or Nprime, or "
                         "--interactions, to name the tensor it mutates")
    outdir = _outdir(ns)
    manifest = RunManifest("verify-symbols", vars_serializable(ns))
    try:
        if ns.interactions:
            from .resonance import InteractionSpec
            certs = []
            for lab in ns.interactions.split(";"):
                spec = InteractionSpec.parse(lab)
                which = "constraint" if ns.which == "Nprime" else "evolution"
                certs.append(C.certify(
                    (spec.eps1, spec.eps2, spec.eps3), which, state,
                    preflight=not ns.skip_preflight, subsystem=ns.subsystem,
                    with_cofactors=ns.cofactors, mutate_entry=mutate_entry))
        else:
            which_list = {"N": ("evolution",), "Nprime": ("constraint",),
                          "both": ("evolution", "constraint")}[ns.which]
            if mutate_entry:
                eps, which = {"N": ((1, 1, 1), "evolution"),
                              "Nprime": ((0, 1, 1), "constraint")}[ns.which]
                certs = [C.certify(eps, which, state,
                                   preflight=not ns.skip_preflight,
                                   subsystem=ns.subsystem,
                                   with_cofactors=ns.cofactors,
                                   mutate_entry=mutate_entry)]
            else:
                certs = C.certify_all(which_list, state,
                                      preflight=not ns.skip_preflight,
                                      subsystem=ns.subsystem,
                                      with_cofactors=ns.cofactors)
    except C.PreflightError as exc:
        print(f"preflight gate failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    path = outdir / "certificates.json"
    C.write_certificates(certs, path)
    manifest.add_output(path)
    manifest.write(outdir)
    for c in certs:
        status = "zero" if c.verified else f"NONZERO ({c.entries_nonzero})"
        print(f"{c.which} {c.interaction}: residues {status} "
              f"[{c.millis:.0f} ms, degree <= {c.max_degree}]")
    return EXIT_OK if all(c.verified for c in certs) else EXIT_VERIFICATION


def _parse_entry(text):
    if not text:
        return None
    try:
        i, j, k = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--mutate-entry takes three integers I,J,K, "
                         f"got {text!r}") from None
    return (i, j, k)


def cmd_check_identities(ns) -> int:
    from . import resonance as R

    state = _state_from_flags(ns)
    outdir = _outdir(ns)
    manifest = RunManifest("check-identities", vars_serializable(ns),
                           seed=ns.seed)
    rng = np.random.default_rng(ns.seed)
    xi, eta = R.sample_off_axis(rng, ns.samples)
    report = {"samples": ns.samples, "tolerance": ns.tolerance,
              "state": state.to_dict(), "results": {}}
    worst_all = 0.0
    for spec in R.ALL_WAVE_TRIPLES:
        r = R.check_gradient_identity(spec, xi, eta, state)
        report["results"][f"gradient {spec.label()}"] = float(np.max(r))
        worst_all = max(worst_all, float(np.max(r)))
    for spec in R.ALL_WAVE_TRIPLES:
        if (spec.eps1, spec.eps2, spec.eps3) in ((1, -1, -1), (-1, 1, 1)):
            continue
        r, skipped = R.check_phase_gradsq_identity(spec, xi, eta, state)
        key = f"phase-gradsq {spec.label()}"
        report["results"][key] = float(np.max(r))
        report["results"][key + " skipped"] = int(np.sum(skipped))
        worst_all = max(worst_all, float(np.max(r)))
    for sign, name in ((1, "mixed +,+0"), (-1, "mixed -,-0")):
        r = R.check_mixed_gradient_identity(sign, xi, eta, state)
        report["results"][name] = float(np.max(r))
        worst_all = max(worst_all, float(np.max(r)))
    report["worst"] = worst_all
    report["pass"] = bool(worst_all <= ns.tolerance)
    path = outdir / "identities.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    manifest.add_output(path)
    manifest.write(outdir)
    print(f"worst residual {worst_all:.3e} (tolerance {ns.tolerance:.1e}): "
          + ("pass" if report["pass"] else "FAIL"))
    return EXIT_OK if report["pass"] else EXIT_VERIFICATION


def _config_error(exc) -> int:
    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    print(f"config error: {what}", file=sys.stderr)
    return EXIT_USAGE


def cmd_simulate(ns) -> int:
    from .simulate import simulate, u0_smallness_probe, write_snapshot

    with open(ns.config) as f:
        raw = json.load(f)
    try:
        cfg, mode, probe = parse_sim_config(raw)
        cfg.resolved_dt()
        outdir = Path(_read(raw.get("output", {}), "output", "dir", _text,
                            ns.out))
    except (ValueError, KeyError, TypeError) as exc:
        return _config_error(exc)
    if ns.dry_run:
        print("config ok")
        return EXIT_OK
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("simulate", raw, seed=cfg.seed)
    if mode == "u0_probe":
        report = u0_smallness_probe(cfg, probe.get("amplitudes"))
        path = outdir / "u0_probe.json"
        with open(path, "w") as f:
            json.dump(report, f, indent=2)
        manifest.add_output(path)
        manifest.write(outdir)
        print(f"u0 ratio range [{report['ratio_min']:.3f}, "
              f"{report['ratio_max']:.3f}]")
        return EXIT_OK
    res = simulate(cfg)
    series_path = outdir / "series.csv"
    res.series.write_csv(series_path)
    manifest.add_output(series_path)
    for t, snap in res.snapshots:
        path = outdir / f"snapshot_t{t:g}.raw"
        write_snapshot(path, snap, cfg.state, t)
        manifest.add_output(path)
    manifest.write(outdir)
    if res.series.blowup:
        s = res.series
        print(f"run terminated: numerical blow-up in step {s.blowup_step} "
              f"(t = {s.blowup_t:g}); partial outputs kept", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"completed t = {cfg.t_end}; {len(res.series.rows)} samples "
          f"-> {series_path}")
    return EXIT_OK


def cmd_decay_report(ns) -> int:
    from .diagnostics import dispersion_probe, wrap_time

    with open(ns.config) as f:
        raw = json.load(f)
    try:
        _reject_unknown(raw, {"schema", "grid", "state", "bump", "times",
                              "output"}, "config")
        if raw.get("schema") != SIM_SCHEMA:
            raise ValueError(f"config schema must be {SIM_SCHEMA}")
        grid = parse_grid(raw["grid"])
        state = parse_state(raw["state"])
        bump = raw.get("bump", {})
        _reject_unknown(bump, {"sigma", "amplitude", "component"}, "bump")
        sigma = _read(bump, "bump", "sigma", _positive, 2.0)
        amplitude = _read(bump, "bump", "amplitude", float, 1.0)
        component = _read(bump, "bump", "component", int, 0)
        if not 0 <= component < 10:
            raise ValueError(f"bump.component must be in 0..9, "
                             f"got {component}")
        times = raw["times"]
        _reject_unknown(times, {"t1", "t2", "n"}, "times")
        t1 = _read(times, "times", "t1", float)
        t2 = _read(times, "times", "t2", float)
        n = _read(times, "times", "n", int, 12)
        # the fit's ci95 needs more than two points
        if n < 3:
            raise ValueError(f"times.n must be at least 3, got {n}")
        tw = wrap_time(grid, state)
        if not 0 < t1 < t2 < tw:
            raise ValueError(f"times need 0 < t1 < t2 < wrap time {tw:.6g}, "
                             f"got t1 = {t1}, t2 = {t2}")
        outd = raw.get("output", {})
        _reject_unknown(outd, {"dir"}, "output")
        outdir = Path(_read(outd, "output", "dir", _text, ns.out))
    except (ValueError, KeyError, TypeError) as exc:
        return _config_error(exc)
    if ns.dry_run:
        print("config ok")
        return EXIT_OK
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("decay-report", raw)
    report = dispersion_probe(state, grid, np.geomspace(t1, t2, n),
                              sigma=sigma, amplitude=amplitude,
                              component=component)
    path = outdir / "decay_report.json"
    report.write_json(path)
    manifest.add_output(path)
    manifest.write(outdir)
    print(f"fitted sup-norm exponent {report.exponent:.3f} "
          f"(ci95 +-{report.ci95:.3f}, window {report.window}, "
          f"t_wrap {report.t_wrap:.1f})")
    return EXIT_OK


def cmd_projectors(ns) -> int:
    from .spectral import assemble_A0, assemble_L0, projector
    from .state import norm0

    state = _state_from_flags(ns)
    xi = np.array(ns.xi)
    out = {
        "xi": xi.tolist(),
        "state": state.to_dict(),
        "norm0": float(norm0(xi, state)),
        "A0": assemble_A0(xi, state).tolist(),
        "L0": assemble_L0(xi, state).tolist(),
        "P0": projector(xi, state, 0).tolist(),
        "Pplus": projector(xi, state, +1).tolist(),
        "Pminus": projector(xi, state, -1).tolist(),
    }
    text = json.dumps(out, indent=2)
    if ns.out != ".":
        outdir = _outdir(ns)
        path = outdir / "projectors.json"
        path.write_text(text)
        manifest = RunManifest("projectors", vars_serializable(ns))
        manifest.add_output(path)
        manifest.write(outdir)
        print(f"wrote {path}")
    else:
        print(text)
    return EXIT_OK


# ----------------------------------------------------------------------
# shared flags
# ----------------------------------------------------------------------

def _state_from_flags(ns) -> ConstantState:
    return ConstantState(tau0=ns.tau0, b0=ns.b0, d0=ns.d0)


def vars_serializable(ns) -> dict:
    return {k: v for k, v in vars(ns).items()
            if k != "func" and not k.startswith("_")}


# flag converters: argparse reports their errors with the flag's name

def _numbers(text: str) -> list:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not parts or not np.all(np.isfinite(parts)):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}")
    return parts


def _vector(text: str) -> list:
    """'x,y,z', or one number for all three components."""
    parts = _numbers(text)
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 1 or 3 numbers, "
                                         f"got {text!r}")
    return parts


def _nonzero_xi(text: str) -> list:
    parts = _numbers(text)
    if len(parts) != 3 or not any(parts):
        raise argparse.ArgumentTypeError(f"expected a nonzero 3-vector "
                                         f"'x,y,z', got {text!r}")
    return parts


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}")
    return n


def _add_state_flags(p):
    bg = CERTIFICATION_BACKGROUND
    p.add_argument("--tau0", type=float, default=bg.tau0)
    p.add_argument("--b0", type=_vector, default=bg.b0.tolist(),
                   metavar="X,Y,Z")
    p.add_argument("--d0", type=_vector, default=bg.d0.tolist(),
                   metavar="X,Y,Z")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="abiwave",
        description="Spectral structure, exact non-resonance certification "
                    "and pseudo-spectral simulation for the augmented "
                    "Born-Infeld system.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-symbols",
                       help="exact residue-zero certification of the "
                            "projected interaction tensors")
    p.add_argument("--which", choices=("N", "Nprime", "both"), default="both")
    p.add_argument("--interactions",
                   help="semicolon-separated sign labels, e.g. '+,-+;-,+-'")
    p.add_argument("--subsystem", choices=("full", "chaplygin"),
                   default="full")
    p.add_argument("--mutate-entry", metavar="I,J,K",
                   help="add 1 to one tensor entry (soundness self-test)")
    p.add_argument("--cofactors", action="store_true",
                   help="record sample cofactor decompositions")
    p.add_argument("--skip-preflight", action="store_true")
    p.add_argument("--out", default=".")
    _add_state_flags(p)
    p.set_defaults(func=cmd_verify_symbols)

    p = sub.add_parser("check-identities",
                       help="numeric verification of the phase identities")
    p.add_argument("--samples", type=_count, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--out", default=".")
    _add_state_flags(p)
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("simulate",
                       help="nonlinear run (or u0 probe) from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decay-report",
                       help="free linear dispersion decay fit")
    p.add_argument("--config", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_decay_report)

    p = sub.add_parser("projectors",
                       help="dump A0, L0 and the three projectors at one xi")
    p.add_argument("--xi", type=_nonzero_xi, required=True, metavar="X,Y,Z")
    p.add_argument("--out", default=".")
    _add_state_flags(p)
    p.set_defaults(func=cmd_projectors)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
