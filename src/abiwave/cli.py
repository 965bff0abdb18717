"""Command-line interface.

Subcommands: verify-symbols, check-identities, simulate, decay-report,
projectors.  Each writes its outputs and then raises; :func:`main`
alone turns an exception into an exit code, a stable contract: 0 pass,
1 usage or configuration error, 2 verification failure, 3 numerical
blow-up, 130 interrupted (Ctrl-C).
Every output directory receives a run manifest sufficient to reproduce
it (bitwise at ABI_THREADS=1).
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BlowUpError, ConfigError, VerificationError
from .grid import Grid, fft_workers
from .model import IC_KINDS, check_background
from .resonance import InteractionSpec
from .state import (CERTIFICATION_BACKGROUND, ConstantState, bi_lift_constant,
                    finite_number)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BLOWUP = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

@functools.cache
def _code_version() -> str:
    """Package version plus the git revision, read once per process."""
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


@functools.cache
def _library_versions() -> dict:
    """Python, NumPy and SciPy versions, read once per process.

    Read from the installed package metadata, so recording them imports
    neither library; a package that is not installed records None.
    """
    from importlib import metadata

    out = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = None
    return out


class RunManifest:
    """Reproducibility record written alongside every output."""

    def __init__(self, command: str, config: dict, seed=None):
        self.data = {
            "command": command,
            "config": config,
            "code_version": _code_version(),
            "versions": dict(_library_versions()),
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


def _outdir(ns, fallback=".") -> Path:
    """The one ``--out`` rule: a typed ``--out``, else ``fallback``."""
    out = Path(fallback if ns.out is None else ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# config handling (fail-closed: unknown keys are errors)
# ----------------------------------------------------------------------

SIM_SCHEMA = 1
_REQUIRED = object()


def _reject_unknown(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _section(d: dict, key: str, allowed: set, required=False) -> dict:
    """``d[key]``, a JSON object with no key outside ``allowed``, or {}."""
    section = _read(d, "config", key, lambda s: s,
                    _REQUIRED if required else {})
    _reject_unknown(section, allowed, key)
    return section


def _read(d: dict, where: str, key: str, conv, default=_REQUIRED):
    """``conv(d[key])``, with any error naming ``where.key``.

    An absent key gives ``default``, and so does null when the default
    is None (an optional key); without a default the key is required.
    A ConfigError from ``conv`` names its own key and passes unchanged.
    """
    value = d.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where}.{key} is missing")
    if value is None and default is None:
        return None
    try:
        return conv(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def _boolean(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"must be true or false, got {x!r}")
    return x


def _positive(x) -> float:
    """A finite number > 0."""
    if not finite_number(x) > 0:
        raise ValueError(f"must be a finite number > 0, got {x!r}")
    return float(x)


def _nonnegative(x) -> float:
    """A finite number >= 0."""
    if not finite_number(x) >= 0:
        raise ValueError(f"must be a finite number >= 0, got {x!r}")
    return float(x)


def _integer(low: int, high=math.inf):
    """Converter: a JSON integer in ``[low, high)``."""
    def conv(x) -> int:
        if type(x) is not int or not low <= x < high:
            raise ValueError(f"must be an integer in [{low}, {high}), "
                             f"got {x!r}")
        return x
    return conv


def _one_of(options: tuple):
    def conv(x):
        if x not in options:
            raise ValueError(f"must be one of {list(options)}, got {x!r}")
        return x
    return conv


def _three(x) -> list:
    if not isinstance(x, list) or len(x) != 3:
        raise ValueError(f"must be a list of three numbers, got {x!r}")
    return [finite_number(c) for c in x]


def _two_positive(x) -> tuple:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"must be a list of two numbers > 0, got {x!r}")
    return tuple(_positive(a) for a in x)


def _times(x) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"must be a list of numbers >= 0, got {x!r}")
    return tuple(_nonnegative(t) for t in x)


def parse_state(d: dict) -> ConstantState:
    _reject_unknown(d, {"tau0", "v0", "b0", "d0", "manifold_from"}, "state")
    if "manifold_from" in d:
        if set(d) != {"manifold_from"}:
            raise ConfigError(f"state.manifold_from excludes "
                              f"{sorted(set(d) - {'manifold_from'})}")
        lift = d["manifold_from"]
        _reject_unknown(lift, {"B0", "D0"}, "state.manifold_from")
        return bi_lift_constant(
            B0=_read(lift, "state.manifold_from", "B0", _three),
            D0=_read(lift, "state.manifold_from", "D0", _three))
    return ConstantState(
        tau0=_read(d, "state", "tau0", _positive),
        **{key: _read(d, "state", key, _three)
           for key in ("v0", "b0", "d0") if key in d})


def parse_grid(d: dict) -> Grid:
    _reject_unknown(d, {"N", "L"}, "grid")
    return Grid(N=_read(d, "grid", "N", _integer(1)),
                L=_read(d, "grid", "L", _positive))


# SimConfig field: (config section, key, converter).  An absent key takes
# the field's default, and so does null where that default is None.
_SIM_FIELDS = {
    "t_end": ("time", "t_end", _positive),
    "cfl": ("time", "cfl", _positive),
    "dt": ("time", "dt", _positive),
    "dealias": ("config", "dealias", _boolean),
    "cadence": ("diagnostics", "cadence", _positive),
    "sobolev_n": ("diagnostics", "sobolev_n", _integer(0)),
    "ic_kind": ("ic", "kind", _one_of(IC_KINDS)),
    "amplitude": ("ic", "amplitude", _nonnegative),
    "k0": ("ic", "k0", finite_number),
    "width": ("ic", "width", _positive),
    "seed": ("ic", "seed", _integer(0, 2 ** 64)),  # a Philox seed
    "snapshots": ("output", "snapshots", _times),
}
# the allowed keys of each section, read off _SIM_FIELDS; the sections
# are checked in this order
_SIM_SECTIONS = ("ic", "time", "diagnostics", "output")
_SIM_KEYS = {where: {key for w, key, _ in _SIM_FIELDS.values() if w == where}
             for where in ("config",) + _SIM_SECTIONS}
_SIM_KEYS["config"] |= {"schema", "mode", "grid", "state", "u0_probe",
                        *_SIM_SECTIONS}
_SIM_KEYS["output"].add("dir")  # read by _load_config

# bump key: converter; an absent key takes the dispersion_probe default
_BUMP_FIELDS = {"sigma": _positive, "amplitude": finite_number,
                "component": _integer(0, 10)}


def parse_sim_config(d: dict):
    """(SimConfig, mode, u0_probe section) of a simulate config.

    This is the config schema; every rejection names its key.
    """
    from .simulate import SimConfig

    _reject_unknown(d, _SIM_KEYS["config"], "config")
    _read(d, "config", "schema", _one_of((SIM_SCHEMA,)))
    sections = {"config": d, **{where: _section(d, where, _SIM_KEYS[where])
                                for where in _SIM_SECTIONS}}
    default = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    cfg = SimConfig(
        grid=_read(d, "config", "grid", parse_grid),
        state=_read(d, "config", "state", parse_state),
        **{name: _read(sections[where], where, key, conv, default[name])
           for name, (where, key, conv) in _SIM_FIELDS.items()})
    cfg.resolved_dt()
    mode = _read(d, "config", "mode", _one_of(("simulate", "u0_probe")),
                 "simulate")
    probe = _section(d, "u0_probe", {"amplitudes"})
    amplitudes = _read(probe, "u0_probe", "amplitudes", _two_positive, None)
    # the initial-data checks that need no draw, at the amplitude drawn
    drawn = (amplitudes[0] if mode == "u0_probe" and amplitudes
             else cfg.amplitude)
    check_background(cfg.state, drawn, cfg.ic_kind)
    return cfg, mode, {"amplitudes": amplitudes}


def parse_decay_config(d: dict):
    """(grid, state, sample times, bump keywords) of a decay-report
    config; an absent bump key takes the dispersion_probe default."""
    from .diagnostics import wrap_time

    _reject_unknown(d, {"schema", "grid", "state", "bump", "times",
                        "output"}, "config")
    _read(d, "config", "schema", _one_of((SIM_SCHEMA,)))
    _section(d, "output", {"dir"})
    grid = _read(d, "config", "grid", parse_grid)
    state = _read(d, "config", "state", parse_state)
    bump = _section(d, "bump", set(_BUMP_FIELDS))
    bump = {key: _read(bump, "bump", key, conv)
            for key, conv in _BUMP_FIELDS.items() if key in bump}
    times = _section(d, "times", {"t1", "t2", "n"}, required=True)
    t1, t2 = (_read(times, "times", key, finite_number)
              for key in ("t1", "t2"))
    # the fit's ci95 needs more than two points
    n = _read(times, "times", "n", _integer(3), 12)
    tw = wrap_time(grid, state)
    if not 0 < t1 < t2 < tw:
        raise ConfigError(f"times need 0 < t1 < t2 < wrap time {tw:.6g}, "
                          f"got t1 = {t1}, t2 = {t2}")
    return grid, state, np.geomspace(t1, t2, n), bump


def _load_config(ns, parse):
    """(parsed config, raw JSON, output dir) of ``--config``; every
    config check runs before ``--dry-run`` reports, and a dry run makes
    no directory (None).  ``output.dir`` is the fallback of ``--out``."""
    with open(ns.config) as f:
        raw = json.load(f)
    parsed = parse(raw)
    fallback = _read(raw.get("output", {}), "output", "dir", Path, ".")
    if ns.dry_run:
        print("config ok")
        return parsed, raw, None
    return parsed, raw, _outdir(ns, fallback)


# ----------------------------------------------------------------------
# subcommands: each writes its outputs, then raises on failure
# ----------------------------------------------------------------------

def cmd_verify_symbols(ns):
    from .symbolic import certify as C

    state = _state_from_flags(ns)
    entry = ns.mutate_entry  # I,J,K; certify checks that it is in range
    if entry and not ns.interactions and ns.which == "both":
        raise ValueError("--mutate-entry needs --which N or Nprime, or "
                         "--interactions, to name the tensor it mutates")
    manifest = RunManifest("verify-symbols", vars_serializable(ns))
    opts = dict(preflight=not ns.skip_preflight, subsystem=ns.subsystem,
                with_cofactors=ns.cofactors)
    which = "constraint" if ns.which == "Nprime" else "evolution"
    specs = ns.interactions
    if entry and not specs:
        specs = [InteractionSpec(0 if which == "constraint" else 1, 1, 1)]
    if specs:
        certs = [C.certify((s.eps1, s.eps2, s.eps3), which, state,
                           mutate_entry=entry, **opts) for s in specs]
    else:
        which_list = (which,) if ns.which != "both" else \
            ("evolution", "constraint")
        certs = C.certify_all(which_list, state, **opts)
    # created once the certificates exist: a rejected input leaves no directory
    outdir = _outdir(ns)
    path = outdir / "certificates.json"
    C.write_certificates(certs, path)
    manifest.add_output(path)
    manifest.write(outdir)
    for c in certs:
        status = "zero" if c.verified else f"NONZERO ({c.entries_nonzero})"
        print(f"{c.which} {c.interaction}: residues {status} "
              f"[{c.millis:.0f} ms, degree <= {c.max_degree}]")
    bad = [f"{c.which} {c.interaction}" for c in certs if not c.verified]
    if bad:
        raise VerificationError(f"nonzero residues in {', '.join(bad)}")


def cmd_check_identities(ns):
    from . import resonance as R

    state = _state_from_flags(ns)
    outdir = _outdir(ns)
    manifest = RunManifest("check-identities", vars_serializable(ns),
                           seed=ns.seed)
    rng = np.random.default_rng(ns.seed)
    xi, eta = R.sample_off_axis(rng, ns.samples)
    results = R.identity_suite(xi, eta, state)
    worst_all = max([0.0] + [r for name, r in results.items()
                             if not name.endswith(" skipped")])
    report = {"samples": ns.samples, "tolerance": ns.tolerance,
              "state": state.to_dict(), "results": results,
              "worst": worst_all}
    report["pass"] = bool(worst_all <= ns.tolerance)
    path = outdir / "identities.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    manifest.add_output(path)
    manifest.write(outdir)
    if not report["pass"]:
        raise VerificationError(f"worst identity residual {worst_all:.3e} "
                                f"exceeds the tolerance {ns.tolerance:.1e}")
    print(f"worst residual {worst_all:.3e} (tolerance {ns.tolerance:.1e}): "
          "pass")


def cmd_simulate(ns):
    from .simulate import simulate, u0_smallness_probe, write_snapshot

    (cfg, mode, probe), raw, outdir = _load_config(ns, parse_sim_config)
    if ns.dry_run:
        return
    manifest = RunManifest("simulate", raw, seed=cfg.seed)
    if mode == "u0_probe":
        report = u0_smallness_probe(cfg, probe["amplitudes"])
        path = outdir / "u0_probe.json"
        with open(path, "w") as f:
            json.dump(report, f, indent=2)
        manifest.add_output(path)
        manifest.write(outdir)
        print(f"u0 ratio range [{report['ratio_min']:.3f}, "
              f"{report['ratio_max']:.3f}]")
        return
    res = simulate(cfg)
    manifest.data["stats"] = res.stats
    series_path = outdir / "series.csv"
    res.series.write_csv(series_path)
    manifest.add_output(series_path)
    shared = []
    for (t, snap), times in zip(res.snapshots, res.snapshot_times):
        path = outdir / f"snapshot_t{t:g}.raw"
        write_snapshot(path, snap, cfg.state, t)
        manifest.add_output(path)
        if len(times) > 1:
            shared.append(f"{times} share the sample at t = {t:g}")
    manifest.write(outdir)
    s = res.series
    if s.blowup:
        raise BlowUpError(f"numerical blow-up in step {s.blowup_step} "
                          f"(t = {s.blowup_t:g}); partial outputs kept")
    if shared:
        print(f"warning: snapshot times {'; '.join(shared)}; one snapshot "
              f"written for each sample", file=sys.stderr)
    # the run answers the requested times in time order as it reaches them
    missed = sorted(cfg.snapshots)[sum(map(len, res.snapshot_times)):]
    if missed:
        print(f"warning: snapshot times {missed} are past t_end = "
              f"{cfg.t_end:g}; not written", file=sys.stderr)
    print(f"completed t = {cfg.t_end}; {len(s.rows)} samples "
          f"-> {series_path}")


def cmd_decay_report(ns):
    from .diagnostics import dispersion_probe

    (grid, state, times, bump), raw, outdir = _load_config(
        ns, parse_decay_config)
    if ns.dry_run:
        return
    manifest = RunManifest("decay-report", raw)
    report = dispersion_probe(state, grid, times, **bump)
    path = outdir / "decay_report.json"
    report.write_json(path)
    manifest.add_output(path)
    manifest.write(outdir)
    print(f"fitted sup-norm exponent {report.exponent:.3f} "
          f"(ci95 +-{report.ci95:.3f}, window {report.window}, "
          f"t_wrap {report.t_wrap:.1f})")


def cmd_projectors(ns):
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
    if ns.out is None:
        print(text)
        return
    outdir = _outdir(ns)
    path = outdir / "projectors.json"
    path.write_text(text)
    manifest = RunManifest("projectors", vars_serializable(ns))
    manifest.add_output(path)
    manifest.write(outdir)
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# shared flags
# ----------------------------------------------------------------------

def _state_from_flags(ns) -> ConstantState:
    return ConstantState(tau0=ns.tau0, b0=ns.b0, d0=ns.d0)


def vars_serializable(ns) -> dict:
    """The parsed flags as JSON values; interactions as their labels."""
    out = {k: v for k, v in vars(ns).items()
           if k != "func" and not k.startswith("_")}
    if out.get("interactions"):
        out["interactions"] = [s.label() for s in out["interactions"]]
    return out


def _flag(check, number=float):
    """argparse type: the comma-separated parts, each read by ``number``,
    go to a config check as one value or a list (as the text if a part is
    no number, which every check rejects); a rejection names the flag."""
    def conv(text: str):
        try:
            parts = [number(x) for x in text.split(",")]
        except ValueError:
            parts = [text]
        try:
            return check(parts[0] if len(parts) == 1 else parts)
        except (TypeError, ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return conv


def _nonzero_three(x) -> list:
    if not any(v := _three(x)):
        raise ValueError(f"must not be all zero, got {x!r}")
    return v


def _entry(x) -> tuple:
    if not isinstance(x, list) or len(x) != 3:
        raise ValueError(f"must be three integers I,J,K, got {x!r}")
    return tuple(x)


def _interactions(text: str) -> list:
    """argparse type: semicolon-separated interaction labels."""
    try:
        return [InteractionSpec.parse(label) for label in text.split(";")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_state_flags(p):
    bg = CERTIFICATION_BACKGROUND
    # one number stands for all three components
    vector = _flag(lambda x: _three(x if isinstance(x, list) else [x] * 3))
    p.add_argument("--tau0", type=_flag(_positive), default=bg.tau0)
    p.add_argument("--b0", type=vector, default=bg.b0.tolist(),
                   metavar="X,Y,Z")
    p.add_argument("--d0", type=vector, default=bg.d0.tolist(),
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
    p.add_argument("--interactions", type=_interactions,
                   help="semicolon-separated sign labels, e.g. '+,-+;-,+-'")
    p.add_argument("--subsystem", choices=("full", "chaplygin"),
                   default="full")
    p.add_argument("--mutate-entry", type=_flag(_entry, number=int),
                   metavar="I,J,K",
                   help="add 1 to one tensor entry (soundness self-test)")
    p.add_argument("--cofactors", action="store_true",
                   help="record sample cofactor decompositions")
    p.add_argument("--skip-preflight", action="store_true")
    p.add_argument("--out", help="output directory (default: .)")
    _add_state_flags(p)
    p.set_defaults(func=cmd_verify_symbols)

    p = sub.add_parser("check-identities",
                       help="numeric verification of the phase identities")
    p.add_argument("--samples", type=_flag(_integer(1), number=int),
                   default=10000)
    p.add_argument("--seed", type=_flag(_integer(0), number=int), default=0)
    p.add_argument("--tolerance", type=_flag(_nonnegative), default=1e-10)
    p.add_argument("--out", help="output directory (default: .)")
    _add_state_flags(p)
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("simulate",
                       help="nonlinear run (or u0 probe) from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", help="output directory; overrides output.dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decay-report",
                       help="free linear dispersion decay fit")
    p.add_argument("--config", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", help="output directory; overrides output.dir")
    p.set_defaults(func=cmd_decay_report)

    p = sub.add_parser("projectors",
                       help="dump A0, L0 and the three projectors at one xi")
    p.add_argument("--xi", type=_flag(_nonzero_three), required=True,
                   metavar="X,Y,Z")
    p.add_argument("--out", help="output directory (default: print the "
                                 "JSON to stdout)")
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
        ns.func(ns)
        return EXIT_OK
    except ConfigError as exc:
        code, line = EXIT_USAGE, f"config error: {exc}"
    except (ValueError, OSError) as exc:
        code, line = EXIT_USAGE, f"error: {exc}"
    except VerificationError as exc:
        code, line = EXIT_VERIFICATION, f"verification failed: {exc}"
    except BlowUpError as exc:
        code, line = EXIT_BLOWUP, f"run terminated: {exc}"
    except KeyboardInterrupt:
        code, line = EXIT_INTERRUPTED, "interrupted"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
