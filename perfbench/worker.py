"""One benchmark process: set up a workload, then repeat it for a while.

Started by ``run.py`` with the thread caps already in the environment.
With ``--setup-only`` it exits right after set-up.  Otherwise it runs
timed repetitions until ``--seconds`` would be exceeded (at least two)
and prints one JSON object as its last line of output: the
CLOCK_MONOTONIC reading at the end of set-up (the parent turns it into
``setup_s``), each repetition's wall and CPU time and check results,
peak RSS and, with ``--trace 1``, the per-layer metrics.  Untraced
repetitions run under a ``clock.UnitClock``, which adds to each its
estimated time (see clock.py).

With ``--trace 1`` untraced and traced repetitions alternate, untraced
first; the per-layer metrics are medians over the traced repetitions
and the tracing overhead is each traced repetition's wall time minus
that of the untraced one before it.  Set-up is traced as well.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import UnitClock  # noqa: E402

# the time outside unit calls is compared across repetitions
MIN_REPS = 2


def _rep(wl, n, outdir, tracer, clock=None):
    """One timed repetition, then its checks (untimed)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    if tracer is not None:
        tracer.rep = n
        tracer.install()
    c0, t0 = time.thread_time(), time.perf_counter()
    if clock is not None:
        clock.begin()
    try:
        with tracer.span("bench.rep") if tracer else nullcontext():
            result = wl.run(outdir, tracer)
    except Exception:
        traceback.print_exc()
        result = None
    if clock is not None:
        clock.end()
    wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
    if tracer is not None:
        tracer.uninstall()
    checks = wl.check(result, outdir)
    written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file()) \
        if outdir.exists() else 0
    if tracer is not None:
        tracer.count("cli.bytes_written", written)
    shutil.rmtree(outdir, ignore_errors=True)
    return {"traced": tracer is not None, "wall": wall, "cpu": cpu,
            "checks": [list(c) for c in checks]}


def _facts() -> dict:
    import numpy
    import scipy
    from abiwave.grid import fft_workers
    from abiwave.symbolic import kernel_backend

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kernel_backend": kernel_backend(),
            "abi_threads_applied": fft_workers()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject")
    ap.add_argument("--work", required=True)
    ns = ap.parse_args(argv)

    work = Path(ns.work)
    tracer = None
    if ns.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    wl = workloads.make(ns.workload, ns.seed, tiny=ns.tiny, inject=ns.inject)
    wl.setup(work / "out")
    if tracer is not None:
        tracer.uninstall()
    ready = time.monotonic()
    if ns.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    clock = None
    if tracer is None:
        clock = UnitClock()
        clock.install()
    reps = []
    start = time.perf_counter()
    while True:
        cycle = [None, tracer] if tracer is not None else [None]
        for tr in cycle:
            reps.append(_rep(wl, len(reps), work / "out", tr, clock))
        last = sum(r["wall"] for r in reps[-len(cycle):])
        if (len(reps) >= MIN_REPS
                and time.perf_counter() - start + last > ns.seconds):
            break

    out = {"ready": ready, "reps": reps,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "facts": _facts()}
    if clock is not None:
        clock.uninstall()
        est, kinds = clock.estimates()
        for r, (wall, cpu), (_, _, calls) in zip(reps, est, clock.reps):
            r["wall_est"], r["cpu_est"] = wall, cpu
            r["unit_calls"] = [[" ".join(map(str, key)), w, c]
                               for key, w, c in calls]
        out["clock"] = {"calls": kinds, "missing_targets": clock.missing}
    if tracer is not None:
        per_rep = [layer_metrics(tracer, n, reps[n - 1]["wall"])
                   for n, r in enumerate(reps) if r["traced"]]
        out["layers"] = {k: statistics.median(m[k] for m in per_rep)
                         for k in per_rep[0]}
        out["missing_targets"] = tracer.missing
        tracer.dump(work / "spans.json",
                    {"workload": ns.workload, "seed": ns.seed,
                     "missing_targets": tracer.missing})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
