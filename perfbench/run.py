"""abiwave benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload desk --seed 1234 --seconds 50 --trace 0

Run from the root of a source checkout (it imports ``src/abiwave``; no
install is needed).  Workloads: desk, certify (see README.md).  Every
process runs single-threaded (ABI_THREADS=1 and the BLAS thread caps
set to 1).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several processes, from process start to the first timed call),
``wall_s`` and ``cpu_s`` (medians over the repetitions that fit in
``--seconds``, at least two, of each repetition's time as ``clock.py``
estimates it from the 90th percentiles of its steps, samples and
certificates) and ``peak_rss_mb``.  ``--trace 1`` prints
the per-layer metrics of a traced run instead.  The last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` (output
checks) and ``metrics``; the lines before it are a readable report.
Results, machine facts and the trace spans go to ``.bench_out/``.

``--tiny`` and ``--inject`` exist for ``selftest.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5        # processes whose set-up time is measured
TIME_LIMIT_S = 170.0     # whole run, all processes included
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
THREAD_ENV = ("ABI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, deadline, env):
    """Run worker.py to completion; return (its JSON, start time)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=left, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), start


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    """Facts recorded with every result (the worker adds library versions)."""
    facts = {"platform": platform.platform(), "nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0))}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        facts["git_rev"] = rev.stdout.strip() if rev.returncode == 0 \
            else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        facts["git_rev"] = "unknown (git unavailable)"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            facts[f"L{level}"] = _read(index / "size")
    meminfo = _read("/proc/meminfo") or ""
    for line in meminfo.splitlines():
        if line.startswith("MemTotal:"):
            facts["MemTotal"] = line.split(":", 1)[1].strip()
    return facts


def _line(name, value, unit, note):
    return f"  {name:<42} {value:>14.6g} {unit:<10} {note}"


def run(ns) -> dict:
    if not (ROOT / "src" / "abiwave" / "__init__.py").is_file():
        raise BenchError(f"no abiwave sources under {ROOT / 'src'}; run from "
                         "the root of a source checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    tag = f"{ns.workload}_seed{ns.seed}_trace{ns.trace}" \
        + ("_tiny" if ns.tiny else "") + (f"_{ns.inject}" if ns.inject else "")
    work = ROOT / ".bench_out" / tag
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", ns.workload, "--seed", str(ns.seed),
              "--work", str(work)] + (["--tiny"] if ns.tiny else []) \
        + (["--inject", ns.inject] if ns.inject else [])

    setups = []
    if not ns.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, start = _worker(common + ["--setup-only"], deadline, env)
            setups.append(res["ready"] - start)
    res, start = _worker(common + ["--seconds", str(ns.seconds),
                                   "--trace", str(ns.trace)], deadline, env)
    setups.append(res["ready"] - start)

    reps = res["reps"]
    checks = [c for r in reps for c in r["checks"]]
    failed = sum(1 for c in checks if not c[1])
    untraced = [r for r in reps if not r["traced"]]
    facts = dict(machine_facts(), **res["facts"])
    if ns.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_est"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_est"] for r in untraced),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    report = {"workload": ns.workload, "seed": ns.seed,
              "seconds": ns.seconds, "trace": ns.trace, "facts": facts,
              "setup_samples_s": setups, "reps": reps,
              "missing_targets": res.get("missing_targets", []),
              "clock": res.get("clock"),
              "metrics": metrics}
    with open(work / "result.json", "w") as f:
        json.dump(report, f, indent=2)

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"({len(untraced)} untraced, {len(reps) - len(untraced)} traced "
          f"repetitions, {len(setups)} set-up samples)")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} processes"
        elif name in ("wall_s", "cpu_s"):
            raw = statistics.median(r[name[:-2]] for r in untraced)
            note = (f"median of {len(untraced)} repetitions; "
                    f"raw median {raw:.4g} s")
        print(_line(name, m["value"], m["unit"], note))
    print(_line("fail_frac", failed / max(len(checks), 1), "ratio",
                       f"{failed} of {len(checks)} checks failed"))
    failures = {}
    for name, ok, detail in checks:
        if not ok:
            failures.setdefault(name, []).append(detail)
    for name, details in failures.items():
        print(f"  FAILED {name} ({len(details)}x): {details[0]}")
    if report["missing_targets"]:
        print("  not traced (absent from the code): "
              + ", ".join(report["missing_targets"]))
    if report["clock"] and report["clock"]["missing_targets"]:
        print("  not timed as units (absent from the code): "
              + ", ".join(report["clock"]["missing_targets"]))
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1234,
                    help="replaces ic.seed of desk; certify takes fixed "
                         "inputs")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes")
    ap.add_argument("--inject", choices=("nan", "zero-reducer"),
                    help="break the run on purpose (self-test)")
    ns = ap.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(ns)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
