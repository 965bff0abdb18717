"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 perfbench/selftest.py

Runs the harness on an N=8 simulation (desk) and on the four constraint
certificates (certify), untraced and traced, and checks that:

* every metric named in BENCHMARK.json is printed, with its unit, in
  the JSON result and in the readable report, and fail_frac is 0;
* the unit clock timed units, and its estimate of each repetition is
  within a factor of two of the raw time;
* the traced spans nest, and each traced repetition's child spans plus
  its self time account for its wall time;
* deliberately broken runs raise fail_frac: a NaN in the initial field,
  and a reducer that returns zero (the mutated entry goes unflagged);
* in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 1 if any of these fails.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
         "--seconds", "0"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def spans_consistent(path) -> bool:
    """Children nest in their parent; root = children + self per rep."""
    dump = json.loads(path.read_text())
    spans = dump["spans"]
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if not (p["start"] <= s["start"] <= s["end"] <= p["end"]):
                return False
            children[s["parent"]] = children.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    roots = [i for i, s in enumerate(spans) if s["name"] == "bench.rep"]
    for i in roots:
        wall = spans[i]["end"] - spans[i]["start"]
        if not 0.0 <= children.get(i, 0.0) <= wall:
            return False
    return bool(roots)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for wl in ("desk", "certify"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = bench("--workload", wl, "--tiny", "--trace", str(trace))
            label = f"{wl} --tiny --trace {trace}"
            if res is None:
                expect(False, f"{label}: produced a result\n{proc.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{label}: every {key} metric, with its unit")
            shown = all(re.search(rf"^\s+{re.escape(n)}\s+\S+\s+{re.escape(u)}"
                                  rf"(\s|$)", proc.stdout, re.M)
                        for n, u in dict(want, fail_frac="ratio").items())
            expect(shown, f"{label}: report lists each metric and fail_frac")
            expect(res["attempted"] > 0 and res["failed"] == 0,
                   f"{label}: fail_frac 0 ({res['failed']} of "
                   f"{res['attempted']})")
            if trace:
                path = OUT / f"{wl}_seed7_trace1_tiny" / "spans.json"
                expect(spans_consistent(path),
                       f"{label}: spans nest and account for the wall time")
            else:
                path = OUT / f"{wl}_seed7_trace0_tiny" / "result.json"
                report = json.loads(path.read_text())
                expect(report["clock"]["calls"] and all(
                    0.5 * r[k] < r[k + "_est"] < 2 * r[k]
                    for r in report["reps"] for k in ("wall", "cpu")),
                    f"{label}: clock estimate within 2x of the raw time")

    for wl, inject, check in (("desk", "nan", "completed"),
                              ("certify", "zero-reducer", "mutation_flagged")):
        proc, res = bench("--workload", wl, "--tiny", "--inject", inject)
        label = f"{wl} --inject {inject}"
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               f"{label}: fail_frac raised")
        expect(re.search(rf"FAILED {check}\b", proc.stdout) is not None,
               f"{label}: check {check} failed")

    bare = OUT / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = bench("--workload", "desk", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "bare directory: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
