"""Regenerate reference.json: reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py --seeds 1234 1 2 3

Runs the desk simulation at each seed, single-threaded, and stores the
final series row of each run.  Commit the result together with the
code it was produced by.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["ABI_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# columns compared at rtol; the residual columns are round-off and are
# checked against bounds instead
COLUMNS = ("t", "H1_U", "H6_U", "HN_U", "H1_up", "H1_um", "H1_u0", "W1inf_U",
           "B0inf1", "B1inf1", "energy")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ns = ap.parse_args(argv)
    ref = {"rtol": 1e-8, "simulate": {"desk": {}}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp)
        for seed in ns.seeds:
            wl = workloads.make("desk", seed)
            wl.setup(out)
            last = wl.run(out / "run").series.rows[-1]
            ref["simulate"]["desk"][str(seed)] = {c: last[c] for c in COLUMNS}
            print("desk", seed, last["H1_U"], flush=True)
    with open(HERE / "reference.json", "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
