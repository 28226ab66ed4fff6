"""Oversubscription check: BLAS threads pinned to 1 against the environment as found.

    python3 perfbench/oversub.py --seed 1 --seconds 30 --repeats 2

Runs ``rate-small`` and ``solve-preset`` in child processes, alternately with
the environment as found and with ``OPENBLAS_NUM_THREADS=1`` set in the
child's environment only, and prints ``trials_per_s_2proc`` and
``solve_s_p50`` for each. Two worker processes that each start OpenBLAS
threads on a two-core machine can oversubscribe it; this shows by how much.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIGURES = {"rate-small": "trials_per_s_2proc", "solve-preset": "solve_s_p50"}


def one_run(workload, seed, seconds, pinned):
    env = dict(os.environ)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, check=True,
        timeout=600)
    lines = out.stdout.splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run was not correct: {lines[-2]}")
    return report["detail"][FIGURES[workload]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()
    print("OPENBLAS_NUM_THREADS as found:", os.environ.get("OPENBLAS_NUM_THREADS"))
    for workload, figure in FIGURES.items():
        values = {False: [], True: []}
        for i in range(args.repeats):
            for pinned in ((False, True) if i % 2 == 0 else (True, False)):
                values[pinned].append(
                    one_run(workload, args.seed + i, args.seconds, pinned))
        found, pinned = (statistics.median(values[k]) for k in (False, True))
        print(f"{workload} {figure}: as found {found:.4g} {values[False]}, "
              f"pinned to 1 {pinned:.4g} {values[True]}, "
              f"pinned/found {pinned / found:.3f}")


if __name__ == "__main__":
    main()
