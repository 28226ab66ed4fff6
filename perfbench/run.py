"""genprior benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload rate-small --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from ``src/`` next to
this directory; nothing is installed. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to ``perfbench/out/``. The line before
the result holds the workload's detailed figures, its gates and the
environment. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (name, unit, better, bound): the end-to-end metrics of every workload.
# ``main`` and ``alt`` are the workload's two timed paths (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("main_s_p50", "s", "lower", 0.25),
    ("alt_s_p50", "s", "lower", 0.25),
    ("success_frac", "fraction", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def load_library():
    """Import genprior from this checkout's src/, or exit with an error."""
    if not (SRC / "genprior" / "__init__.py").is_file():
        sys.exit(f"benchmark: no genprior sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import genprior
    if SRC.resolve() not in Path(genprior.__file__).resolve().parents:
        sys.exit(f"benchmark: imported genprior from {genprior.__file__}, "
                 f"not from {SRC}")


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit or None,
        "seed": seed,
    }


def end_to_end(run):
    def median(key):
        values = run.samples.get(key)
        return statistics.median(values) if values else 0.0

    values = {
        "setup_s": median("setup"),
        "main_s_p50": median("main"),
        "alt_s_p50": median("alt"),
        "success_frac": 1.0 - run.failed / max(run.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             bool(args.trace))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        run.tracer.save(spans)
        run.detail["spans_file"] = str(spans.relative_to(ROOT))
        metrics = run.layers
    else:
        metrics = end_to_end(run)
    failed_frac = run.failed / max(run.attempted, 1)
    print(json.dumps({"workload": args.workload, "detail": run.detail,
                      "samples": run.samples, "gates": run.gates,
                      "failed_frac": failed_frac,
                      "environment": environment(args.seed)}))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
