"""The repository benchmark: one workload per run, one JSON line of results.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit|stream|live --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric declared in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with per-layer spans installed and
prints every per-layer metric instead.  Human-readable lines (provenance,
notes, one ``name value unit`` line per metric) come first; the last line
of standard output is the JSON result.  The exit code is non-zero when an
output check failed or the program under test is missing.

See ``perfbench/README.md`` for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "stream", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing ({SRC})", file=sys.stderr)
        return 2

    # Pin the configuration every number is taken at: numpy backend,
    # float64, telemetry off — whatever the caller's environment says.
    # One BLAS thread: on a small shared box, BLAS threads contend with
    # each other and with other tenants, which makes fit times erratic.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in BLAS_THREAD_VARIABLES:
        os.environ[key] = "1"
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    from repro import obs
    from repro.nn import set_default_dtype
    from repro.nn.backend import active_backend, set_default_backend

    set_default_dtype("float64")
    set_default_backend("numpy")
    obs.configure("off")

    from workloads import WORKLOADS, clean

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, workdir)
    finally:
        clean(workdir)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": "float64",
        "backend": active_backend().name,
        "blas_threads": 1,
        "commit": git_commit(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for note in outcome.notes:
        print("note " + note)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:14.6g} {metric['unit']}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
