"""The benchmark's workloads, the environment they run in, and its facts.

Each workload is a closed loop in one process: a pass runs the workload's
scenarios back to back through `degenlab.cli.run`, each with a fresh
`ScenarioContext`, and the next pass starts when the previous one ended.
The seed only permutes the order of the scenarios within a pass, so every
seed produces the same outputs and the recorded reference applies to all.
"""

import json
import os
import platform
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCENARIO_DIR = os.path.join(BENCH_DIR, "scenarios")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

# Why each workload exists is in BENCHMARK.json; the layers each one should
# move are in perfbench/README.md.  Two workloads, so that each run can last
# 60 s: a pass takes 6-14 s, and the machine's speed drifts for seconds at a
# time, which the median over four to ten passes absorbs.
WORKLOADS = {
    "catalogue-1d-threads2": {
        "scenarios": [
            "laplacian1d", "laplacian1d-largetime", "resolvent-volume",
            "degenerate1d-d025", "degenerate1d-d05", "degenerate1d-d075-cut", "double-zero",
        ],
        "threads": 2,
    },
    "mesh-2d": {
        "scenarios": ["radial-shell-2d", "surface-2d", "radial-shell-2d-metric.json"],
        "threads": 1,
    },
}

# BLAS stays single-threaded everywhere: CSV bytes depend on the OpenBLAS
# thread count, and catalogue-1d-threads2 then uses exactly two threads.
BLAS_THREADS = 1


def scenario_arg(entry):
    """cli.run argument for a workload entry: a builtin name or a file here."""
    return os.path.join(SCENARIO_DIR, entry) if entry.endswith(".json") else entry


def scenario_name(entry):
    if entry.endswith(".json"):
        with open(scenario_arg(entry)) as fh:
            return json.load(fh)["name"]
    return entry


def ordered(workload, seed):
    entries = list(WORKLOADS[workload]["scenarios"])
    random.Random(seed).shuffle(entries)
    return entries


def child_env():
    """Environment for every process that imports degenlab."""
    env = dict(os.environ)
    env.pop("DEGENLAB_CACHE", None)  # a warm disk cache makes later passes another program
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP_ROOT
    return env


def checkout_problem():
    """Why the benchmark cannot run from this directory, or None."""
    if not os.path.isfile(os.path.join(SRC, "degenlab", "cli.py")):
        return f"no degenlab sources under {SRC}"
    for name in WORKLOADS:
        if not os.path.isfile(os.path.join(REFERENCE_DIR, f"{name}.json")):
            return f"no reference outputs for workload {name}"
    return None


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    """Machine and library facts recorded next to the numbers."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)) or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }
