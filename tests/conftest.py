"""Helpers shared by the test modules, which import them by name
(`from conftest import power1d`)."""

import json
import tracemalloc
from pathlib import Path

import numpy as np

from degenlab import CoefficientProfile, PowerDegenerate, RadialShell, assemble, build_mesh

BENCH_SCENARIO = Path(__file__).parents[1] / "perfbench" / "scenarios" / "radial-shell-2d-metric.json"


def power1d(delta, centers=((0.0,),), domain=(-4.0, 4.0), **kw):
    """The 1D power profile |x - x0|^delta about each center."""
    return CoefficientProfile(1, PowerDegenerate(delta, centers), domain, **kw)


def shell_op(n=32):
    """The radial-shell-2d builtin's profile at n: at n = 32, 1,089 nodes in
    14 components (the disc inside the shell, the outer region, and
    singletons on the shell)."""
    p = CoefficientProfile(2, RadialShell(0.75, 1.0, width=0.125), (-2.0, 2.0))
    return assemble(p, build_mesh(2, (-2.0, 2.0), n), 0.0)


def bench_scenario():
    """A fresh copy of the benchmark's scenario document."""
    return json.loads(BENCH_SCENARIO.read_text())


def same_bits(a, b):
    """a and b, scalars and lists taken as arrays, have the same dtype, shape
    and bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def traced_peak(call):
    """Peak of the memory that tracemalloc traces (numpy's buffers among it)
    while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
