"""The benchmark's layer hooks still find what they wrap.

perfbench/spans.py rebinds degenlab functions by name and keys its spans on
their arguments and results (the `backend` of heat_evolve, the `strategy`
of sup_kernel, the mesh dimension of resolvent_power_apply).  A rename or a
deleted parameter in the package breaks a traced benchmark run without
failing any other test.  Here small scenarios run traced, exit as they do
untraced, and produce the layer metrics that name those hooks.
"""

import importlib.util
from pathlib import Path

from degenlab import cli

BENCH = Path(__file__).parents[1] / "perfbench"

# (scenario, overrides): together they reach contour (1D) and Chebyshev (2D)
# evolution, the separation probe, holder, a contour sup-kernel scan, distance
# fields, the 2D resolvent and classify with its coefficient evaluations
RUNS = [
    ("degenerate1d-d025",
     ["mesh.n=256", "t_small=[0.05,0.2]", "checks.4.params.h_list=[0.0625,0.03125,0.015625]"]),
    ("laplacian1d-largetime", ["mesh.n=256"]),
    (str(BENCH / "scenarios" / "radial-shell-2d-metric.json"), ["mesh.n=32"]),
]

EXPECTED = (
    "evolve.heat_evolve.contour_s",
    "evolve.heat_evolve.chebyshev_s",
    "evolve.sup_kernel.contour_s",
    "metric.distance_field_s",
    "metric.holder_fit_s",
    "evolve.resolvent_power_apply.2d_s",
    "scenarios.check_s.separation_probe",
    "coeffs.scalar_values.calls",
    "coeffs.classify_s",
)


def load_spans():
    """perfbench/spans.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all(tmp_path, tag):
    return [
        cli.run(name, out_dir=str(tmp_path / f"{tag}{i}"), overrides=overrides)
        for i, (name, overrides) in enumerate(RUNS)
    ]


def test_traced_runs_match_untraced_and_reach_every_hook(tmp_path):
    spans = load_spans()
    untraced = run_all(tmp_path, "plain")
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        traced = run_all(tmp_path, "traced")
    finally:
        restore()
    assert traced == untraced
    metrics = spans.pass_metrics(tracer.spans, tracer.counts)
    missing = [key for key in EXPECTED if key not in metrics]
    assert missing == []
    assert metrics["evolve.heat_evolve.calls"] > 0
