"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload mesh-2d --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60 --trace 1
    python3 perfbench/run.py --record-reference

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give each metric by name and unit, the spreads, and the machine facts.
`attempted` and `failed` count check records: a record fails when its
scenario raised or its status or verdict differs from the reference.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, TMP_ROOT, WORKLOADS, checkout_problem, child_env, ordered, scenario_arg

SETUP_REPS = 5
WORKER_TIMEOUT_S = 150


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _timing_line(name, values, unit):
    q1, q3 = _quartiles(values)
    med = statistics.median(values)
    return (f"{name} {med:.6g} {unit} (median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g},"
            f" spread {(q3 - q1) / med:.2%}, min {min(values):.6g}, max {max(values):.6g})")


def measure_setup(workload):
    """Set-up seconds reported by SETUP_REPS fresh interpreters."""
    args = [scenario_arg(e) for e in WORKLOADS[workload]["scenarios"]]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), *args]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_worker(*args):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, spec):
    lines = []
    setup = None if trace else measure_setup(workload)
    res = run_worker("--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace)
    passes = res["passes"]
    lines.append("environment " + json.dumps(res["environment"], sort_keys=True))
    lines.append(f"order {' '.join(ordered(workload, seed))}")
    if res["environment"]["blas_threads"] != res["reference_environment"]["blas_threads"]:
        lines.append("warning: BLAS thread count differs from the reference; CSV cells will differ")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    exit_mismatch = sum(p["exit_mismatch"] for p in passes)
    unreachable_mismatch = sum(p.get("unreachable_mismatch", 0) for p in passes)
    correct = failed == 0 and exit_mismatch == 0 and unreachable_mismatch == 0
    cells = max(p["cells_changed"] for p in passes)
    lines.append(f"check_fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} check"
                 f" records; {exit_mismatch} exit code(s) differ from the reference)")
    if trace:
        lines.append(f"metric.distance_field.unreachable differs from the reference in"
                     f" {unreachable_mismatch} traced pass(es)")
    lines.append(f"cli.csv_cells_changed {cells} count; report.json changed in"
                 f" {max(p['reports_changed'] for p in passes)} scenario(s) (runtime dropped)")

    plain = [p["wall_s"] for p in passes if not p["traced"]]
    lines.append("passes " + " ".join(f"{'T' if p['traced'] else 'U'}{p['wall_s']:.4f}" for p in passes))
    if not trace:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "check_pass_ratio": 1.0 - failed / attempted,
        }
        metrics_spec = spec["end_to_end"]
        lines.append(_timing_line("wall_s", plain, "s"))
        lines.append(_timing_line("setup_s", setup, "s"))
    else:
        traced = [p for p in passes if p["traced"]]
        names = [m["name"] for m in spec["per_layer"]]
        for p in traced:
            p["layers"]["cli.csv_cells_changed"] = p["cells_changed"]
            for scen, t in p["run_s"].items():
                p["layers"][f"cli.run_s.{scen}"] = t
        values = {n: statistics.median([p["layers"].get(n, 0) for p in traced]) for n in names}
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = statistics.median(plain)
        values["trace.overhead_s"] = traced_wall - statistics.median(plain)
        metrics_spec = spec["per_layer"]
        lines.append(_timing_line("trace.wall_s", [p["wall_s"] for p in traced], "s"))
        lines.append(_timing_line("trace.untraced_wall_s", plain, "s"))
    metrics = {}
    for m in metrics_spec:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="degenlab catalogue benchmark")
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference/ from one pass per workload")
    args = parser.parse_args(argv)
    if args.record_reference:
        os.makedirs(TMP_ROOT, exist_ok=True)
        try:
            for name in WORKLOADS:
                print(name, run_worker("--workload", name, "--record"))
        finally:
            shutil.rmtree(TMP_ROOT, ignore_errors=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    problem = checkout_problem()
    if problem:
        print(f"cannot run the benchmark here: {problem}", file=sys.stderr)
        return 2
    spec = _spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(TMP_ROOT, exist_ok=True)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
            for line in lines:
                print(f"[{name}] {line}" if len(names) > 1 else line, flush=True)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
