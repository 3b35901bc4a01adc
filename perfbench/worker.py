"""Runs one workload's passes in this process and prints their results as JSON.

Started by run.py in the environment of `workloads.child_env()` (BLAS pinned,
no disk cache, degenlab imported from the checkout's `src/`).  Untraced
passes give the end-to-end numbers; with --trace, untraced and traced passes
alternate so that the tracing overhead is measured on the same process.

    python3 perfbench/worker.py --workload mesh-2d --seed 1 --seconds 60 --trace 0
    python3 perfbench/worker.py --workload mesh-2d --record   # write the reference
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from outputs import compare, snapshot
from spans import LAYERS, Tracer, pass_metrics
from workloads import REFERENCE_DIR, SRC, TMP_ROOT, WORKLOADS, environment, ordered, scenario_arg, scenario_name


UNREACHABLE = "metric.distance_field.unreachable"


def run_pass(cli, entries, threads):
    """One pass: each scenario through cli.run; returns timings and snapshots."""
    out = tempfile.mkdtemp(prefix="pass-", dir=TMP_ROOT)
    run_s, snaps = {}, {}
    try:
        for entry in entries:
            name = scenario_name(entry)
            out_dir = os.path.join(out, name)
            t0 = time.perf_counter()
            try:
                code = cli.run(scenario_arg(entry), out_dir=out_dir, threads=threads)
            except Exception:  # a scenario that raises is counted, the pass goes on
                traceback.print_exc(file=sys.stderr)
                code = None
            run_s[name] = time.perf_counter() - t0
            snaps[name] = None if code is None else snapshot(out_dir, code)
    finally:
        shutil.rmtree(out)
    return run_s, snaps


def judge(reference, snaps):
    """compare() summed over the scenarios of one pass."""
    total = {}
    for name, ref in reference["scenarios"].items():
        for key, n in compare(ref, snaps.get(name)).items():
            total[key] = total.get(key, 0) + n
    return total


def _import_degenlab():
    sys.path.insert(0, SRC)
    from degenlab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"degenlab was imported from {cli.__file__}, not from {SRC}")
    return cli


def traced_pass(tracer, cli, entries, threads):
    """run_pass with the layers wrapped; the spans stay in tracer."""
    tracer.reset()
    restore = tracer.install()
    try:
        return run_pass(cli, entries, threads)
    finally:
        restore()


def record(workload):
    """Write the reference outputs of one traced pass in the catalogue order."""
    cli = _import_degenlab()
    tracer = Tracer()
    _, snaps = traced_pass(tracer, cli, WORKLOADS[workload]["scenarios"], WORKLOADS[workload]["threads"])
    doc = {
        "workload": workload,
        "environment": environment(),
        "scenarios": snaps,
        "unreachable": tracer.counts.get(UNREACHABLE, 0),
    }
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({name: s["exit_code"] for name, s in snaps.items()}))


def measure(workload, seed, seconds, trace):
    cli = _import_degenlab()
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        reference = json.load(fh)
    entries = ordered(workload, seed)
    threads = WORKLOADS[workload]["threads"]
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            run_s, snaps = traced_pass(tracer, cli, entries, threads)
        else:
            run_s, snaps = run_pass(cli, entries, threads)
        took = time.perf_counter() - t0
        result = {"traced": traced, "wall_s": sum(run_s.values()), "run_s": run_s}
        result.update(judge(reference, snaps))
        if traced:
            layers = result["layers"] = pass_metrics(tracer.spans, tracer.counts)
            layers["trace.self_share"] = sum(layers[f"{x}.self_s"] for x in LAYERS) / result["wall_s"]
            # +inf distances mark exact cuts; their number is part of the output
            result["unreachable_mismatch"] = int(layers.get(UNREACHABLE, 0) != reference["unreachable"])
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + took > seconds:
            break
    return {
        "environment": environment(),
        "reference_environment": reference["environment"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write the reference outputs")
    args = parser.parse_args(argv)
    os.makedirs(TMP_ROOT, exist_ok=True)
    if args.record:
        record(args.workload)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
