"""Scenario runner: load a scenario JSON, execute its checks, emit artifacts.

Outputs per run: report.json (statuses, margins, fits), report.md (rendered
from the same formatted values as the CSVs), one CSV per check record, and
run_meta.json (timing; the only file allowed to differ between identical
runs).  Exit codes: 0 all checks hold, 2 at least one Violated, 3 none
Violated but at least one Inconclusive, 1 error.
"""

import argparse
import json
import os
import sys
import time

from .diagnose import DiagnosticsReport, Status
from .errors import SchemaError
from .scenarios import ScenarioContext, builtin_by_name, builtin_scenarios, run_checks, validate_scenario
from .svgplot import write_line_svg


def _fmt(v):
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _table_columns(table):
    cols = []
    for row in table:
        for k in row:
            if k not in cols:
                cols.append(k)
    return cols


def _write_csv(path, table):
    cols = _table_columns(table)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
    return cols


def _apply_override(doc, key, raw):
    """Dotted-path override; numeric list indices supported.  A path that
    does not lead to a list entry or an object field raises SchemaError."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = doc
    try:
        for p in parts[:-1]:
            node = node[int(p)] if isinstance(node, list) else node.setdefault(p, {})
        last = parts[-1]
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"override '{key}': no such path in the scenario ({exc})") from None


def run(scenario_path, out_dir=None, threads=1, overrides=(), plots=False):
    """Execute one scenario file (or builtin name); returns the exit code.
    The argument names a file only when a regular file has that path, so a
    directory named after a builtin (an earlier --out) does not hide it."""
    if os.path.isfile(scenario_path):
        with open(scenario_path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"malformed scenario JSON at line {exc.lineno}: {exc.msg}")
        base_dir = os.path.dirname(os.path.abspath(scenario_path))
    else:
        doc = builtin_by_name(scenario_path)
        base_dir = os.getcwd()
    for ov in overrides:
        if "=" not in ov:
            raise SchemaError(f"override '{ov}' is not key=value")
        key, raw = ov.split("=", 1)
        _apply_override(doc, key, raw)
    validate_scenario(doc)

    t0 = time.perf_counter()
    ctx = ScenarioContext(doc, base_dir=base_dir)
    records = run_checks(ctx, threads=threads)
    wall = time.perf_counter() - t0

    report = DiagnosticsReport(
        scenario=doc["name"],
        environment={
            "mesh": doc["mesh"],
            "epsilons": ctx.epsilons,
            "t_small": doc.get("t_small"),
            "t_large": doc.get("t_large"),
            "seed": ctx.seed,
        },
        records=records,
    )

    out = out_dir or doc.get("out_dir") or os.path.join(
        os.getcwd(), f"degenlab-out-{doc['name']}"
    )
    os.makedirs(out, exist_ok=True)

    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    md = [f"# scenario: {doc['name']}", ""]
    if doc.get("claim"):
        md.append(doc["claim"])
        md.append("")
    md.append("## checks")
    md.append("")
    csv_names = []
    for i, rec in enumerate(records):
        csv_name = f"{i:02d}_{rec.name}.csv"
        csv_names.append(csv_name)
        md.append(f"- `{rec.name}` [{csv_name}]: **{rec.status.value}**")
    md.append("")
    for i, rec in enumerate(records):
        if not rec.table:
            continue
        md.append(f"## {rec.name} ({csv_names[i]})")
        md.append("")
        md.append(f"claim: {rec.anchor}")
        md.append("")
        cols = _write_csv(os.path.join(out, csv_names[i]), rec.table)
        md.append("| " + " | ".join(cols) + " |")
        md.append("|" + "---|" * len(cols))
        for row in rec.table:
            md.append("| " + " | ".join(_fmt(row.get(c, "")) for c in cols) + " |")
        md.append("")
        if plots:
            svg_name = csv_names[i].replace(".csv", ".svg")
            _maybe_plot(os.path.join(out, svg_name), rec)
    with open(os.path.join(out, "report.md"), "w") as fh:
        fh.write("\n".join(md) + "\n")

    with open(os.path.join(out, "run_meta.json"), "w") as fh:
        json.dump(
            {
                "wall_time_s": wall,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "runtimes": {f"{i:02d}_{r.name}": r.runtime for i, r in enumerate(records)},
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    return {Status.VIOLATED: 2, Status.INCONCLUSIVE: 3}.get(report.worst_status, 0)


def _maybe_plot(path, rec):
    table = rec.table
    if not table or "t" not in table[0]:
        return
    series = [k for k in table[0] if k != "t" and isinstance(table[0][k], float)]
    if not series:
        return
    key = series[0]
    xs = [row["t"] for row in table if isinstance(row.get(key), float)]
    ys = [row[key] for row in table if isinstance(row.get(key), float)]
    positive = all(v > 0 for v in xs) and all(v > 0 for v in ys)
    write_line_svg(path, xs, ys, xlabel="t", ylabel=key, logx=positive, logy=positive,
                   title=rec.name)


def list_scenarios(fmt="text", stream=None):
    stream = stream or sys.stdout
    docs = builtin_scenarios()
    if fmt == "json":
        json.dump(docs, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return 0
    for doc in docs:
        stream.write(f"{doc['name']}\n")
        stream.write(f"    claim: {doc['claim']}\n")
        stream.write(f"    checks: {', '.join(c['check'] for c in doc['checks'])}\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="degenlab",
        description="numerical laboratory for degenerate divergence-form diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or builtin name")
    p_run.add_argument("scenario", help="path to scenario JSON, or a builtin name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=1, help="parallel checks")
    p_run.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path scenario override, e.g. mesh.n=1024",
    )
    p_run.add_argument("--plots", action="store_true", help="emit SVG line plots")

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    args = parser.parse_args(argv)
    if args.command == "list":
        return list_scenarios(args.format)
    try:
        return run(
            args.scenario,
            out_dir=args.out,
            threads=args.threads,
            overrides=args.override,
            plots=args.plots,
        )
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
