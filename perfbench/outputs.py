"""Snapshot of one scenario's outputs and its comparison with the reference.

The gate is each record's `status` and `fitted.verdict` (and the exit code).
CSV bytes are compared too, but only counted: they move at roundoff level
with the BLAS build and thread count, so a changed cell is not a failure.
`report.json` is compared without the per-record `runtime`, which holds wall
time.
"""

import csv
import hashlib
import json
import os


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def snapshot(out_dir, exit_code):
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    for rec in report["records"]:
        rec.pop("runtime", None)
    records = [
        {
            "name": rec["name"],
            "status": rec["status"],
            "verdict": (rec.get("fitted") or {}).get("verdict"),
        }
        for rec in report["records"]
    ]
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        rows = list(csv.reader(data.decode().splitlines()))
        tables[name] = {"sha256": _sha256(data), "rows": rows}
    canonical = json.dumps(report, sort_keys=True).encode()
    return {
        "exit_code": exit_code,
        "records": records,
        "report_sha256": _sha256(canonical),
        "csv": tables,
    }


def _cells(rows):
    return sum(len(r) for r in rows)


def cells_changed(ref_tables, tables):
    """CSV cells that differ from the reference (missing or extra cells count)."""
    changed = 0
    for name in set(ref_tables) | set(tables):
        ref, cur = ref_tables.get(name), tables.get(name)
        if ref is None or cur is None:
            changed += _cells((ref or cur)["rows"])
            continue
        if ref["sha256"] == cur["sha256"]:
            continue
        for i in range(max(len(ref["rows"]), len(cur["rows"]))):
            a = ref["rows"][i] if i < len(ref["rows"]) else []
            b = cur["rows"][i] if i < len(cur["rows"]) else []
            changed += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return changed


def compare(ref, snap):
    """Comparison of one scenario's snapshot (None when cli.run raised)."""
    attempted = len(ref["records"])
    if snap is None:
        return {"attempted": attempted, "failed": attempted, "exit_mismatch": 1,
                "cells_changed": 0, "reports_changed": 1}
    cur = snap["records"]
    failed = sum(
        i >= len(cur) or cur[i] != want for i, want in enumerate(ref["records"])
    )
    extra = max(len(cur) - attempted, 0)
    return {
        "attempted": attempted + extra,
        "failed": failed + extra,
        "exit_mismatch": int(snap["exit_code"] != ref["exit_code"]),
        "cells_changed": cells_changed(ref["csv"], snap["csv"]),
        "reports_changed": int(snap["report_sha256"] != ref["report_sha256"]),
    }
