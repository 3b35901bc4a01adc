"""Self-test of the reference comparison: verdicts gate, CSV cells only count.

    python3 -m pytest perfbench/test_outputs.py
"""

import copy

from outputs import compare


def _snapshot():
    return {
        "exit_code": 0,
        "records": [
            {"name": "structure", "status": "Holds", "verdict": None},
            {"name": "classify", "status": "Holds", "verdict": "Separating"},
        ],
        "report_sha256": "r",
        "csv": {"00_structure.csv": {"sha256": "a", "rows": [["k", "v"], ["x", "1"]]}},
    }


def test_identical_outputs_pass():
    ref = _snapshot()
    assert compare(ref, copy.deepcopy(ref)) == {
        "attempted": 2, "failed": 0, "exit_mismatch": 0, "cells_changed": 0, "reports_changed": 0,
    }


def test_changed_cells_count_but_do_not_fail():
    ref, cur = _snapshot(), _snapshot()
    cur["csv"]["00_structure.csv"] = {"sha256": "b", "rows": [["k", "v"], ["x", "2"]]}
    cur["csv"]["01_classify.csv"] = {"sha256": "c", "rows": [["zero"], ["0"]]}
    cur["report_sha256"] = "s"
    res = compare(ref, cur)
    assert res["failed"] == 0
    assert res["cells_changed"] == 1 + 2
    assert res["reports_changed"] == 1


def test_changed_verdict_missing_record_and_raise_fail():
    ref, cur = _snapshot(), _snapshot()
    cur["records"][1]["verdict"] = "NonSeparating"
    assert compare(ref, cur)["failed"] == 1
    del cur["records"][1]
    assert compare(ref, cur)["failed"] == 1
    cur = _snapshot()
    cur["exit_code"] = 2
    cur["records"][0]["status"] = "Violated"
    res = compare(ref, cur)
    assert (res["failed"], res["exit_mismatch"]) == (1, 1)
    assert compare(ref, None)["failed"] == 2
