import json
import re
from pathlib import Path

import pytest

from degenlab import cli, diagnose, scenarios, viscosity_shift
from degenlab.errors import SchemaError
from degenlab.scenarios import (
    ScenarioContext,
    builtin_by_name,
    builtin_scenarios,
    validate_scenario,
)


@pytest.fixture()
def small_scenario(tmp_path):
    """Trimmed copy of the delta = 0.25 builtin: fast enough for CLI tests."""
    doc = builtin_by_name("degenerate1d-d025")
    doc["mesh"]["n"] = 512
    doc["t_small"] = [0.05, 0.2]
    doc["checks"] = [
        {"check": "structure"},
        {"check": "conservation", "params": {"t_grid": "small"}},
        {"check": "classify", "params": {"expect": "ClosableDegenerate"}},
        {
            "check": "separation_probe",
            "params": {
                "box": [-2.0, 2.0],
                "t": 1.0,
                "h_list": [2.0**-k for k in range(6, 10)],
                "epsilons": [0.0],
                "cut_interval": [-0.5, 0.5],
            },
        },
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_builtin_by_name_with_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = cli.run(
            "degenerate1d-d025",
            out_dir=str(out),
            overrides=[
                "mesh.n=512",
                't_small=[0.05,0.2]',
                'checks=[{"check":"structure"},{"check":"conservation"}]',
            ],
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert (out / "run_meta.json").exists()

    def test_scenario_file(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        code = cli.run(str(small_scenario), out_dir=str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        names = [r["name"] for r in report["records"]]
        assert names == ["structure", "conservation", "classify", "separation_probe"]
        assert all(r["anchor"] for r in report["records"])

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad)]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_unknown_check_named_in_error(self, tmp_path, capsys):
        doc = builtin_by_name("degenerate1d-d025")
        doc["checks"] = [{"check": "foo"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "foo" in err and "checks[0]" in err

    def test_missing_field_named(self):
        with pytest.raises(SchemaError, match="mesh"):
            validate_scenario({"name": "x", "profile": {}, "checks": []})

    def test_deterministic_csv_bodies(self, small_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run(str(small_scenario), out_dir=str(out1))
        cli.run(str(small_scenario), out_dir=str(out2))
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        for a, b in zip(r1["records"], r2["records"]):
            assert a["status"] == b["status"]
            assert a["margin"] == b["margin"]

    def test_md_numbers_backed_by_csv(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        cli.run(str(small_scenario), out_dir=str(out))
        md = (out / "report.md").read_text()
        csv_text = "".join(p.read_text() for p in out.glob("*.csv"))
        # every numeric token in a markdown table row must appear in a CSV
        for line in md.splitlines():
            if not line.startswith("|") or set(line) <= {"|", "-", " "}:
                continue
            for cell in line.strip("|").split("|"):
                cell = cell.strip()
                if re.fullmatch(r"-?\d+\.?\d*(e-?\d+)?", cell):
                    assert cell in csv_text, f"{cell} not found in any CSV"

    def test_svg_plots(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        cli.run(str(small_scenario), out_dir=str(out), plots=True)
        assert list(out.glob("*.svg"))

    def test_threads_agree_with_serial(self, small_scenario, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "t"
        cli.run(str(small_scenario), out_dir=str(out1), threads=1)
        cli.run(str(small_scenario), out_dir=str(out2), threads=4)
        for name in sorted(p.name for p in out1.glob("*.csv")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_violated_check_exits_2(self, tmp_path):
        # the Laplacian has no invariant half-line: invariance must Violate
        doc = builtin_by_name("degenerate1d-d025")
        doc["mesh"]["n"] = 256
        doc["checks"] = [
            {
                "check": "invariance",
                "params": {
                    "omega": {"kind": "halfline", "x": 0.0, "side": "left"},
                    "t": 0.5,
                    "tol": 1e-10,
                },
            }
        ]
        path = tmp_path / "violating.json"
        path.write_text(json.dumps(doc))
        assert cli.run(str(path), out_dir=str(tmp_path / "out")) == 2

    def test_inconclusive_check_exits_3(self, tmp_path):
        # every time lies below the resolved window 10 h^2 ||C||: no fit
        doc = builtin_by_name("degenerate1d-d025")
        doc["mesh"]["n"] = 256
        doc["checks"] = [
            {"check": "structure"},
            {"check": "smalltime_decay", "params": {"gamma": 1.0, "t_grid": [1e-4, 2e-4, 4e-4]}},
        ]
        path = tmp_path / "inconclusive.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 3
        report = json.loads((out / "report.json").read_text())
        statuses = {r["name"]: r["status"] for r in report["records"]}
        assert statuses == {"structure": "Holds", "smalltime_decay": "Inconclusive"}


class TestCheckParams:
    """A check's parameters are the keyword-only parameters of its glue."""

    def test_misspelled_override_exits_1(self, tmp_path, capsys):
        argv = ["run", "laplacian1d", "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", "checks.1.params.t_gird=[0.5]"]) == 1
        err = capsys.readouterr().err
        assert "checks[1]" in err and "t_gird" in err
        assert not (tmp_path / "out").exists()

    def test_missing_param_fails_before_any_check(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        # wrappers over CHECKS entries do not hide the glue signatures
        for name in ("structure", "invariance"):
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        doc = builtin_by_name("degenerate1d-d025")
        doc["checks"] = [{"check": "structure"}, {"check": "invariance", "params": {"t": 1.0}}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"checks\[1\].*'omega'"):
            cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert calls == []

    @pytest.mark.parametrize("params", [[1.0], "small", None, {"ctx": 1}, {"seed": 1}])
    def test_bad_params_object(self, params):
        doc = builtin_by_name("degenerate1d-d025")
        doc["checks"] = [{"check": "conservation", "params": params}]
        with pytest.raises(SchemaError, match=r"checks\[0\]\.params"):
            validate_scenario(doc)

    def test_wrong_type_exits_1_without_traceback(self, tmp_path, capsys):
        doc = builtin_by_name("degenerate1d-d025")
        doc["mesh"]["n"] = 64
        omega = {"kind": "halfline", "x": 0.0, "side": "left"}
        doc["checks"] = [{"check": "invariance", "params": {"omega": omega, "t": [1]}}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_benchmark_scenario_validates(self):
        path = Path(__file__).parents[1] / "perfbench" / "scenarios"
        validate_scenario(json.loads((path / "radial-shell-2d-metric.json").read_text()))

    def test_wave_speed_epsilon_matches_shifted_profile(self):
        doc = builtin_by_name("degenerate1d-d05")
        doc["mesh"]["n"] = 256
        ctx = ScenarioContext(doc)
        support, t_list, eps = [-0.3, 0.3], [0.5, 1.0], 0.01
        rec = scenarios.CHECKS["wave_speed"](
            ctx, 0, support=support, t_list=t_list, epsilon=eps
        )
        shifted = diagnose.wave_speed_check(
            ctx.operator(eps), viscosity_shift(ctx.profile, eps), ctx.mesh, support, t_list
        )
        assert rec.to_json() == shifted.to_json()
        assert rec.table[-1]["max_distance"] > 0


class TestListScenarios:
    def test_catalogue_size_and_claims(self, capsys):
        assert cli.main(["list"]) == 0
        text = capsys.readouterr().out
        docs = builtin_scenarios()
        assert len(docs) >= 8
        for doc in docs:
            assert doc["name"] in text
            assert doc["claim"]
        for required in (
            "laplacian1d",
            "degenerate1d-d025",
            "degenerate1d-d05",
            "degenerate1d-d075-cut",
            "double-zero",
            "radial-shell-2d",
            "surface-2d",
            "resolvent-volume",
        ):
            assert required in text

    def test_double_zero_names_its_claim(self):
        doc = builtin_by_name("double-zero")
        assert "K_t" in doc["claim"] and "(x2 - x1)" in doc["claim"]

    def test_json_format_roundtrips_schema(self, capsys):
        assert cli.main(["list", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        for doc in docs:
            validate_scenario(doc)

    def test_every_builtin_validates(self):
        for doc in builtin_scenarios():
            validate_scenario(doc)
