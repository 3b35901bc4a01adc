import json
import re

import numpy as np
import pytest

from degenlab import CoefficientProfile, cli, diagnose, scenarios
from degenlab.errors import SchemaError
from degenlab.metric import metric_graph
from degenlab.scenarios import (
    ScenarioContext,
    builtin_by_name,
    builtin_scenarios,
    validate_scenario,
)

from conftest import bench_scenario


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

    def test_builtin_beside_a_directory_of_its_name(self, tmp_path, monkeypatch):
        # a directory named after the builtin, such as an earlier --out, is
        # not read as the scenario file
        args = ["run", "laplacian1d", "--override", "mesh.n=256", "--out"]
        plain, beside = tmp_path / "plain", tmp_path / "beside"
        for where in (plain, beside):
            where.mkdir()
        (beside / "laplacian1d").mkdir()
        codes = []
        for where in (plain, beside):
            monkeypatch.chdir(where)
            codes.append(cli.main(args + [str(where / "out")]))
        assert codes[0] in (0, 2, 3) and codes[1] == codes[0]
        reports = [(where / "out" / "report.json").read_text() for where in (plain, beside)]
        assert reports[1] == reports[0]

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

    @pytest.mark.parametrize("where", [{"bump": [3.0, 3.5]}, {"cut": 2.0}])
    def test_empty_probe_set_exit_1(self, small_scenario, where, tmp_path, capsys):
        # a bump outside the box selects no node when the probe runs; a cut
        # at the box's end, with no node past it, fails validation
        doc = json.loads(small_scenario.read_text())
        probe = doc["checks"][-1]
        probe["params"].update(where, h_list=[2.0**-6, 2.0**-7])
        doc["checks"] = [probe]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        if "cut" in where:
            assert "schema error: checks[0].params.cut (separation_probe): the cut 2.0" in err
        else:
            assert "selects no mesh node" in err

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
        # validation does not read tol; `worst < tol` raises TypeError in compute
        doc["checks"] = [{"check": "invariance", "params": {"omega": omega, "tol": [1]}}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "override", ["checks.99.params.t=1", "mesh.n.x=1", "checks.x.params=1"]
    )
    def test_bad_override_path_is_one_line(self, override, tmp_path, capsys):
        argv = ["run", "laplacian1d", "--out", str(tmp_path / "out"), "--override", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        key = override.split("=")[0]
        assert err.startswith("schema error: ") and f"'{key}'" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_benchmark_scenario_validates(self):
        ScenarioContext(validate_scenario(bench_scenario()))

    def test_wave_speed_epsilon_matches_shifted_profile(self):
        doc = builtin_by_name("degenerate1d-d05")
        doc["mesh"]["n"] = 256
        ctx = ScenarioContext(doc)
        support, t_list, eps = [-0.3, 0.3], [0.5, 1.0], 0.01
        rec = scenarios.CHECKS["wave_speed"](
            ctx, 0, support=support, t_list=t_list, epsilon=eps
        )
        p = ctx.profile
        profile = CoefficientProfile(p.dimension, p.family, p.domain, epsilon=p.epsilon + eps)
        graph = metric_graph(profile, ctx.mesh)
        shifted = diagnose.wave_speed_check(ctx.operator(eps), graph, support, t_list)
        assert rec.to_json() == shifted.to_json()
        assert rec.table[-1]["max_distance"] > 0


class TestScenarioDocuments:
    """A scenario document, its mesh and each check entry bind against
    keyword-only schemas, and a named time grid must exist: each failure
    names its fields before any check runs."""

    def edited(self, edit):
        doc = builtin_by_name("degenerate1d-d025")
        edit(doc)
        return doc

    def misspell_top_level_and_mesh(doc):
        doc["epsilon"] = doc["epsilons"]
        doc["t_larg"] = [1.0]
        doc["mesh"]["nn"] = doc["mesh"]["n"]

    def misspell_params(doc):
        doc["checks"] = [{"check": "structure"}, {"check": "conservation", "parms": {"tol": 1e-30}}]

    def name_a_missing_grid(doc):
        doc.pop("t_large", None)
        doc["checks"] = [{"check": "structure"}, {"check": "conservation", "params": {"t_grid": "large"}}]

    def mesh_not_an_object(doc):
        doc["mesh"] = [1, [-4.0, 4.0], 64]

    @pytest.mark.parametrize(
        "edit, match",
        [
            (misspell_top_level_and_mesh,
             r"scenario: unknown field\(s\) 'epsilon', 't_larg'; mesh: unknown field\(s\) 'nn'"),
            (misspell_params, r"checks\[1\]: unknown field\(s\) 'parms'"),
            (name_a_missing_grid,
             r"checks\[1\]\.params\.t_grid \(conservation\): scenario has no time grid 'large'"),
            (mesh_not_an_object, r"mesh is an object"),
        ],
        ids=["top-level-and-mesh", "check-entry", "named-grid", "mesh-type"],
    )
    def test_bad_document_fails_before_any_check(self, edit, match, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.edited(edit)))
        with pytest.raises(SchemaError, match=match):
            cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_misspelled_check_entry_exits_1(self, tmp_path, capsys):
        argv = ["run", "laplacian1d", "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", "checks.1.parms={}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and "checks[1]" in err and "'parms'" in err
        assert not (tmp_path / "out").exists()


class TestRegionSpecs:
    """A region spec's fields are the keyword-only parameters of its kind's
    resolver: unknown, missing or invalid fields fail validation."""

    def doc_with(self, check):
        doc = builtin_by_name("degenerate1d-d075-cut")
        doc["checks"] = [{"check": "structure"}, check]
        return doc

    @pytest.mark.parametrize(
        "check, match",
        [
            (
                {"check": "invariance",
                 "params": {"omega": {"kind": "halfline", "x": 0.0, "sid": "right"}}},
                r"checks\[1\]\.params\.omega \(invariance\): halfline: .*'side'",
            ),
            (
                {"check": "invariance", "params": {"omega": {"kind": "halfline", "x": 0.0}}},
                r"checks\[1\]\.params\.omega \(invariance\): halfline: .*'side'",
            ),
            (
                {"check": "form_additivity",
                 "params": {"omega": {"kind": "halfline", "x": 0.0, "side": "up"}}},
                r"checks\[1\]\.params\.omega \(form_additivity\): .*'up'",
            ),
            (
                {"check": "kernel_cut",
                 "params": {"source": [-1.0],
                            "across": {"kind": "interval", "low": -1.0, "hi": 1.0}}},
                r"checks\[1\]\.params\.across \(kernel_cut\): interval: .*'lo'",
            ),
            (
                {"check": "offdiagonal_gaussian",
                 "params": {"balls": [{"center": [-1.0], "radius": 0.4},
                                      {"center": [1.0], "r": 0.4}]}},
                r"checks\[1\]\.params\.balls\[1\] \(offdiagonal_gaussian\): .*'radius'",
            ),
            (
                {"check": "wave_speed",
                 "params": {"support": [-0.2, 0.2], "t_list": [0.5], "cut": {"kind": "halfplane"}}},
                r"checks\[1\]\.params\.cut \(wave_speed\): unknown region kind 'halfplane'",
            ),
            (
                # a required region may not be null; only a default of None is skipped
                {"check": "invariance", "params": {"omega": None}},
                r"checks\[1\]\.params\.omega \(invariance\): a region spec is an object",
            ),
        ],
        ids=[
            "misspelled-side", "missing-side", "bad-side", "missing-lo", "missing-radius",
            "unknown-kind", "null-omega",
        ],
    )
    def test_bad_region_fails_before_any_check(self, check, match, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.doc_with(check)))
        with pytest.raises(SchemaError, match=match):
            cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"omega": {"kind": "halfline", "x": 0.0, "sid": "right"}}, ["'sid'", "'side'"]),
            ({"balls": [{"center": [-1.0], "radius": 0.4}, {"center": [1.0], "r": 0.4}]},
             ["'r'", "'radius'"]),
            ({"omeg": {"kind": "halfline", "x": 0.0, "side": "right"}, "tt": 1.0},
             ["'omeg'", "'tt'", "'omega'"]),
        ],
        ids=["region-field", "ball-field", "check-parameter"],
    )
    def test_misspelled_required_key_is_named(self, params, named):
        # a misspelled required key is reported as unknown, next to the
        # missing key it was meant to be
        doc = self.doc_with({})
        check = "offdiagonal_gaussian" if "balls" in params else "invariance"
        doc["checks"][1] = {"check": check, "params": params}
        with pytest.raises(SchemaError) as err:
            validate_scenario(doc)
        assert "unknown field(s)" in str(err.value)
        assert all(key in str(err.value) for key in named), str(err.value)

    def test_omega_mask_has_no_silent_defaults(self):
        doc = builtin_by_name("radial-shell-2d")
        doc["mesh"]["n"] = 16
        ctx = ScenarioContext(doc)
        with pytest.raises(SchemaError, match="'side'"):
            ctx.omega_mask({"kind": "halfline", "x": 0.0})
        with pytest.raises(SchemaError, match="'center'"):
            ctx.omega_mask({"kind": "euclidean_ball", "radius": 1.0})
        ball = ctx.omega_mask({"kind": "euclidean_ball", "center": [0.0, 0.0], "radius": 1.0})
        pts = ctx.mesh.points()
        assert np.array_equal(ball, np.linalg.norm(pts, axis=1) < 1.0)
        right = ctx.omega_mask({"kind": "halfline", "x": 0.0, "side": "right"})
        assert np.array_equal(right, pts[:, 0] > 0.0)


class TestPointSpecs:
    """A point (a ball's center, kernel_cut's source, an origin, each of
    ondiagonal_lower's centers) has one coordinate per mesh axis, a bare
    number being one; the probe's bump and cut_interval are 1D boxes.  Each
    fails validation otherwise, before any check runs."""

    BALL = {"kind": "euclidean_ball", "radius": 0.5}

    @pytest.mark.parametrize(
        "builtin, check, field",
        [
            ("radial-shell-2d",
             {"check": "invariance", "params": {"omega": dict(BALL, center=[0.5])}}, "omega"),
            ("radial-shell-2d",
             {"check": "offdiagonal_gaussian",
              "params": {"balls": [{"center": [0.0, 0.0], "radius": 0.5},
                                   {"center": 0.5, "radius": 0.5}]}},
             r"balls\[1\]"),
            ("radial-shell-2d",
             {"check": "kernel_cut",
              "params": {"source": [0.5], "across": {"kind": "halfline", "x": 0.0, "side": "right"}}},
             "source"),
            ("radial-shell-2d",
             {"check": "resolvent_volume", "params": {"origin": [0.0], "r_grid": [0.1, 0.2, 0.4]}},
             "origin"),
            ("radial-shell-2d",
             {"check": "ondiagonal_lower",
              "params": {"diameter": 0.5, "centers": [[0.0, 0.0], [0.5]]}},
             r"centers\[1\]"),
            ("degenerate1d-d075-cut",
             {"check": "invariance", "params": {"omega": dict(BALL, center=[0.0, 1.0])}}, "omega"),
            ("degenerate1d-d075-cut",
             {"check": "kernel_cut",
              "params": {"source": [-1.0, 0.0],
                         "across": {"kind": "halfline", "x": 0.0, "side": "right"}}},
             "source"),
            ("degenerate1d-d075-cut",
             {"check": "kernel_cut",
              "params": {"source": "left",
                         "across": {"kind": "halfline", "x": 0.0, "side": "right"}}},
             "source"),
            ("degenerate1d-d075-cut",
             {"check": "ondiagonal_lower", "params": {"diameter": 0.5, "centers": [-1.0, [0.0, 1.0]]}},
             r"centers\[1\]"),
            ("degenerate1d-d075-cut",
             {"check": "resolvent_volume", "params": {"origin": [0.0, 1.0], "r_grid": [0.1, 0.2, 0.4]}},
             "origin"),
            ("degenerate1d-d075-cut",
             {"check": "holder", "params": {"range": [1e-3, 1e-1], "origin": [0.0, 0.0]}}, "origin"),
            ("degenerate1d-d075-cut",
             {"check": "separation_probe",
              "params": {"h_list": [2.0**-6, 2.0**-7], "bump": [-1.0, -2.0]}},
             "bump"),
            ("degenerate1d-d075-cut",
             {"check": "separation_probe",
              "params": {"h_list": [2.0**-6, 2.0**-7], "cut_interval": [0.5]}},
             "cut_interval"),
        ],
        ids=[
            "2d-region-center", "2d-ball-center", "2d-source", "2d-origin", "2d-center",
            "1d-region-center", "1d-source", "1d-source-not-a-number", "1d-center", "1d-origin",
            "1d-holder-origin", "1d-bump", "1d-cut-interval",
        ],
    )
    def test_bad_point_fails_before_any_check(self, builtin, check, field, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        doc = builtin_by_name(builtin)
        doc["checks"] = [{"check": "structure"}, check]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        name = check["check"]
        assert re.match(rf"schema error: checks\[1\]\.params\.{field} \({name}\): a (point|box) ", err)
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_either_form_of_a_1d_point_gives_the_same_records(self, tmp_path):
        # a bare number and a one-entry list are the same point, and a 1D box
        # bare or as [[lo, hi]] the same box
        doc = builtin_by_name("degenerate1d-d075-cut")
        doc["mesh"]["n"] = 255
        across = {"kind": "halfline", "x": 0.0, "side": "right"}
        probe = {"h_list": [2.0**-6, 2.0**-7], "box": [-2.0, 2.0]}
        forms = [
            ([-1.0], [-1.0, 1.0], [0.0], [-1.5, -0.5], [-0.5, 0.5]),
            (-1.0, [[-1.0], [1.0]], 0.0, [[-1.5, -0.5]], [[-0.5, 0.5]]),
        ]
        reports = []
        for k, (source, centers, origin, bump, cut_interval) in enumerate(forms):
            doc["checks"] = [
                {"check": "kernel_cut", "params": {"source": source, "across": across}},
                {"check": "ondiagonal_lower", "params": {"diameter": 0.5, "centers": centers}},
                {"check": "holder", "params": {"range": [1e-3, 1e-1], "origin": origin}},
                {"check": "separation_probe",
                 "params": dict(probe, bump=bump, cut_interval=cut_interval)},
            ]
            path = tmp_path / f"s{k}.json"
            path.write_text(json.dumps(doc))
            cli.run(str(path), out_dir=str(tmp_path / f"out{k}"))
            reports.append((tmp_path / f"out{k}" / "report.json").read_text())
        assert reports[1] == reports[0]


class TestListParams:
    """A list parameter needs LEAST_ITEMS entries (a string is not a list), a
    1D check a 1D mesh, and the probe has no epsilon list; every time and
    radius is finite and > 0, and the probe's spacings, the smalltime window,
    the resolvent's m and a separated floor have their rules too.  Each fails
    validation, before any check runs, naming the field."""

    def empty_small_grid(doc):
        doc["t_small"] = []
        doc["checks"][1] = {"check": "conservation", "params": {"t_grid": "small"}}

    def small_grid_from_zero(doc):
        doc["t_small"] = [0.0, 0.5, 1.0]
        doc["checks"][1] = {"check": "offdiagonal_gaussian",
                            "params": {"balls": [TestListParams.ball] * 2}}

    def set_check(check):
        def edit(doc):
            doc["checks"][1] = check
        return edit

    ball = {"center": [-1.0], "radius": 0.4}
    omega = {"kind": "halfline", "x": 0.0, "side": "left"}

    @pytest.mark.parametrize(
        "scenario, edit, match",
        [
            ("degenerate1d-d075-cut",
             set_check({"check": "conservation", "params": {"t_grid": []}}),
             r"checks\[1\]\.params\.t_grid \(conservation\): needs a list of at least 1 "),
            ("degenerate1d-d075-cut", empty_small_grid,
             r"checks\[1\]\.params\.t_grid \(conservation\): .* 'small' = \[\]"),
            ("degenerate1d-d075-cut",
             set_check({"check": "wave_speed", "params": {"support": [-1.5, -0.75], "t_list": []}}),
             r"checks\[1\]\.params\.t_list \(wave_speed\): needs a list of at least 1 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "offdiagonal_gaussian", "params": {"balls": [ball]}}),
             r"checks\[1\]\.params\.balls \(offdiagonal_gaussian\): needs a list of at least 2 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "offdiagonal_gaussian",
                        "params": {"balls": [ball, ball], "t_grid": []}}),
             r"checks\[1\]\.params\.t_grid \(offdiagonal_gaussian\): needs a list of at least 1 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "euclidean_offdiagonal", "params": {"boxes": [[-3.0, -1.0]]}}),
             r"checks\[1\]\.params\.boxes \(euclidean_offdiagonal\): needs a list of at least 2 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "invariance_refinement",
                        "params": {"omega": omega, "n_list": [64]}}),
             r"checks\[1\]\.params\.n_list \(invariance_refinement\): needs a list of at least 2 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "invariance_refinement",
                        "params": {"omega": omega, "n_list": []}}),
             r"checks\[1\]\.params\.n_list \(invariance_refinement\): needs a list of at least 2 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "largetime_floor", "params": {"mode": "elliptic", "t_grid": []}}),
             r"checks\[1\]\.params\.t_grid \(largetime_floor\): needs a list of at least 1 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "ondiagonal_lower", "params": {"diameter": 0.5, "centers": []}}),
             r"checks\[1\]\.params\.centers \(ondiagonal_lower\): needs a list of at least 1 "),
            ("degenerate1d-d075-cut",
             set_check({"check": "smalltime_decay", "params": {"gamma": 0.25, "t_grid": []}}),
             r"checks\[1\]\.params\.t_grid \(smalltime_decay\): needs a list of at least 1 "),
            ("radial-shell-2d",
             set_check({"check": "separation_probe", "params": {"h_list": [2.0**-6, 2.0**-7]}}),
             r"checks\[1\] \(separation_probe\): a 1D check, on a 2D mesh"),
            ("radial-shell-2d",
             set_check({"check": "holder", "params": {"range": [1e-3, 1e-1]}}),
             r"checks\[1\] \(holder\): a 1D check, on a 2D mesh"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [2.0**-6, 2.0**-7], "epsilons": [0.0, 1e-2]}}),
             r"checks\[1\]\.params: unknown field\(s\) 'epsilons'"),
            # 13 cells on [-2, 2] put the cut 0 between two nodes
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [0.25, 4.0 / 13], "box": [-2.0, 2.0]}}),
             r"checks\[1\]\.params\.h_list\[1\] \(separation_probe\): h = 0\.307692307692\d*"
             r" puts the cut 0\.0 6\.5 cells from the probe box's low end -2\.0"),
            # without a box the probe takes the mesh's, [-4, 4]: 25 cells
            # there, 12 on [-2, 2]
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.32, 0.25]}}),
             r"checks\[1\]\.params\.h_list\[0\] \(separation_probe\): h = 0\.32 puts the cut"
             r" 0\.0 12\.5 cells from the probe box's low end -4\.0"),
            # 0.33 does not divide the box: 12.12 cells, not the 12 of 1/3
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [0.25, 0.33], "box": [-2.0, 2.0]}}),
             r"checks\[1\]\.params\.h_list\[1\] \(separation_probe\): h = 0\.33 puts 12\.1212"
             r" cells on the probe box \[-2\.0, 2\.0\], not a whole number"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [2.0**-6, 2.0**-7], "box": [-2.0, 2.0], "cut": 0.3}}),
             r"checks\[1\]\.params\.h_list\[0\] \(separation_probe\): h = 0\.015625 puts the cut"
             r" 0\.3 147\.2 cells from the probe box's low end -2\.0"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.25, "x"]}}),
             r"checks\[1\]\.params\.h_list\[1\] \(separation_probe\): could not convert"
             r" string to float: 'x'"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.0, 0.25]}}),
             r"checks\[1\]\.params\.h_list\[0\] \(separation_probe\): a spacing is a positive"
             r" number, not 0\.0"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.25, 2.0]}}),
             r"checks\[1\]\.params\.h_list\[1\] \(separation_probe\): n must be >= 8"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [0.25, 0.125], "cut": "x"}}),
             r"checks\[1\]\.params\.cut \(separation_probe\): could not convert string to"
             r" float: 'x'"),
            # a string is not a list, though it has entries to count
            ("resolvent-volume",
             set_check({"check": "resolvent_volume", "params": {"origin": [0.0], "r_grid": "123"}}),
             r"checks\[1\]\.params\.r_grid \(resolvent_volume\): needs a list of at least 3"
             r" entries, not '123'"),
            ("resolvent-volume",
             set_check({"check": "resolvent_volume",
                        "params": {"origin": [0.0], "r_grid": [0.5, 1.0]}}),
             r"checks\[1\]\.params\.r_grid \(resolvent_volume\): needs a list of at least 3 "),
            ("degenerate1d-d025",
             set_check({"check": "holder", "params": {"range": "13"}}),
             r"checks\[1\]\.params\.range \(holder\): needs a list of exactly 2 entries,"
             r" not '13'"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": "0.25"}}),
             r"checks\[1\]\.params\.h_list \(separation_probe\): needs a list of at least 2"
             r" entries, not '0\.25'"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.25]}}),
             r"checks\[1\]\.params\.h_list \(separation_probe\): needs a list of at least 2 "),
            ("laplacian1d-largetime",
             set_check({"check": "largetime_floor", "params": {"mode": "elliptic", "band": "12"}}),
             r"checks\[1\]\.params\.band \(largetime_floor\): needs a list of exactly 2"
             r" entries, not '12'"),
            # a range or a band is a pair: a third entry would go unread
            ("degenerate1d-d025",
             set_check({"check": "holder", "params": {"range": [1e-3, 1e-1, 5.0]}}),
             r"checks\[1\]\.params\.range \(holder\): needs a list of exactly 2 entries,"
             r" not \[0\.001, 0\.1, 5\.0\]"),
            ("laplacian1d-largetime",
             set_check({"check": "largetime_floor",
                        "params": {"mode": "elliptic", "band": [0.8, 1.2, 1.5]}}),
             r"checks\[1\]\.params\.band \(largetime_floor\): needs a list of exactly 2"
             r" entries, not \[0\.8, 1\.2, 1\.5\]"),
            # a cut on or past the box's end has no node beyond it
            ("degenerate1d-d025",
             set_check({"check": "separation_probe",
                        "params": {"h_list": [2.0**-6, 2.0**-7], "box": [-2.0, 2.0], "cut": 2.0}}),
             r"checks\[1\]\.params\.cut \(separation_probe\): the cut 2\.0 is not strictly"
             r" inside the probe box \[-2\.0, 2\.0\]"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.25, 0.3], "cut": -5.0}}),
             r"checks\[1\]\.params\.cut \(separation_probe\): the cut -5\.0 is not strictly"
             r" inside the probe box \[-4\.0, 4\.0\]"),
            # the smalltime window ends at t = 0.1, on a named grid too
            ("laplacian1d",
             set_check({"check": "smalltime_decay", "params": {"gamma": 1.0, "t_grid": "small"}}),
             r"checks\[1\]\.params\.t_grid \(smalltime_decay\): smalltime grid must stay <="
             r" 0\.1, not 'small' = \[0\.01, "),
            ("laplacian1d",
             set_check({"check": "smalltime_decay",
                        "params": {"gamma": 1.0, "t_grid": [0.01, 0.05, 0.2]}}),
             r"checks\[1\]\.params\.t_grid \(smalltime_decay\): smalltime grid must stay <="
             r" 0\.1, not \[0\.01, 0\.05, 0\.2\]"),
            ("resolvent-volume",
             set_check({"check": "resolvent_volume",
                        "params": {"origin": [0.0], "r_grid": [0.5, 1.0, 2.0], "m": 0}}),
             r"checks\[1\]\.params\.m: need 4m > d"),
            ("double-zero",
             set_check({"check": "largetime_floor", "params": {"mode": "separated"}}),
             r"checks\[1\]\.params\.floor: separated mode needs a floor"),
            # every time and radius a check reads is finite and > 0, named
            # grids and a time that an exact cut would never evolve included
            ("degenerate1d-d075-cut",
             set_check({"check": "invariance", "params": {"omega": omega, "t": -1.0}}),
             r"checks\[1\]\.params\.t \(invariance\): a time is a finite number > 0, not -1\.0$"),
            ("degenerate1d-d075-cut",
             set_check({"check": "kernel_cut",
                        "params": {"source": [-1.0], "across": omega, "t": 0.0}}),
             r"checks\[1\]\.params\.t \(kernel_cut\): a time is a finite number > 0, not 0\.0$"),
            ("degenerate1d-d075-cut", small_grid_from_zero,
             r"checks\[1\]\.params\.t_grid\[0\] \(offdiagonal_gaussian\): a time is a finite"
             r" number > 0, not 0\.0, in 'small' = \[0\.0, 0\.5, 1\.0\]"),
            ("degenerate1d-d075-cut",
             set_check({"check": "wave_speed",
                        "params": {"support": [-1.5, -0.75], "t_list": [0.5, float("nan")]}}),
             r"checks\[1\]\.params\.t_list\[1\] \(wave_speed\): a time is a finite number > 0,"
             r" not nan, in \[0\.5, nan\]"),
            ("laplacian1d",
             set_check({"check": "smalltime_decay",
                        "params": {"gamma": 1.0, "t_grid": [0.01, -0.05]}}),
             r"checks\[1\]\.params\.t_grid\[1\] \(smalltime_decay\): a time is a finite number"
             r" > 0, not -0\.05"),
            ("laplacian1d-largetime",
             set_check({"check": "largetime_floor", "params": {"mode": "elliptic",
                                                              "t_grid": [1.0, "x"]}}),
             r"checks\[1\]\.params\.t_grid\[1\] \(largetime_floor\): a time is a finite number"
             r" > 0, not 'x'"),
            ("degenerate1d-d025",
             set_check({"check": "separation_probe", "params": {"h_list": [0.25, 0.125], "t": 0}}),
             r"checks\[1\]\.params\.t \(separation_probe\): a time is a finite number > 0,"
             r" not 0$"),
            ("resolvent-volume",
             set_check({"check": "resolvent_volume",
                        "params": {"origin": [0.0], "r_grid": [-0.1, 0.2, 0.3]}}),
             r"checks\[1\]\.params\.r_grid\[0\] \(resolvent_volume\): a radius is a finite"
             r" number > 0, not -0\.1, in \[-0\.1, 0\.2, 0\.3\]"),
        ],
        ids=["conservation-empty-grid", "conservation-empty-named-grid", "wave-empty-times",
             "offdiagonal-one-ball", "offdiagonal-empty-grid", "euclidean-one-box",
             "refinement-one-level", "refinement-no-level", "largetime-empty-grid",
             "ondiagonal-no-center", "smalltime-empty-grid", "probe-on-2d", "holder-on-2d",
             "probe-epsilons", "probe-odd-cells", "probe-odd-cells-on-mesh-box",
             "probe-spacing-off-the-box", "probe-cut-off-the-grid",
             "probe-spacing-not-a-number", "probe-zero-spacing", "probe-too-few-cells",
             "probe-cut-not-a-number",
             "resolvent-radii-string", "resolvent-two-radii", "holder-range-string",
             "probe-spacings-string", "probe-one-level", "largetime-band-string",
             "holder-range-three", "largetime-band-three", "probe-cut-at-the-box-end",
             "probe-cut-past-the-box",
             "smalltime-named-grid-past-window", "smalltime-grid-past-window",
             "resolvent-m-too-small", "largetime-separated-no-floor",
             "invariance-negative-time", "kernel-cut-zero-time", "named-grid-zero-time",
             "wave-nan-time", "smalltime-negative-time", "largetime-time-not-a-number",
             "probe-zero-time", "resolvent-negative-radius"],
    )
    def test_fails_before_any_check(self, scenario, edit, match, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        doc = builtin_by_name(scenario)
        doc["checks"] = [{"check": "structure"}, {}]
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=match):
            cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_probe_epsilons_override_exits_1(self, tmp_path, capsys):
        # the viscosity column is gone: a scenario that still asks for it
        # fails, naming the field
        index = [c["check"] for c in builtin_by_name("degenerate1d-d05")["checks"]].index(
            "separation_probe"
        )
        override = f"checks.{index}.params.epsilons=[0.0,0.01]"
        argv = ["run", "degenerate1d-d05", "--out", str(tmp_path / "out"), "--override", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and f"checks[{index}].params" in err
        assert "'epsilons'" in err
        assert not (tmp_path / "out").exists()


    def test_probe_odd_cell_count_override_exits_1(self, tmp_path, capsys):
        # h = 4/13 puts 13 cells on the probe's [-2, 2], and its cut 0 between
        # two nodes: the run stops in validation, before the checks ahead of
        # the probe compute
        index = [c["check"] for c in builtin_by_name("degenerate1d-d05")["checks"]].index(
            "separation_probe"
        )
        override = f"checks.{index}.params.h_list=[{4.0 / 13!r},{2.0 / 13!r}]"
        argv = ["run", "degenerate1d-d05", "--out", str(tmp_path / "out"), "--override", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error: ")
        assert (f"checks[{index}].params.h_list[0] (separation_probe): h = {4.0 / 13!r} puts the"
                " cut 0.0 6.5 cells from the probe box's low end -2.0") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("check, override, message", [
        ("separation_probe", "cut=2.0",
         "the cut 2.0 is not strictly inside the probe box [-2.0, 2.0]"),
        ("holder", "range=[1e-3,1e-1,5.0]",
         "needs a list of exactly 2 entries, not [0.001, 0.1, 5.0]"),
    ], ids=["probe-cut-at-the-box-end", "holder-range-three"])
    def test_override_exits_1_naming_the_field(self, check, override, message, tmp_path, capsys):
        # at the box's end the probe's far side holds no node, and a third
        # entry of a range would go unread: validation stops the run before
        # the checks ahead of this one compute
        index = [c["check"] for c in builtin_by_name("degenerate1d-d05")["checks"]].index(check)
        field = override.split("=")[0]
        argv = ["run", "degenerate1d-d05", "--out", str(tmp_path / "out"),
                "--override", f"checks.{index}.params.{override}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: checks[{index}].params.{field} ({check}): {message}")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("scenario, override, field, message", [
        ("degenerate1d-d075-cut", "checks.4.params.t=-1.0", "checks[4].params.t (invariance)",
         "a time is a finite number > 0, not -1.0"),
        ("degenerate1d-d075-cut", "t_small=[0.0, 0.5, 1.0]",
         "checks[1].params.t_grid[0] (conservation)",
         "a time is a finite number > 0, not 0.0, in 'small' = [0.0, 0.5, 1.0]"),
        ("degenerate1d-d075-cut", "checks.3.params.t=0.0", "checks[3].params.t (kernel_cut)",
         "a time is a finite number > 0, not 0.0"),
        ("resolvent-volume", "checks.1.params.r_grid=[-0.1, 0.2, 0.3]",
         "checks[1].params.r_grid[0] (resolvent_volume)",
         "a radius is a finite number > 0, not -0.1, in [-0.1, 0.2, 0.3]"),
    ], ids=["invariance-negative-time", "named-grid-zero-time", "kernel-cut-zero-time",
            "resolvent-negative-radius"])
    def test_nonpositive_time_or_radius_exits_1(self, scenario, override, field, message,
                                                tmp_path, capsys, monkeypatch):
        # a time the exact cut never evolves held with defect 0, and a zero
        # time in a named grid raised ZeroDivisionError after other checks
        # computed: both now stop the run before any check
        def spy(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        argv = ["run", scenario, "--out", str(tmp_path / "out"), "--override", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"schema error: {field}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestBoxSpecs:
    """A box is one finite [lo, hi] with lo < hi per mesh axis (a bare
    [lo, hi] in 1D), checked by validation before any compute."""

    @pytest.mark.parametrize(
        "scenario, check, match",
        [
            (
                "degenerate1d-d075-cut",
                {"check": "wave_speed", "params": {"support": [2.0, 1.0], "t_list": [0.5]}},
                r"checks\[1\]\.params\.support \(wave_speed\): a box is 1 ",
            ),
            (
                "degenerate1d-d075-cut",
                {"check": "euclidean_offdiagonal",
                 "params": {"boxes": [[-3.0, -1.0], [2.0, 1.0]]}},
                r"checks\[1\]\.params\.boxes\[1\] \(euclidean_offdiagonal\): a box is 1 ",
            ),
            (
                "degenerate1d-d075-cut",
                {"check": "euclidean_offdiagonal",
                 "params": {"boxes": [[-3.0, -1.0], [[0.0, 1.0], [0.0, 1.0]]]}},
                r"checks\[1\]\.params\.boxes\[1\] \(euclidean_offdiagonal\): a box is 1 ",
            ),
            (
                "degenerate1d-d075-cut",
                {"check": "wave_speed",
                 "params": {"support": [-1.0, float("inf")], "t_list": [0.5]}},
                r"checks\[1\]\.params\.support \(wave_speed\): a box is 1 ",
            ),
            (
                "radial-shell-2d",
                {"check": "wave_speed", "params": {"support": [-0.25, 0.25], "t_list": [0.5]}},
                r"checks\[1\]\.params\.support \(wave_speed\): a box is 2 ",
            ),
            (
                "radial-shell-2d",
                {"check": "euclidean_offdiagonal",
                 "params": {"boxes": [[[-1.0, 0.0], [-1.0, 0.0]], [[0.5, 1.0], [1.0, 0.5]]]}},
                r"checks\[1\]\.params\.boxes\[1\] \(euclidean_offdiagonal\): a box is 2 ",
            ),
            (
                "degenerate1d-d05",
                {"check": "separation_probe",
                 "params": {"h_list": [0.25, 0.125], "box": [2.0, -2.0]}},
                r"checks\[1\]\.params\.box \(separation_probe\): a box is 1 ",
            ),
            (
                "degenerate1d-d075-cut",
                {"check": "wave_speed", "params": {"support": None, "t_list": [0.5]}},
                r"checks\[1\]\.params\.support \(wave_speed\): a box is 1 .*, not None",
            ),
        ],
        ids=["inverted", "inverted-in-list", "wrong-axes", "non-finite", "bare-in-2d",
             "inverted-2d-axis", "inverted-probe-box", "null-support"],
    )
    def test_bad_box_fails_before_any_check(self, scenario, check, match, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        doc = builtin_by_name(scenario)
        doc["checks"] = [{"check": "structure"}, check]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=match):
            cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_probe_box_may_name_its_one_axis(self):
        # a 1D box is [lo, hi] or [[lo, hi]]: validation and the probe read both
        doc = builtin_by_name("degenerate1d-d05")
        probe = {"check": "separation_probe",
                 "params": {"h_list": [0.3, 0.15], "box": [[-2.0, 2.0]]}}
        doc["checks"] = [probe]
        match = r"h = 0\.3 puts 13\.3333 cells on the probe box \[-2\.0, 2"
        with pytest.raises(SchemaError, match=match):
            validate_scenario(doc)
        ctx = ScenarioContext(doc)
        rows = [
            scenarios.CHECKS["separation_probe"](ctx, 0, h_list=[2.0**-6, 2.0**-7], box=box).table
            for box in ([[-2.0, 2.0]], [-2.0, 2.0])
        ]
        assert rows[0] == rows[1]


class TestRefinementLevels:
    def test_scenario_level_is_the_context_operator(self, monkeypatch):
        # the level at the scenario's n evolves the operator the other
        # checks share, with the defect of a level assembled afresh
        doc = builtin_by_name("surface-2d")
        doc["mesh"]["n"] = 48
        params = {"omega": {"kind": "under_surface"}, "t": 0.25, "n_list": [24, 48]}
        doc["checks"] = [{"check": "conservation"},
                         {"check": "invariance_refinement", "params": params}]
        ctx = ScenarioContext(validate_scenario(doc))
        assembled = []
        real = scenarios.assemble
        monkeypatch.setattr(
            scenarios, "assemble",
            lambda profile, mesh, eps: assembled.append(mesh.n) or real(profile, mesh, eps),
        )
        records = scenarios.run_checks(ctx)
        assert sorted(assembled) == [24, 48]
        seed = ctx.seed_for(1, "invariance_refinement")
        defects = []
        for n in params["n_list"]:
            mesh = scenarios.build_mesh(2, ctx.mesh.box, n)
            op = real(ctx.profile, mesh, 0.0)
            rec = diagnose.invariance_defect(
                op, ctx.omega_mask(params["omega"], mesh), 0.25, seed=seed, tol=np.inf
            )
            defects.append(rec.margin)
        got = np.array([row["defect"] for row in records[1].table])
        assert np.array_equal(got.view(np.uint64), np.array(defects).view(np.uint64))


class TestCheckModes:
    """A mode picks a check's criterion: a mode the check does not have fails
    validation before any compute, and the check itself refuses it."""

    @pytest.mark.parametrize(
        "scenario, index, mode",
        [("laplacian1d", 7, "unifrom"), ("laplacian1d", 6, "eliptic"),
         ("double-zero", 3, "separate")],
        ids=["ondiagonal-uniform", "largetime-elliptic", "largetime-separated"],
    )
    def test_unknown_mode_fails_before_any_check(
        self, scenario, index, mode, tmp_path, monkeypatch, capsys
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        out = tmp_path / "out"
        override = f"checks.{index}.params.mode={mode}"
        assert cli.main(["run", scenario, "--out", str(out), "--override", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error: ")
        assert f"checks[{index}].params.mode" in err and f"'{mode}'" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "check, args, mode",
        [("ondiagonal_lower_check", (1.0, 1.0, [[0.0]]), "unifrom"),
         ("largetime_floor_check", ([1.0, 2.0],), "eliptic")],
        ids=["ondiagonal_lower", "largetime_floor"],
    )
    def test_check_refuses_an_unknown_mode(self, check, args, mode, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("a kernel was computed")

        for name in ("heat_gram", "sup_kernel"):
            monkeypatch.setattr(diagnose, name, spy)
        doc = builtin_by_name("laplacian1d")
        doc["mesh"]["n"] = 256
        ctx = ScenarioContext(doc)
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            getattr(diagnose, check)(ctx.operator(None), *args, mode=mode)


class TestEmptySets:
    """A set that selects no mesh node is an error naming the set, not a
    check that holds vacuously."""

    @pytest.mark.parametrize(
        "scenario, n, check, named",
        [
            ("laplacian1d", 256,
             {"check": "euclidean_offdiagonal", "params": {"boxes": [[20.0, 30.0], [0.0, 1.0]]}},
             "euclidean_offdiagonal: box 0 [20.0, 30.0]"),
            ("laplacian1d", 256,
             {"check": "offdiagonal_gaussian",
              "params": {"balls": [{"center": [2.0], "radius": 0.5},
                                   {"center": [0.0], "radius": 0.0}]}},
             "offdiagonal_gaussian: ball 1 (center [0.0], radius 0.0)"),
            ("degenerate1d-d075-cut", 255,
             {"check": "invariance",
              "params": {"omega": {"kind": "interval", "lo": 10, "hi": 11}}},
             "region {'kind': 'interval', 'lo': 10, 'hi': 11}"),
            ("degenerate1d-d075-cut", 255,
             {"check": "form_additivity",
              "params": {"omega": {"kind": "interval", "lo": 10, "hi": 11}}},
             "region {'kind': 'interval', 'lo': 10, 'hi': 11}"),
            ("degenerate1d-d075-cut", 255,
             {"check": "kernel_cut",
              "params": {"source": [-1.0], "across": {"kind": "interval", "lo": 10, "hi": 11}}},
             "region {'kind': 'interval', 'lo': 10, 'hi': 11}"),
            ("laplacian1d", 256,
             {"check": "wave_speed", "params": {"support": [20.0, 21.0], "t_list": [1.0]}},
             "wave_speed: support [20.0, 21.0]"),
            ("laplacian1d", 256,
             {"check": "ondiagonal_lower",
              "params": {"diameter": 0.5, "centers": [0.0, 20.0]}},
             "ondiagonal_lower: bump at center [20.0]"),
            ("degenerate1d-d075-cut", 255,
             {"check": "invariance",
              "params": {"omega": {"kind": "interval", "lo": -10, "hi": 10}}},
             "complement of region {'kind': 'interval', 'lo': -10, 'hi': 10}"),
            ("degenerate1d-d075-cut", 255,
             {"check": "form_additivity",
              "params": {"omega": {"kind": "interval", "lo": -10, "hi": 10}}},
             "complement of region {'kind': 'interval', 'lo': -10, 'hi': 10}"),
            ("degenerate1d-d075-cut", 255,
             {"check": "invariance_refinement",
              "params": {"omega": {"kind": "interval", "lo": -10, "hi": 10},
                         "n_list": [32, 64]}},
             "complement of region {'kind': 'interval', 'lo': -10, 'hi': 10}"),
        ],
        ids=["box", "ball", "invariance-omega", "form-additivity-omega", "kernel-cut-across",
             "wave-support", "ondiagonal-center", "invariance-complement",
             "form-additivity-complement", "invariance-refinement-complement"],
    )
    def test_empty_set_exits_1_naming_it(self, scenario, n, check, named, tmp_path, capsys):
        argv = ["run", scenario, "--out", str(tmp_path / "out"),
                "--override", f"mesh.n={n}", "--override", f"checks={json.dumps([check])}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {named} selects no mesh node\n"


class TestProfileKinds:
    """The `constant` and `sampled` profile kinds through the runner: a
    scalar field runs, a matrix field fails before any check."""

    CHECKS = [
        {"check": "structure"},
        {"check": "conservation", "params": {"t_grid": "small"}},
        {"check": "classify", "params": {"expect": "StronglyElliptic"}},
    ]

    def write(self, tmp_path, profile):
        doc = builtin_by_name("laplacian1d" if profile["dimension"] == 1 else "radial-shell-2d")
        doc["profile"] = profile
        doc["mesh"]["box"] = profile["domain"]
        doc["mesh"]["n"] = 64 if profile["dimension"] == 1 else 16
        doc["t_small"] = [0.05, 0.2]
        doc["checks"] = self.CHECKS
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    def test_scalar_profile_runs(self, kind, tmp_path):
        if kind == "constant":
            family = {"kind": "constant", "matrix": [[2.0]]}
        else:
            xs = np.linspace(-4.0, 4.0, 65)
            np.savetxt(tmp_path / "c.csv", (1.0 + 0.1 * xs**2).reshape(-1, 1), delimiter=",")
            family = {"kind": "sampled", "file": "c.csv"}
        profile = {"dimension": 1, "family": family, "domain": [-4.0, 4.0]}
        path = self.write(tmp_path, profile)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["status"] for r in report["records"]] == ["Holds"] * 3

    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    def test_matrix_profile_fails_before_any_check(self, kind, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a check ran")

        for name in scenarios.CHECKS:
            monkeypatch.setitem(scenarios.CHECKS, name, spy)
        if kind == "constant":
            family = {"kind": "constant", "matrix": [[2.0, 0.5], [0.5, 3.0]]}
        else:
            # the former (c11, c12, c22) grid layout, without its removed
            # "shape" key (an unknown key is rejected on its own)
            (tmp_path / "c.csv").write_text("2.0,0.5,3.0\n" * 16)
            family = {"kind": "sampled", "file": "c.csv"}
        profile = {"dimension": 2, "family": family, "domain": [-2.0, 2.0]}
        path = self.write(tmp_path, profile)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "the assembly is scalar" in err
        assert calls == []
        assert not (tmp_path / "out").exists()


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
            ScenarioContext(validate_scenario(doc))
