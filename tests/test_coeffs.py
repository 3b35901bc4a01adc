import numpy as np
import pytest
from scipy.integrate import quad

from degenlab import (
    CoefficientProfile,
    RadialShell,
    Sampled,
    StronglyElliptic,
    SurfaceDegenerate,
    Verdict,
    classify,
    profile_from_json,
)
from degenlab.errors import DomainError, SchemaError

from conftest import power1d


class TestEvalCoefficient:
    def test_degeneracy_center_vanishes(self):
        p = power1d(0.75)
        assert np.allclose(p.scalar_values(0.0), 0.0)

    def test_delta_zero_is_identity(self):
        p = power1d(0.0)
        for x in (-3.0, 0.0, 1.7):
            assert np.allclose(p.scalar_values(x), 1.0)

    def test_half_delta_at_one(self):
        # direct evaluation of (1 / (1 + 1))**0.5
        p = power1d(0.5)
        assert p.scalar_values(1.0)[0] == pytest.approx(0.5**0.5, rel=1e-14)

    def test_psd_everywhere(self):
        # C = c I is PSD iff c >= 0, and c stays below the norm bound
        profiles = [
            power1d(0.6),
            CoefficientProfile(2, RadialShell(0.5, 1.0), (-2.0, 2.0)),
            CoefficientProfile(2, StronglyElliptic(2.5), (-1.0, 1.0)),
        ]
        rng = np.random.default_rng(8)
        for p in profiles:
            c = p.scalar_values(rng.uniform(-1.0, 1.0, size=(20, p.dimension)))
            assert np.all(c >= 0.0) and np.all(c <= p.norm_bound)

    def test_outside_domain_raises(self):
        p = power1d(0.5)
        with pytest.raises(DomainError):
            p.scalar_values(5.0)

    def test_norm_bound_cached_and_finite(self):
        p = power1d(0.5)
        assert 0 < p.norm_bound <= 1.0


class TestViscosityShift:
    def test_zero_shift_identical(self):
        p = power1d(0.75)
        q = CoefficientProfile(1, p.family, p.domain, epsilon=p.epsilon + 0.0)
        for x in np.linspace(-4, 4, 17):
            assert q.scalar_values(x)[0] == p.scalar_values(x)[0]

    def test_shift_at_center(self):
        p = power1d(0.75)
        q = CoefficientProfile(1, p.family, p.domain, epsilon=p.epsilon + 0.1)
        assert np.allclose(q.scalar_values(0.0), 0.1)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            power1d(0.5, epsilon=-0.1)

    def test_eigenvalue_shift_identity(self):
        # the eigenvalue c of C = c I after the shift is c + eps
        rng = np.random.default_rng(21)
        p = CoefficientProfile(1, Sampled(rng.uniform(0.05, 2.0, 36)), (-1.0, 1.0))
        q = CoefficientProfile(1, p.family, p.domain, epsilon=p.epsilon + 0.37)
        xs = np.linspace(-0.9, 0.9, 6)
        assert q.scalar_values(xs) == pytest.approx(p.scalar_values(xs) + 0.37, rel=1e-12)

    def test_monotone_shift(self):
        p = power1d(0.5)
        xs = np.linspace(-3.5, 3.5, 11)
        for e1, e2 in ((0.0, 1e-3), (1e-3, 1e-1)):
            q1 = CoefficientProfile(1, p.family, p.domain, epsilon=p.epsilon + e1)
            q2 = CoefficientProfile(1, p.family, p.domain, epsilon=p.epsilon + e2)
            mu1, mu2 = q1.scalar_values(xs), q2.scalar_values(xs)
            assert np.all(mu1 < mu2)


class TestClassify:
    def test_separating_at_strong_degeneracy(self):
        cl = classify(power1d(0.75))
        assert cl.verdict is Verdict.SEPARATING
        assert cl.cut_points and abs(cl.cut_points[0]) < 1e-6

    def test_closable_against_quadrature_oracle(self):
        cl = classify(power1d(0.25))
        assert cl.verdict is Verdict.CLOSABLE_DEGENERATE
        assert cl.cut_points == []
        # oracle: int_0^span ((1+z^2)/z^2)^0.25 dz, independent adaptive rule
        span = cl.integrability_table[0]["span"]
        oracle, _ = quad(lambda z: ((1 + z * z) / (z * z)) ** 0.25, 0, span, points=[0])
        rows = [r for r in cl.integrability_table if r["side"] == "right"]
        assert rows[0]["inv_mu"] == pytest.approx(oracle, rel=1e-6)

    def test_laplacian_strongly_elliptic(self):
        cl = classify(power1d(0.0))
        assert cl.verdict is Verdict.STRONGLY_ELLIPTIC
        assert cl.mu_lower > 0.99

    @pytest.mark.parametrize("delta", [0.5, 0.6, 0.75, 0.9])
    def test_delta_threshold_separating(self, delta):
        assert classify(power1d(delta)).verdict is Verdict.SEPARATING

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.4])
    def test_delta_threshold_closable(self, delta):
        cl = classify(power1d(delta))
        assert cl.verdict is Verdict.CLOSABLE_DEGENERATE
        assert cl.cut_points == []

    @pytest.mark.parametrize(
        "profile",
        [
            power1d(0.75),
            power1d(0.25),
            CoefficientProfile(1, RadialShell(0.6, 1.5), (-4.0, 4.0)),
            CoefficientProfile(2, RadialShell(0.75, 1.0), (-2.0, 2.0)),
            CoefficientProfile(
                2,
                SurfaceDegenerate(0.75, y_samples=(-2.0, 2.0), phi_samples=(0.2, 0.2)),
                (-2.0, 2.0),
            ),
        ],
        ids=["d075", "d025", "shell1d", "shell2d", "surface"],
    )
    def test_shifted_profiles_strongly_elliptic(self, profile):
        for eps in (1e-4, 1e-2):
            shifted = CoefficientProfile(
                profile.dimension, profile.family, profile.domain, epsilon=profile.epsilon + eps
            )
            cl = classify(shifted)
            assert cl.verdict is Verdict.STRONGLY_ELLIPTIC

    def test_double_zero_two_cuts(self):
        p = power1d(0.75, centers=((-1.0,), (1.0,)))
        cl = classify(p)
        assert cl.verdict is Verdict.SEPARATING
        assert len(cl.cut_points) == 2

    def test_sampled_minima_read_at_nodes_off_the_scan(self):
        # 33 nodes, -1 + k/16: the zeros at +-0.9375 and the dip at -0.25 lie
        # between points of the uniform scan, the zeros 9.4e-5 from the
        # nearest, where c is already 1.5e-3; c is linear between nodes, so
        # its minima are node values
        values = np.ones(33)
        values[[1, 31]] = 0.0
        values[12] = 0.3
        nodes = np.linspace(-1.0, 1.0, 33)
        assert not np.isin(nodes[[1, 12, 31]], np.linspace(-1.0, 1.0, 10_000)).any()
        cl = classify(CoefficientProfile(1, Sampled(values), (-1.0, 1.0)))
        assert cl.verdict is Verdict.SEPARATING
        assert cl.cut_points == [-0.9375, 0.9375]
        assert {row["zero"] for row in cl.integrability_table} == {-0.9375, 0.9375}
        assert cl.mu_lower == values.min() + 0.0
        positive = np.where(values == 0.0, 0.5, values)
        cl = classify(CoefficientProfile(1, Sampled(positive), (-1.0, 1.0), epsilon=1e-3))
        assert cl.verdict is Verdict.STRONGLY_ELLIPTIC
        assert cl.mu_lower == positive.min() + 1e-3

    def test_radial_normal_section(self):
        p = CoefficientProfile(2, RadialShell(0.75, 1.0), (-2.0, 2.0))
        assert classify(p).verdict is Verdict.SEPARATING

    def test_surface_normal_section(self):
        p = CoefficientProfile(
            2,
            SurfaceDegenerate(0.25, y_samples=(-2.0, 2.0), phi_samples=(0.0, 0.0)),
            (-2.0, 2.0),
        )
        assert classify(p).verdict is Verdict.CLOSABLE_DEGENERATE


class TestSerialization:
    def test_sampled_csv_reference(self, tmp_path):
        path = tmp_path / "field.csv"
        xs = np.linspace(-1, 1, 33)
        np.savetxt(path, (1.0 + xs**2).reshape(-1, 1), delimiter=",")
        doc = {
            "dimension": 1,
            "family": {"kind": "sampled", "file": "field.csv"},
            "domain": [-1.0, 1.0],
        }
        p = profile_from_json(doc, base_dir=str(tmp_path))
        assert p.scalar_values(0.0)[0] == pytest.approx(1.0, abs=1e-3)

    def test_sampled_rejects_non_psd(self):
        vals = np.full(9, 1.0)
        vals[4] = -1e-3  # c < 0 beyond tolerance: C = c I is indefinite
        with pytest.raises(ValueError, match="negative"):
            CoefficientProfile(1, Sampled(vals), (-1.0, 1.0))

    def test_sampled_projects_tiny_negatives(self):
        vals = np.full(9, 1.0)
        vals[4] = -1e-13  # within tolerance: projected to 0
        p = CoefficientProfile(1, Sampled(vals), (-1.0, 1.0))
        assert p.family.values[4] == 0.0

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_constant_matrix_must_be_scalar(self, dimension):
        doc = {"dimension": dimension, "family": {"kind": "constant"}, "domain": [-1.0, 1.0]}
        doc["family"]["matrix"] = (2.0 * np.eye(dimension)).tolist()
        p = profile_from_json(doc)
        pts = np.zeros((3, dimension))
        assert np.all(p.scalar_values(pts) == 2.0) and p.norm_bound == 2.0
        bad = {"1": [[2.0, 0.0], [0.0, 2.0]], "2": [[2.0, 0.0], [0.0, 3.0]]}[str(dimension)]
        doc["family"]["matrix"] = bad
        with pytest.raises(SchemaError, match="the assembly is scalar"):
            profile_from_json(doc)
        doc["family"]["matrix"] = (-1.0 * np.eye(dimension)).tolist()
        with pytest.raises(ValueError, match="positive"):
            profile_from_json(doc)

    def test_unknown_and_missing_keys_are_named(self):
        doc = {
            "dimension": 1,
            "family": {"kind": "power", "delta": 0.5, "centres": [1.0]},
            "domain": [-4.0, 4.0],
            "epsilom": 0.1,
        }
        with pytest.raises(SchemaError, match="'epsilom'.*'centres'"):
            profile_from_json(doc)
        shell = {"dimension": 2, "family": {"kind": "radial_shell", "delta": 0.5, "radus": 1.0}}
        with pytest.raises(SchemaError) as err:
            profile_from_json(shell)
        assert all(key in str(err.value) for key in ("'domain'", "'radus'", "'radius'"))
        surface = {"dimension": 2, "domain": [-1.0, 1.0], "family": {
            "kind": "surface", "delta": 0.5, "surface": {"y": [-1.0, 1.0], "ph": [0.0, 0.0]}}}
        with pytest.raises(SchemaError, match="surface.*'ph'.*'phi'"):
            profile_from_json(surface)
        with pytest.raises(SchemaError, match="unknown profile family kind 'cubic'"):
            profile_from_json({"dimension": 1, "domain": [-1.0, 1.0], "family": {"kind": "cubic"}})

    @pytest.mark.parametrize("key", ["gamma_hint", "cut_hint", "shape"])
    def test_removed_keys_are_rejected(self, key):
        doc = {"dimension": 1, "family": {"kind": "power", "delta": 0.5}, "domain": [-1.0, 1.0]}
        profile_from_json(doc)
        doc["family"][key] = 1.0
        with pytest.raises(SchemaError, match=f"unknown field.*'{key}'"):
            profile_from_json(doc)

    def test_sampled_is_one_value_per_point(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("1.0,0.5,1.0\n1.0,0.5,1.0\n")
        doc = {"dimension": 1, "family": {"kind": "sampled", "file": str(path)},
               "domain": [-1.0, 1.0]}
        with pytest.raises(SchemaError, match="one value"):
            profile_from_json(doc)
        grid = np.empty((4, 4, 3))
        grid[...] = (2.0, 0.5, 3.0)  # the former 2D (c11, c12, c22) layout
        with pytest.raises(ValueError, match="the assembly is scalar"):
            CoefficientProfile(2, Sampled(grid), (-1.0, 1.0))
        with pytest.raises(ValueError, match="1D"):
            CoefficientProfile(2, Sampled(np.ones(16)), (-1.0, 1.0))
