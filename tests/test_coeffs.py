import numpy as np
import pytest
from scipy.integrate import quad

from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    QuadratureConfig,
    RadialShell,
    Sampled,
    StronglyElliptic,
    SurfaceDegenerate,
    Verdict,
    classify,
    profile_from_json,
    viscosity_shift,
)
from degenlab.errors import DomainError


def power1d(delta, centers=((0.0,),), domain=(-4.0, 4.0), **kw):
    return CoefficientProfile(1, PowerDegenerate(delta, centers), domain, **kw)


class TestEvalCoefficient:
    def test_degeneracy_center_vanishes(self):
        p = power1d(0.75)
        assert np.allclose(p.matrix(0.0), 0.0)

    def test_delta_zero_is_identity(self):
        p = power1d(0.0)
        for x in (-3.0, 0.0, 1.7):
            assert np.allclose(p.matrix(x), np.eye(1))

    def test_half_delta_at_one(self):
        # direct evaluation of (1 / (1 + 1))**0.5
        p = power1d(0.5)
        assert p.matrix(1.0)[0, 0] == pytest.approx(0.5**0.5, rel=1e-14)

    def test_symmetry_everywhere(self):
        profiles = [
            power1d(0.6),
            CoefficientProfile(2, RadialShell(0.5, 1.0), (-2.0, 2.0)),
            CoefficientProfile(
                2, StronglyElliptic(np.array([[2.0, 0.5], [0.5, 3.0]])), (-1.0, 1.0)
            ),
        ]
        rng = np.random.default_rng(7)
        for p in profiles:
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, size=p.dimension)
                M = p.matrix(x)
                assert np.abs(M - M.T).max() == 0.0

    def test_psd_everywhere(self):
        p = CoefficientProfile(
            2, StronglyElliptic(np.array([[2.0, 0.5], [0.5, 3.0]])), (-1.0, 1.0)
        )
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=2)
            lo = np.linalg.eigvalsh(p.matrix(x)).min()
            assert lo >= -1e-12 * p.norm_bound

    def test_outside_domain_raises(self):
        p = power1d(0.5)
        with pytest.raises(DomainError):
            p.matrix(5.0)

    def test_norm_bound_cached_and_finite(self):
        p = power1d(0.5)
        assert 0 < p.norm_bound <= 1.0


class TestViscosityShift:
    def test_zero_shift_identical(self):
        p = power1d(0.75)
        q = viscosity_shift(p, 0.0)
        for x in np.linspace(-4, 4, 17):
            assert q.matrix(x)[0, 0] == p.matrix(x)[0, 0]

    def test_shift_at_center(self):
        q = viscosity_shift(power1d(0.75), 0.1)
        assert np.allclose(q.matrix(0.0), 0.1 * np.eye(1))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            viscosity_shift(power1d(0.5), -0.1)

    def test_eigenvalue_shift_identity(self):
        # smallest eigenvalue after shift = mu_m + eps, against dense eigh
        rng = np.random.default_rng(21)
        vals = np.zeros((6, 6, 3))
        for i in range(6):
            for j in range(6):
                B = rng.standard_normal((2, 2))
                M = B @ B.T + 0.05 * np.eye(2)
                vals[i, j] = (M[0, 0], M[0, 1], M[1, 1])
        p = CoefficientProfile(2, Sampled(vals.copy()), (-1.0, 1.0))
        q = viscosity_shift(p, 0.37)
        xs = np.linspace(-0.9, 0.9, 6)
        for k in range(5):
            x = (xs[k], xs[-1 - k])
            dense = np.linalg.eigvalsh(p.matrix(x)).min()
            assert q.smallest_eigenvalues(x)[0] == pytest.approx(dense + 0.37, rel=1e-12)

    def test_monotone_shift(self):
        p = power1d(0.5)
        xs = np.linspace(-3.5, 3.5, 11)
        for e1, e2 in ((0.0, 1e-3), (1e-3, 1e-1)):
            mu1 = viscosity_shift(p, e1).smallest_eigenvalues(xs)
            mu2 = viscosity_shift(p, e2).smallest_eigenvalues(xs)
            assert np.all(mu1 < mu2)


class TestSmallestEigenvalue:
    def test_scalar_family_equals_c(self):
        p = power1d(0.5)
        for x in (0.5, 1.0, 2.5):
            assert p.smallest_eigenvalues(x)[0] == p.matrix(x)[0, 0]

    def test_constant_matrix(self):
        p = CoefficientProfile(2, StronglyElliptic(np.diag([2.0, 3.0])), (-1.0, 1.0))
        assert p.smallest_eigenvalues((0.2, 0.2))[0] == pytest.approx(2.0)

    def test_sampled_closed_form(self):
        vals = np.zeros((4, 4, 3))
        vals[..., 0] = 2.0
        vals[..., 1] = 0.5
        vals[..., 2] = 3.0
        p = CoefficientProfile(2, Sampled(vals), (-1.0, 1.0))
        tr2, det = 2.5, 2.0 * 3.0 - 0.25
        expect = tr2 - np.sqrt(tr2**2 - det)
        assert p.smallest_eigenvalues((0.1, -0.4))[0] == pytest.approx(expect, rel=1e-12)


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
            cl = classify(viscosity_shift(profile, eps))
            assert cl.verdict is Verdict.STRONGLY_ELLIPTIC

    def test_double_zero_two_cuts(self):
        p = power1d(0.75, centers=((-1.0,), (1.0,)))
        cl = classify(p)
        assert cl.verdict is Verdict.SEPARATING
        assert len(cl.cut_points) == 2

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

    def test_custom_quadrature_config(self):
        cfg = QuadratureConfig(scan_points=2000, levels=40)
        assert classify(power1d(0.75), cfg).verdict is Verdict.SEPARATING


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
        assert p.matrix(0.0)[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_sampled_rejects_non_psd(self):
        vals = np.zeros((4, 4, 3))
        vals[..., 0] = 1.0
        vals[..., 1] = 5.0  # |offdiag| >> diag: indefinite
        vals[..., 2] = 1.0
        with pytest.raises(ValueError):
            CoefficientProfile(2, Sampled(vals), (-1.0, 1.0))

    def test_sampled_projects_tiny_negatives(self):
        vals = np.full(9, 1.0)
        vals[4] = -1e-13  # within tolerance: projected to 0
        p = CoefficientProfile(1, Sampled(vals), (-1.0, 1.0))
        assert p.family.values[4] == 0.0
