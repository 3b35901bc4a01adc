import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    Sampled,
    assemble,
    build_mesh,
    cut_conductance,
    markov_check,
)
from degenlab.errors import ResourceLimitError


def power1d(delta, domain=(-4.0, 4.0)):
    return CoefficientProfile(1, PowerDegenerate(delta, ((0.0,),)), domain)


class TestBuildMesh:
    def test_1d_arithmetic(self):
        m = build_mesh(1, (-1.0, 1.0), 8)
        assert m.h == 0.25
        assert m.size == 9

    def test_2d_point_count(self):
        m = build_mesh(2, (-1.0, 1.0), 16)
        assert m.size == 289

    def test_fine_spacing(self):
        m = build_mesh(1, (-4.0, 4.0), 4096)
        assert m.h == 8.0 / 4096

    def test_point_cap(self):
        with pytest.raises(ResourceLimitError):
            build_mesh(2, (-1.0, 1.0), 4096)

    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            build_mesh(1, (0.0, 1.0), 4)


class TestAssemble:
    def test_neumann_laplacian_stencil(self):
        mesh = build_mesh(1, (0.0, 1.0), 8)
        op = assemble(power1d(0.0, domain=(0.0, 1.0)), mesh, 0.0)
        A = op.matrix.toarray() * mesh.h**2
        for i in range(1, 8):
            assert A[i, i] == pytest.approx(2.0)
            assert A[i, i - 1] == pytest.approx(-1.0)
        assert A[0, 0] == pytest.approx(1.0)

    def test_zero_profile_zero_operator(self):
        mesh = build_mesh(1, (-1.0, 1.0), 16)
        p = CoefficientProfile(1, Sampled(np.zeros(33)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        assert op.matrix.nnz == 0 or np.abs(op.matrix.data).max() == 0.0

    def test_face_on_center_gets_epsilon_only(self):
        # n odd puts x = 0 on a face midpoint; that conductance is eps/h^2
        mesh = build_mesh(1, (-2.0, 2.0), 15)
        eps = 0.3
        op = assemble(power1d(0.5, domain=(-2.0, 2.0)), mesh, eps)
        xs = mesh.axis(0)
        mid = 0.5 * (xs[:-1] + xs[1:])
        k = int(np.argmin(np.abs(mid)))
        assert abs(mid[k]) < 1e-14
        g = -op.matrix[k, k + 1]
        assert g == pytest.approx(eps / mesh.h**2, rel=1e-14)

    def test_exact_symmetry_and_row_sums(self):
        for delta, dim, n in ((0.5, 1, 128), (0.75, 2, 24)):
            dom = (-2.0, 2.0)
            fam = PowerDegenerate(delta, ((0.0,),) if dim == 1 else ((0.0, 0.0),))
            p = CoefficientProfile(dim, fam, dom)
            mesh = build_mesh(dim, dom, n)
            op = assemble(p, mesh, 1e-3)
            A = op.matrix
            assert np.abs(A - A.T).max() == 0.0
            row_sums = np.abs(np.asarray(A.sum(axis=1)).ravel())
            assert row_sums.max() <= 1e-13 * np.abs(A).sum(axis=1).max()

    def test_2d_needs_scalar(self):
        # an anisotropic matrix never reaches the 5-point stencil: the
        # profile is rejected when it is built
        from degenlab import profile_from_json

        doc = {"dimension": 2, "domain": [-1.0, 1.0],
               "family": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 3.0]]}}
        with pytest.raises(ValueError, match="the assembly is scalar"):
            profile_from_json(doc)

    def test_form_monotone_in_epsilon(self):
        mesh = build_mesh(1, (-2.0, 2.0), 128)
        p = power1d(0.5, domain=(-2.0, 2.0))
        op1 = assemble(p, mesh, 1e-3)
        op2 = assemble(p, mesh, 1e-1)
        rng = np.random.default_rng(3)
        for _ in range(8):
            phi = rng.standard_normal(mesh.size)
            assert op1.quadratic_form(phi) <= op2.quadratic_form(phi) + 1e-12

    def test_exact_block_split(self):
        # face midpoint on the degeneracy, eps = 0: form splits additively
        mesh = build_mesh(1, (-2.0, 2.0), 15)
        op = assemble(power1d(0.75, domain=(-2.0, 2.0)), mesh, 0.0)
        xs = mesh.axis(0)
        left = xs < 0
        rng = np.random.default_rng(4)
        for _ in range(8):
            phi = rng.standard_normal(mesh.size)
            full = op.quadratic_form(phi)
            split = op.quadratic_form(phi * left) + op.quadratic_form(phi * ~left)
            assert abs(full - split) <= 1e-14 * (1 + abs(full))


class TestCutConductance:
    def test_uniform_resistor_chain(self):
        mesh = build_mesh(1, (-1.0, 1.0), 256)
        p = power1d(0.0, domain=(-1.0, 1.0))
        # faces with midpoints in [-0.5, 0.5]: exactly length-1 chain
        g = cut_conductance(p, mesh, (-0.5, 0.5), 0.0)
        assert g == pytest.approx(1.0, rel=1e-12)

    def test_divergent_integral_drives_conductance_to_zero(self):
        p = power1d(0.75, domain=(-1.0, 1.0))
        vals = []
        for k in range(6, 13):
            mesh = build_mesh(1, (-1.0, 1.0), 2**k)
            vals.append(cut_conductance(p, mesh, (-0.5, 0.5), 0.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # quadrature oracle: partial integrals of 1/c explode
        partial, _ = quad(
            lambda z: ((1 + z * z) / (z * z)) ** 0.75, 2.0**-12, 0.5, limit=200
        )
        assert partial > 1.0 / vals[-1] * 0.1

    def test_convergent_integral_duality(self):
        p = power1d(0.25, domain=(-1.0, 1.0))
        oracle, _ = quad(
            lambda z: ((1 + z * z) / (z * z)) ** 0.25, 0.0, 0.5, points=[0.0], limit=200
        )
        oracle *= 2.0  # both sides of the degeneracy
        g_fine = []
        for k in (11, 12):
            mesh = build_mesh(1, (-1.0, 1.0), 2**k)
            g_fine.append(cut_conductance(p, mesh, (-0.5, 0.5), 0.0))
        assert g_fine[-1] == pytest.approx(1.0 / oracle, rel=0.02)
        assert g_fine[-2] == pytest.approx(g_fine[-1], rel=0.02)

    def test_empty_face_set_rejected(self):
        mesh = build_mesh(1, (-1.0, 1.0), 16)
        with pytest.raises(ValueError):
            cut_conductance(power1d(0.0, domain=(-1.0, 1.0)), mesh, (0.001, 0.002), 0.0)


class TestMarkovCheck:
    def test_no_positive_offdiagonals(self):
        mesh = build_mesh(1, (-2.0, 2.0), 64)
        rep = markov_check(assemble(power1d(0.5, domain=(-2.0, 2.0)), mesh, 0.0))
        assert rep["max_positive_offdiag"] == 0.0

    def test_row_sums_telescope(self):
        mesh = build_mesh(2, (-2.0, 2.0), 16)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-2.0, 2.0))
        rep = markov_check(assemble(p, mesh, 0.0))
        assert rep["max_row_sum"] <= 1e-13 * rep["norm_inf"]

    def test_rayleigh_against_dense_eig(self):
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        lam = eigh(op.matrix.toarray(), eigvals_only=True)
        assert lam.min() >= -1e-10 * op.spectral_norm_bound
        rep = markov_check(op)
        assert rep["min_rayleigh"] >= lam.min() - 1e-10
