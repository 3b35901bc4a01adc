import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

import degenlab.evolve as evolve_mod

from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    assemble,
    build_mesh,
    heat_evolve,
    heat_gram,
    kernel_column,
    operator_eig,
    resolvent_power_apply,
    sup_kernel,
    wave_evolve,
)
from degenlab.errors import CflError, SolverError


def power1d(delta, domain=(-8.0, 8.0)):
    return CoefficientProfile(1, PowerDegenerate(delta, ((0.0,),)), domain)


EXP_BACKENDS_1D = ("chebyshev", "contour")


def each_backend(monkeypatch):
    """Each 1D exponential backend in turn, also as the one that exp_backend
    selects for kernel_column."""
    for backend in EXP_BACKENDS_1D:
        monkeypatch.setattr(evolve_mod, "exp_backend", lambda op, b=backend: b)
        yield backend


def record_backends(monkeypatch):
    """The backend of every heat_evolve call made inside the evolve module."""
    seen = []
    real = evolve_mod.heat_evolve

    def recording(*args, backend="chebyshev", **kwargs):
        seen.append(backend)
        return real(*args, backend=backend, **kwargs)

    monkeypatch.setattr(evolve_mod, "heat_evolve", recording)
    return seen


def dense_eig(op):
    """lam and the full eigenvector matrix V = project(I)^T of operator_eig(op)."""
    basis = operator_eig(op)
    return basis.lam, basis.project(np.eye(op.size)).T


@pytest.fixture(scope="module")
def laplace_op():
    mesh = build_mesh(1, (-8.0, 8.0), 2048)
    return assemble(power1d(0.0), mesh, 0.0)


@pytest.fixture(scope="module")
def cut_op():
    # n odd: face midpoint exactly on the degeneracy, exact zero conductance
    mesh = build_mesh(1, (-4.0, 4.0), 511)
    return assemble(power1d(0.75, domain=(-4.0, 4.0)), mesh, 0.0)


class TestHeatEvolve:
    def test_conserves_constants(self, laplace_op):
        ones = np.ones(laplace_op.size)
        for backend in EXP_BACKENDS_1D:
            for t in (0.01, 0.3, 2.0):
                f = heat_evolve(laplace_op, ones, t, backend=backend)
                assert np.abs(f.values - 1.0).max() < 1e-9

    def test_time_zero_identity(self, laplace_op):
        phi = np.sin(np.arange(laplace_op.size))
        f = heat_evolve(laplace_op, phi, 0.0)
        assert np.array_equal(f.values, phi)

    def test_negative_time_rejected(self, laplace_op):
        with pytest.raises(ValueError):
            heat_evolve(laplace_op, np.ones(laplace_op.size), -1.0)

    def test_gaussian_oracle(self, laplace_op, monkeypatch):
        # free-space kernel t^{-1/2} exp(-x^2/(4t)) away from the boundary
        mesh = laplace_op.mesh
        src = mesh.size // 2
        xs = mesh.axis(0)
        exact = (4 * np.pi * 0.1) ** -0.5 * np.exp(-(xs**2) / 0.4)
        m = np.abs(xs) <= 2.5
        for _ in each_backend(monkeypatch):
            col = kernel_column(laplace_op, src, 0.1)
            assert np.max(np.abs(col.values[m] - exact[m]) / exact[m]) < 0.02

    def test_semigroup_law(self, laplace_op):
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(laplace_op.size)
        for backend in EXP_BACKENDS_1D:
            evolve = lambda v, t: heat_evolve(laplace_op, v, t, backend=backend)
            for s, t in ((0.05, 0.2), (0.3, 0.7)):
                two_step = evolve(evolve(phi, s).values, t)
                one_step = evolve(phi, s + t)
                num = np.linalg.norm(two_step.values - one_step.values)
                assert num <= 1e-9 * np.linalg.norm(phi)

    def test_self_adjoint(self, laplace_op):
        rng = np.random.default_rng(12)
        vol = laplace_op.mesh.cell_volume
        phi = rng.standard_normal(laplace_op.size)
        psi = rng.standard_normal(laplace_op.size)
        for backend in EXP_BACKENDS_1D:
            a = np.dot(psi, heat_evolve(laplace_op, phi, 0.4, backend=backend).values) * vol
            b = np.dot(heat_evolve(laplace_op, psi, 0.4, backend=backend).values, phi) * vol
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_lp_contraction(self, laplace_op):
        rng = np.random.default_rng(13)
        vol = laplace_op.mesh.cell_volume
        phi = rng.standard_normal(laplace_op.size)
        slack = 1.0 + 1e-10
        for backend in EXP_BACKENDS_1D:
            out = heat_evolve(laplace_op, phi, 0.5, backend=backend).values
            assert np.abs(out).sum() * vol <= np.abs(phi).sum() * vol * slack
            assert np.linalg.norm(out) <= np.linalg.norm(phi) * slack
            assert np.abs(out).max() <= np.abs(phi).max() * slack

    def test_positivity_preserved(self, laplace_op):
        rng = np.random.default_rng(14)
        phi = np.abs(rng.standard_normal(laplace_op.size))
        for backend in EXP_BACKENDS_1D:
            out = heat_evolve(laplace_op, phi, 0.7, backend=backend).values
            assert out.min() >= -1e-10 * np.abs(phi).max()

    def test_epsilon_convergence_to_block_limit(self):
        # viscous evolutions approach the eps = 0 (block-diagonal) evolution
        mesh = build_mesh(1, (-4.0, 4.0), 511)
        p = power1d(0.75, domain=(-4.0, 4.0))
        xs = mesh.axis(0)
        phi = ((xs > -3.0) & (xs < -0.5)).astype(float)
        base = heat_evolve(assemble(p, mesh, 0.0), phi, 0.5).values
        errs = []
        for k in (2, 4, 6, 8, 10):
            op_eps = assemble(p, mesh, 2.0**-k)
            errs.append(np.linalg.norm(heat_evolve(op_eps, phi, 0.5).values - base))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
        assert errs[-1] / np.linalg.norm(phi) < 2e-2


def cheb_reference(op, phi, t, tol=1e-12):
    """The one-vector, one-t Chebyshev recurrence (no substeps)."""
    lmax = op.spectral_norm_bound
    c = evolve_mod._cheb_coefficients(0.5 * t * lmax, tol)
    A, scale = op.matrix, 2.0 / lmax
    w_prev, w = phi, scale * (A @ phi) - phi
    acc = c[0] * w_prev + c[1] * w
    for ck in c[2:]:
        w_prev, w = w, 2.0 * scale * (A @ w) - 2.0 * w - w_prev
        acc = acc + ck * w
    return acc


class TestBatchedEvolve:
    """Blocks of columns and sequences of times against one vector and one t
    at a time, the reference path."""

    @pytest.mark.parametrize("which", ["laplace_op", "cut_op"])
    def test_chebyshev_block_multitime_bitwise(self, which, request, monkeypatch):
        op = request.getfixturevalue(which)
        monkeypatch.setattr(evolve_mod, "BLOCK_BYTES", 3 * 8 * op.size)  # slices of at most 3
        monkeypatch.setattr(evolve_mod, "CPUS", 2)  # two lanes on any machine: 3 | 3 + 1
        lanes = set()
        real = evolve_mod._cheb_sums

        def recording(*args):
            lanes.add(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(evolve_mod, "_cheb_sums", recording)
        rng = np.random.default_rng(21)
        block = rng.standard_normal((op.size, 7))
        ts = [0.3, 0.0, 0.01, 1.0]
        out = heat_evolve(op, block, ts).values
        assert len(lanes) == 2
        assert out.shape == (len(ts), op.size, 7)
        for i, t in enumerate(ts):
            for j in range(block.shape[1]):
                ref = cheb_reference(op, block[:, j], t) if t else block[:, j]
                assert np.array_equal(out[i, :, j], ref)
        vec = heat_evolve(op, block[:, 0], ts).values
        assert all(np.array_equal(vec[i], out[i, :, 0]) for i in range(len(ts)))
        assert np.array_equal(heat_evolve(op, block[:, 1], 0.3).values, out[0, :, 1])

    def test_helper_lane_error_reaches_the_caller(self, laplace_op, monkeypatch):
        monkeypatch.setattr(evolve_mod, "BLOCK_BYTES", 3 * 8 * laplace_op.size)
        monkeypatch.setattr(evolve_mod, "CPUS", 2)
        caller = threading.get_ident()
        real = evolve_mod._cheb_sums

        def failing_beside(*args):
            if threading.get_ident() != caller:
                raise SolverError("helper lane failed")
            return real(*args)

        monkeypatch.setattr(evolve_mod, "_cheb_sums", failing_beside)
        before = set(threading.enumerate())
        with pytest.raises(SolverError, match="helper lane failed"):
            heat_evolve(laplace_op, np.ones((laplace_op.size, 7)), [0.01, 0.3])
        assert set(threading.enumerate()) == before

    def test_beside_joins_every_job_and_raises_the_first_error(self):
        done = []

        def slow_failure():
            time.sleep(0.05)
            done.append("helper")
            raise ValueError("second")

        def caller_failure():
            raise KeyError("first")

        with pytest.raises(KeyError, match="first"):
            evolve_mod._beside([caller_failure, slow_failure])
        assert done == ["helper"]
        out = []
        evolve_mod._beside([lambda: out.append(threading.get_ident())])
        assert out == [threading.get_ident()]

    def test_more_lanes_than_cores_under_fast_switching(self, cut_op, monkeypatch):
        # eight lanes of one-column slices write disjoint columns of one
        # output while the interpreter switches threads every microsecond
        monkeypatch.setattr(evolve_mod, "BLOCK_BYTES", 8 * cut_op.size)
        monkeypatch.setattr(evolve_mod, "CPUS", 8)
        block = np.random.default_rng(24).standard_normal((cut_op.size, 24))
        ts = [0.01, 0.2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = heat_evolve(cut_op, block, ts).values
        finally:
            sys.setswitchinterval(interval)
        for j in range(block.shape[1]):
            for i, t in enumerate(ts):
                assert np.array_equal(out[i, :, j], cheb_reference(cut_op, block[:, j], t))

    def test_lane_count_without_affinity(self, monkeypatch):
        assert evolve_mod._usable_cpus() >= 1
        monkeypatch.delattr(evolve_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(evolve_mod.os, "cpu_count", lambda: 3)
        assert evolve_mod._usable_cpus() == 3
        monkeypatch.setattr(evolve_mod.os, "cpu_count", lambda: None)
        assert evolve_mod._usable_cpus() == 1

    def test_substepped_time_joins_block(self, monkeypatch):
        # past the degree cap a time is split into substeps; a low cap makes
        # t = 1 substepped while t = 0.05 still shares the recurrence
        monkeypatch.setattr(evolve_mod, "CHEB_DEGREE_CAP", 200)
        mesh = build_mesh(1, (-8.0, 8.0), 256)
        op = assemble(power1d(0.0), mesh, 0.0)
        lam, V = dense_eig(op)
        rng = np.random.default_rng(22)
        block = rng.standard_normal((op.size, 3))
        ts = [1.0, 0.05]
        out = heat_evolve(op, block, ts).values
        for j in range(3):
            for i, t in enumerate(ts):
                assert np.array_equal(out[i, :, j], heat_evolve(op, block[:, j], t).values)
                exact = V @ (np.exp(-t * lam) * (V.T @ block[:, j]))
                assert np.abs(out[i, :, j] - exact).max() < 1e-10
        assert np.array_equal(out[1, :, 0], cheb_reference(op, block[:, 0], 0.05))

    @pytest.mark.parametrize("margin", [0.0, 1.0])
    def test_sup_kernel_multitime_matches_einsum(self, margin):
        mesh = build_mesh(1, (-4.0, 4.0), 600)
        op = assemble(power1d(0.25, domain=(-4.0, 4.0)), mesh, 0.0)
        ts = np.geomspace(1e-3, 5.0, 9)
        got = sup_kernel(op, ts, boundary_margin=margin)
        assert got.strategy == "eig" and np.array_equal(got.t, ts)
        lam, V = dense_eig(op)
        keep = np.abs(mesh.axis(0)) <= 4.0 - margin
        for t, value in zip(ts, got.value):
            diag = np.einsum("ij,ij->i", V, V * np.exp(-t * lam))
            ref = diag[keep].max() / mesh.cell_volume
            assert abs(value - ref) <= 1e-15 * ref


class TestContour:
    """The Talbot contour backend of 1D operators."""

    @pytest.mark.parametrize("delta, n, floor", [(0.0, 64, 0.0), (0.75, 63, 1.0)],
                             ids=["laplacian", "degenerate-cut"])
    def test_matches_dense_eigh(self, delta, n, floor):
        # t lambda_max from 1 to 1e7.  A dense reference is itself off by
        # about eps t lambda_max on the slow modes that survive to t, which
        # the degenerate operator has (floor 1) and the Laplacian, past its
        # exact constant, does not (floor 0)
        op = assemble(power1d(delta, domain=(-4.0, 4.0)), build_mesh(1, (-4.0, 4.0), n), 0.0)
        lam, V = eigh(op.matrix.toarray())
        lam = np.maximum(lam, 0.0)
        phi = np.random.default_rng(31).standard_normal((op.size, 3))
        x_max = np.geomspace(1.0, 1e7, 8)
        ts = x_max / op.spectral_norm_bound
        out = heat_evolve(op, phi, ts, backend="contour").values
        for x, t, got in zip(x_max, ts, out):
            ref = V @ (np.exp(-t * lam)[:, None] * (V.T @ phi))
            bound = 1e-12 + floor * np.finfo(float).eps * x
            assert np.linalg.norm(got - ref, axis=0).max() <= bound * np.linalg.norm(phi, axis=0).max()

    def test_conservation_at_large_time(self):
        # the refinement step takes the defect from 8e-10 to the rule's
        # own error at x = 0
        op = assemble(power1d(0.0), build_mesh(1, (-8.0, 8.0), 4096), 0.0)
        out = heat_evolve(op, np.ones(op.size), 50.0, backend="contour").values
        assert np.abs(out - 1.0).max() <= 1e-12

    def test_block_and_times_bitwise(self, cut_op):
        block = np.random.default_rng(32).standard_normal((cut_op.size, 5))
        ts = [0.3, 0.0, 0.01, 4.0]
        out = heat_evolve(cut_op, block, ts, backend="contour").values
        assert out.shape == (len(ts), cut_op.size, 5)
        assert np.array_equal(out[1], block)
        for i, t in enumerate(ts):
            alone = heat_evolve(cut_op, block, t, backend="contour").values
            assert np.array_equal(out[i], alone)
            for j in range(block.shape[1]):
                column = heat_evolve(cut_op, block[:, j], t, backend="contour").values
                assert np.array_equal(out[i, :, j], column)

    def test_tol_below_the_rational_floor_raises(self, cut_op):
        with pytest.raises(SolverError, match="Talbot"):
            heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour", tol=1e-16)

    def test_fewer_nodes_for_a_looser_tol(self, cut_op):
        z_loose, _ = evolve_mod._talbot_nodes(1e5, 1e-6)
        z_tight, _ = evolve_mod._talbot_nodes(1e5, 1e-13)
        assert z_loose.size < z_tight.size == evolve_mod.TALBOT_NODE_CAP // 2
        exact = heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour").values
        loose = heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour", tol=1e-6).values
        assert 1e-12 < np.abs(loose - exact).max() <= 1e-6

    def test_2d_rejected(self):
        op = assemble(CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0)),
                      build_mesh(2, (-1.0, 1.0), 8), 0.0)
        assert evolve_mod.exp_backend(op) == "chebyshev"
        with pytest.raises(ValueError, match="1D"):
            heat_evolve(op, np.ones(op.size), 0.1, backend="contour")

    def test_1d_fallbacks_past_the_eig_cap(self, monkeypatch):
        # heat_gram and sup_kernel fall back to evolutions past the
        # eigendecomposition cap; in 1D those run on the contour
        mesh = build_mesh(1, (-4.0, 4.0), 256)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        xs = mesh.axis(0)
        phi = np.column_stack([(np.abs(xs - c) < 0.5).astype(float) for c in (-2.0, 0.0, 1.5)])
        ts = [0.01, 0.2, 1.0]
        gram_eig = heat_gram(op, phi, ts)
        sup_eig = sup_kernel(op, ts).value
        monkeypatch.setattr(evolve_mod, "EIG_POINT_CAP", op.size - 1)
        seen = record_backends(monkeypatch)
        gram = heat_gram(op, phi, ts)
        sup = sup_kernel(op, ts, sample_indices=np.arange(op.size))
        assert sup.strategy == "columns"
        assert seen and set(seen) == {"contour"}
        norms = np.linalg.norm(phi, axis=0)
        assert np.all(np.abs(gram - gram_eig) <= 1e-12 * np.outer(norms, norms))
        assert np.allclose(sup.value, sup_eig, rtol=1e-10, atol=0.0)


class TestChebyshevBudget:
    def test_capped_tail_raises(self):
        with pytest.raises(SolverError):
            evolve_mod._cheb_coefficients(1.0, 1e-300)


class TestKernelColumn:
    def test_column_mass_one(self, laplace_op, monkeypatch):
        for _ in each_backend(monkeypatch):
            col = kernel_column(laplace_op, laplace_op.size // 2, 0.2)
            assert col.mass == pytest.approx(1.0, abs=1e-10)

    def test_short_time_concentration(self, laplace_op, monkeypatch):
        mesh = laplace_op.mesh
        t = 1e-3 * mesh.h**2  # ||C|| = 1
        for _ in each_backend(monkeypatch):
            col = kernel_column(laplace_op, 100, t)
            assert col.values[100] >= 0.99 / mesh.cell_volume

    def test_column_symmetry(self, laplace_op, monkeypatch):
        i, j = 900, 1100
        for _ in each_backend(monkeypatch):
            a = kernel_column(laplace_op, i, 0.3).values[j]
            b = kernel_column(laplace_op, j, 0.3).values[i]
            assert a == pytest.approx(b, rel=1e-8)

    def test_exact_zero_across_cut(self, cut_op, monkeypatch):
        xs = cut_op.mesh.axis(0)
        src = cut_op.mesh.nearest_index((-1.0,))
        for _ in each_backend(monkeypatch):
            col = kernel_column(cut_op, src, 1.0)
            assert np.abs(col.values[xs > 0]).max() == 0.0

    def test_selects_the_contour_in_1d(self, cut_op, monkeypatch):
        seen = record_backends(monkeypatch)
        kernel_column(cut_op, 0, 1.0)
        assert seen == ["contour"]


class TestSupKernel:
    def test_gaussian_window(self):
        mesh = build_mesh(1, (-4.0, 4.0), 1024)
        op = assemble(power1d(0.0, domain=(-4.0, 4.0)), mesh, 0.0)
        for t in np.geomspace(1e-3, 1e-1, 5):
            s = sup_kernel(op, t, boundary_margin=1.0)
            assert s.value == pytest.approx((4 * np.pi * t) ** -0.5, rel=0.03)
            assert s.strategy == "eig"

    def test_boundary_margin_matters(self):
        # reflecting walls double the on-diagonal value; the bulk does not
        mesh = build_mesh(1, (-4.0, 4.0), 512)
        op = assemble(power1d(0.0, domain=(-4.0, 4.0)), mesh, 0.0)
        full = sup_kernel(op, 0.1).value
        bulk = sup_kernel(op, 0.1, boundary_margin=1.5).value
        assert full == pytest.approx(2.0 * bulk, rel=0.05)

    def test_double_zero_floor(self):
        # zeros at +-1 on face midpoints: middle block of length 2 traps mass
        mesh = build_mesh(1, (-4.0, 4.0), 252)
        p = CoefficientProfile(1, PowerDegenerate(0.75, ((-1.0,), (1.0,))), (-4.0, 4.0))
        op = assemble(p, mesh, 0.0)
        for t in (1.0, 10.0, 40.0):
            assert sup_kernel(op, t).value >= 0.5 * (1 - 1e-6)

    def test_nonincreasing_in_t(self, laplace_op):
        vals = [sup_kernel(laplace_op, t).value for t in np.geomspace(0.01, 5.0, 10)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_columns_strategy_matches_eig(self):
        mesh = build_mesh(1, (-4.0, 4.0), 256)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        se = sup_kernel(op, 0.2)
        sc = sup_kernel(op, 0.2, strategy="columns", sample_indices=np.arange(op.size))
        assert sc.value == pytest.approx(se.value, rel=1e-8)
        ts = [0.05, 0.2]
        multi = sup_kernel(op, ts, strategy="columns", sample_indices=np.arange(op.size))
        assert multi.value[1] == sc.value
        assert multi.value[0] == pytest.approx(sup_kernel(op, 0.05).value, rel=1e-8)


class TestResolvent:
    def test_constants_fixed(self, laplace_op):
        ones = np.ones(laplace_op.size)
        u = resolvent_power_apply(laplace_op, 0.7, 2, ones)
        assert np.abs(u - 1.0).max() < 1e-10

    def test_neumann_series_oracle(self, laplace_op):
        rng = np.random.default_rng(19)
        phi = rng.standard_normal(laplace_op.size)
        r = 1e-3
        u = resolvent_power_apply(laplace_op, r, 1, phi)
        series = phi - r**2 * (laplace_op.matrix @ phi) + r**4 * (
            laplace_op.matrix @ (laplace_op.matrix @ phi)
        )
        assert np.linalg.norm(u - series) <= 1e-3 * np.linalg.norm(phi)

    def test_diagonal_kernel_nonnegative(self, laplace_op):
        vol = laplace_op.mesh.cell_volume
        delta = np.zeros(laplace_op.size)
        delta[333] = 1.0
        u = resolvent_power_apply(laplace_op, 0.5, 1, delta)
        K = np.dot(u, u) / vol
        assert K >= 0.0

    def test_1d_matches_banded_solves(self, cut_op):
        from scipy.linalg import solveh_banded

        r = 0.6
        A = cut_op.matrix
        ab = np.zeros((2, cut_op.size))
        ab[1] = 1.0 + r * r * A.diagonal()
        ab[0, 1:] = r * r * A.diagonal(1)
        phi = np.random.default_rng(23).standard_normal(cut_op.size)
        u = resolvent_power_apply(cut_op, r, 2, phi)
        ref = solveh_banded(ab, solveh_banded(ab, phi))
        assert u.dtype == np.float64 and u.shape == phi.shape
        assert np.linalg.norm(u - ref) <= 1e-13 * np.linalg.norm(phi)

    def test_shifted_solver_takes_a_real_shift(self, cut_op):
        # a real shift must still give LAPACK complex128 buffers to write
        d, e = cut_op.matrix.diagonal(), cut_op.matrix.diagonal(1)
        v = np.random.default_rng(24).standard_normal((cut_op.size, 3))
        x = evolve_mod._shifted_tridiagonal_solver(2.0, d, e)(v)
        assert x.dtype == np.complex128 and x.shape == v.shape
        T = 2.0 * np.eye(cut_op.size) + cut_op.matrix.toarray()
        assert np.abs(x.imag).max() == 0.0
        assert np.linalg.norm(T @ x.real - v) <= 1e-13 * np.linalg.norm(v)

    def test_2d_cg_path(self):
        mesh = build_mesh(2, (-1.0, 1.0), 24)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 1e-3)
        rng = np.random.default_rng(20)
        phi = rng.standard_normal(op.size)
        u = resolvent_power_apply(op, 0.3, 2, phi)
        # verify the doubly applied shift inverts back
        v = u + 0.09 * (op.matrix @ u)
        v = v + 0.09 * (op.matrix @ v)
        assert np.linalg.norm(v - phi) <= 1e-8 * np.linalg.norm(phi)

    def test_bad_arguments(self, laplace_op):
        with pytest.raises(ValueError):
            resolvent_power_apply(laplace_op, -1.0, 1, np.ones(laplace_op.size))
        with pytest.raises(ValueError):
            resolvent_power_apply(laplace_op, 1.0, 0, np.ones(laplace_op.size))


class TestWaveEvolve:
    def test_time_zero(self, laplace_op):
        phi = np.sin(np.arange(laplace_op.size) * 0.01)
        w = wave_evolve(laplace_op, phi, 0.0)
        assert np.array_equal(w.displacement, phi)

    def test_zero_block_frozen(self):
        # c identically 0 on a sub-block: cos(t * 0) = I there
        mesh = build_mesh(1, (-2.0, 2.0), 64)
        from degenlab import Sampled

        vals = np.ones(129)
        vals[:40] = 0.0
        p = CoefficientProfile(1, Sampled(vals), (-2.0, 2.0))
        op = assemble(p, mesh, 0.0)
        phi = np.zeros(op.size)
        phi[:10] = 1.0
        w = wave_evolve(op, phi, 1.0)
        assert np.array_equal(w.displacement[:10], phi[:10])

    def test_energy_drift_small(self, laplace_op):
        xs = laplace_op.mesh.axis(0)
        phi = np.exp(-(xs**2) * 4)
        w = wave_evolve(laplace_op, phi, 2.0)
        assert w.energy_drift < 0.01

    def test_against_exact_cosine(self):
        # eigendecomposition-exact cos(t sqrt(A)) phi on n = 512
        mesh = build_mesh(1, (-8.0, 8.0), 512)
        op = assemble(power1d(0.0), mesh, 0.0)
        xs = mesh.axis(0)
        phi = np.exp(-(xs**2) * 8)
        lam, V = dense_eig(op)
        t = 1.0
        exact = V @ (np.cos(t * np.sqrt(lam)) * (V.T @ phi))
        w = wave_evolve(op, phi, t)
        assert np.linalg.norm(w.displacement - exact) <= 2e-2 * np.linalg.norm(phi)
        # support expansion at most t + 4h beyond the initial support
        thresh = 1e-8 * np.abs(phi).max()
        r0 = np.abs(xs[np.abs(phi) > thresh]).max()
        r1 = np.abs(xs[np.abs(exact) > thresh]).max()
        assert r1 <= r0 + t + 4 * mesh.h

    def test_unstable_dt_detected(self):
        # force instability by lying about the spectral bound
        mesh = build_mesh(1, (-1.0, 1.0), 128)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        op.spectral_norm_bound = op.spectral_norm_bound / 16.0
        xs = mesh.axis(0)
        with pytest.raises(CflError):
            wave_evolve(op, np.exp(-(xs**2) * 50), 5.0)


class TestEigCache:
    def test_disk_memoization(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        op1 = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        lam1 = operator_eig(op1).lam
        files = list(tmp_path.glob("eig_*.npz"))
        assert len(files) == 1
        op2 = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        lam2 = operator_eig(op2).lam
        assert np.array_equal(lam1, lam2)

    def test_truncated_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        b1 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        (path,) = tmp_path.glob("eig_*.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        b2 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        assert np.array_equal(b1.lam, b2.lam) and len(b1.blocks) == len(b2.blocks) == 2
        assert all(np.array_equal(W1, W2) for W1, W2 in zip(b1.blocks, b2.blocks))
        assert path.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_wrong_shape_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        lam1 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)).lam
        (path,) = tmp_path.glob("eig_*.npz")
        with open(path, "wb") as fh:
            np.savez(fh, lam=np.full(65, np.nan), V=np.zeros((3, 3)))
        b2 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        assert np.array_equal(lam1, b2.lam)
        assert [W.shape for W in b2.blocks] == [(33, 33), (32, 32)]

    def test_old_dense_layout_recomputed_and_rewritten(self, tmp_path, monkeypatch):
        # an entry written as (lam, V) with correct shapes, the dense layout
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        lam, V = dense_eig(op)
        (path,) = tmp_path.glob("eig_*.npz")
        with open(path, "wb") as fh:
            np.savez(fh, lam=lam, V=V)
        basis = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        assert np.array_equal(basis.lam, lam) and len(basis.blocks) == 2
        with np.load(path) as data:
            assert sorted(data.files) == ["arr_0", "arr_1", "lam"]

    def test_debug_log_names_split_and_cache(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        caplog.set_level("DEBUG", logger="degenlab.evolve")
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        text = caplog.text
        assert "N=65: disk cache miss" in text and "N=65: disk cache hit" in text
        assert "N=65: mirror split 33 even + 32 odd" in text

    def test_threads_decompose_once(self, monkeypatch):
        calls = []
        real = evolve_mod._tridiagonal_eig

        def counting(d, e):
            calls.append(1)
            time.sleep(0.05)  # hold the window open for the other threads
            return real(d, e)

        monkeypatch.setattr(evolve_mod, "_tridiagonal_eig", counting)
        mesh = build_mesh(1, (-1.0, 1.0), 128)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        start = threading.Barrier(4)
        results = []

        def worker():
            start.wait(timeout=10)
            results.append(operator_eig(op))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 4 and all(r is results[0] for r in results)
        assert len(calls) == 1

    def test_tridiagonal_matches_dense(self):
        mesh = build_mesh(1, (-1.0, 1.0), 48)
        op = assemble(power1d(0.3, domain=(-1.0, 1.0)), mesh, 1e-3)
        lam = np.sort(operator_eig(op).lam)
        d = op.matrix.diagonal()
        e = op.matrix.diagonal(1)
        lam_ref = eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.allclose(lam, np.maximum(lam_ref, 0.0), atol=1e-10)


def stevd_reference(d, e):
    """eigh_tridiagonal through LAPACK dstevd, the routine _dstevd calls."""
    return eigh_tridiagonal(d, e, lapack_driver="stevd")


try:
    stevd_reference(np.zeros(2), np.zeros(1))
    HAS_STEVD_REFERENCE = True
except ValueError:  # older scipy: eigh_tridiagonal cannot call stevd
    HAS_STEVD_REFERENCE = False
needs_stevd_reference = pytest.mark.skipif(
    not HAS_STEVD_REFERENCE, reason="eigh_tridiagonal cannot call stevd here"
)


def mirror_tridiagonal(N, rng):
    """Random tridiagonal (d, e) with d and e palindromes."""
    h, g = rng.standard_normal(N), rng.standard_normal(N - 1)
    return h + h[::-1], g + g[::-1]


def tridiagonal(N, palindromic, rng):
    if palindromic:
        return mirror_tridiagonal(N, rng)
    return rng.standard_normal(N), rng.standard_normal(N - 1)


class TestEigBasis:
    """The factored basis against a dense eigh reference, through what does
    not depend on the choice of eigenvectors: f(A) phi, (phi, f(A) psi) and
    the diagonal of f(A)."""

    @pytest.mark.parametrize("palindromic", [True, False], ids=["mirror", "full"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 64, 65, 257])
    def test_operations_match_dense_eigh(self, N, palindromic):
        rng = np.random.default_rng(300 + N)
        d, e = tridiagonal(N, palindromic, rng)
        basis = evolve_mod.EigBasis(*evolve_mod._tridiagonal_eig(d, e))
        assert len(basis.blocks) == (2 if palindromic and N > 1 else 1)
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        lam_ref, Z = eigh(A)
        norm = max(np.abs(lam_ref).max(), 1.0)
        tol = 64 * N * np.finfo(float).eps
        assert np.abs(np.sort(basis.lam) - lam_ref).max() <= tol * norm
        f, f_ref = np.exp(-basis.lam / norm), np.exp(-lam_ref / norm)  # within [1/e, e]
        F = (Z * f_ref) @ Z.T
        phi, psi = rng.standard_normal((N, 3)), rng.standard_normal((N, 2))
        size = np.linalg.norm(phi, 2)

        P = basis.project(phi)
        assert P.shape == (N, 3)
        V = basis.project(np.eye(N)).T
        assert np.linalg.norm(V @ P - phi, 2) <= tol * size
        A_phi = V @ (basis.lam[:, None] * P)
        assert np.linalg.norm(A_phi - A @ phi, 2) <= tol * norm * size
        assert np.linalg.norm(V @ (f[:, None] * P) - F @ phi, 2) <= np.e * tol * size
        gram = P.T @ (f[:, None] * basis.project(psi))
        assert np.abs(gram - phi.T @ F @ psi).max() <= np.e * tol * size * np.linalg.norm(psi, 2)
        vec = basis.project(phi[:, 0])
        assert vec.shape == (N,) and np.abs(vec - P[:, 0]).max() <= tol * size

        rows = rng.permutation(np.concatenate([np.arange(N), rng.integers(0, N, N)]))
        diag = basis.diag(np.column_stack([f, basis.lam]), rows)
        assert diag.shape == (rows.size, 2)
        assert np.abs(diag[:, 0] - np.diag(F)[rows]).max() <= np.e * tol
        assert np.abs(diag[:, 1] - d[rows]).max() <= tol * norm

    @pytest.mark.parametrize("N", [256, 257, 513])
    def test_mirror_basis_stores_two_half_blocks(self, N):
        if N == 513:  # an assembled operator on a symmetric box
            mesh = build_mesh(1, (-4.0, 4.0), 512)
            basis = operator_eig(assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0))
        else:
            d, e = mirror_tridiagonal(N, np.random.default_rng(N))
            basis = evolve_mod.EigBasis(*evolve_mod._tridiagonal_eig(d, e))
        assert len(basis.blocks) == 2 and basis.lam.size == N
        stored = basis.lam.size + sum(W.size for W in basis.blocks)
        assert stored <= (N - N // 2) ** 2 + (N // 2) ** 2 + N

    def test_no_dense_matrix_on_the_1d_path(self):
        # tracemalloc sees numpy's buffers.  The decomposition peaks at the two
        # half bases plus dstevd's two (N/2)^2 workspaces, about N^2 floats in
        # all; an assembled V would add N^2 more.  The consumers then allocate
        # far less than one half block beyond the basis.
        mesh = build_mesh(1, (-4.0, 4.0), 1024)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        N = op.size
        dense = 8 * N * N
        xs = mesh.axis(0)
        phi = np.column_stack([(np.abs(xs - c) < 0.5).astype(float) for c in (-2.0, 0.0, 1.5)])
        ts = np.geomspace(1e-3, 1.0, 8)
        tracemalloc.start()
        try:
            operator_eig(op)
            held, decompose_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            heat_gram(op, phi, ts)
            sup_kernel(op, ts)
            _, use_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decompose_peak < 1.25 * dense
        assert use_peak - held < 0.25 * dense


class TestHeatGram:
    def masks(self, mesh, centers, width=0.5):
        xs = mesh.axis(0)
        return np.column_stack([(np.abs(xs - c) < width).astype(float) for c in centers])

    @pytest.mark.parametrize("center, n, blocks", [(0.0, 512, 2), (0.0, 400, 1), (0.3, 401, 1)])
    def test_eig_path_matches_evolve_then_dot(self, center, n, blocks):
        mesh = build_mesh(1, (-4.0, 4.0), n)
        profile = CoefficientProfile(1, PowerDegenerate(0.5, ((center,),)), (-4.0, 4.0))
        op = assemble(profile, mesh, 0.0)
        assert len(operator_eig(op).blocks) == blocks
        phi = self.masks(mesh, (-2.0, 0.0, 1.5))
        ts = [0.0, 0.01, 0.2, 1.0]
        gram = heat_gram(op, phi, ts)
        assert gram.shape == (4, 3, 3)
        lam, V = dense_eig(op)
        norms = np.linalg.norm(phi, axis=0)
        for g, t in zip(gram, ts):
            ref = phi.T @ (V @ (np.exp(-t * lam)[:, None] * (V.T @ phi)))
            assert np.all(np.abs(g - ref) <= 64 * np.finfo(float).eps * np.outer(norms, norms))

    def test_chebyshev_path_is_the_per_pair_dots(self):
        mesh = build_mesh(2, (-1.0, 1.0), 24)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        pts = mesh.points()
        phi = np.column_stack([np.linalg.norm(pts - c, axis=1) < 0.4
                               for c in ((-0.5, 0.0), (0.5, 0.2), (0.0, -0.5))]).astype(float)
        ts = [0.01, 0.1]
        gram = heat_gram(op, phi, ts)
        evolved = heat_evolve(op, phi, ts, tol=1e-13).values
        masks = [np.array(col) for col in phi.T]
        for g, block in zip(gram, evolved):
            columns = np.ascontiguousarray(block.T)
            ref = [[np.dot(masks[i], columns[j]) for j in range(3)] for i in range(3)]
            assert np.array_equal(g, np.array(ref))

    def test_exact_cut_gives_exact_zero(self, cut_op):
        # one full solve: dstevd splits at the zero conductance, so every
        # eigenvector vanishes exactly on one side
        assert len(operator_eig(cut_op).blocks) == 1
        phi = self.masks(cut_op.mesh, (-1.0, 1.3, 2.0), width=0.4)
        gram = heat_gram(cut_op, phi, [0.1, 1.0, 4.0])
        assert np.all(gram[:, 0, 1:] == 0.0) and np.all(gram[:, 1:, 0] == 0.0)
        assert np.all(gram[:, 1:, 1:] > 0.0)

    def test_mirror_cut_gives_exact_zero(self):
        # a zero conductance between the two middle points of a mirror-
        # symmetric operator (N even): across the cut the even and the odd
        # block give contributions equal up to sign, and the Gram form sums
        # block by block, so they cancel bit for bit
        mesh = build_mesh(1, (-1.0, 1.0), 63)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        A = op.matrix.tolil()
        c = A[31, 32]
        A[31, 32] = A[32, 31] = 0.0
        A[31, 31] += c
        A[32, 32] += c
        op.matrix = A.tocsr()
        assert len(operator_eig(op).blocks) == 2
        phi = self.masks(mesh, (-0.6, 0.3, 0.7), width=0.2)
        gram = heat_gram(op, phi, [0.01, 0.1, 1.0])
        assert np.all(gram[:, 0, 1:] == 0.0) and np.all(gram[:, 1:, 0] == 0.0)
        assert np.all(gram[:, 1:, 1:] > 0.0)

    def test_negative_time_rejected(self, laplace_op):
        with pytest.raises(ValueError):
            heat_gram(laplace_op, np.ones((laplace_op.size, 1)), [0.1, -0.1])


class TestMirrorSplit:
    """_tridiagonal_eig on matrices equal to their own reversal: two
    half-size solves, checked against the full eigenproblem."""

    @pytest.fixture()
    def solve_sizes(self, monkeypatch):
        """Sizes of the tridiagonal solves made through evolve._dstevd."""
        sizes = []
        real = evolve_mod._dstevd

        def counting(*problems):
            sizes.extend(d.size for d, _ in problems)
            return real(*problems)

        monkeypatch.setattr(evolve_mod, "_dstevd", counting)
        return sizes

    def assert_eigenpairs(self, d, e, basis):
        N = d.size
        lam, V = basis.lam, basis.project(np.eye(N)).T
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        bound = 64 * N * np.finfo(float).eps * np.linalg.norm(A, 2)
        assert lam.shape == (N,) and V.shape == (N, N)
        assert all(np.all(np.diff(lam[span]) >= 0) for span in basis.spans())
        assert np.abs(np.sort(lam) - eigh_tridiagonal(d, e, eigvals_only=True)).max() <= bound
        assert np.linalg.norm(A @ V - V * lam, 2) <= bound
        assert np.linalg.norm(V.T @ V - np.eye(N), 2) <= 64 * N * np.finfo(float).eps

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 64, 65, 257])
    def test_random_mirror_matrices(self, N, solve_sizes):
        rng = np.random.default_rng(N)
        d, e = mirror_tridiagonal(N, rng)
        basis = evolve_mod.EigBasis(*evolve_mod._tridiagonal_eig(d, e))
        assert solve_sizes == ([1] if N == 1 else [N - N // 2, N // 2])
        self.assert_eigenpairs(d, e, basis)

    def test_even_n_parity_ties(self):
        # a zero conductance between the two middle points (an aligned cut)
        # decouples two mirror-image halves: every eigenvalue is double
        rng = np.random.default_rng(7)
        d, e = mirror_tridiagonal(64, rng)
        e[31] = 0.0
        basis = evolve_mod.EigBasis(*evolve_mod._tridiagonal_eig(d, e))
        lam, V = basis.lam, basis.project(np.eye(64)).T
        assert np.array_equal(lam[:32], lam[32:])
        # the even block comes first, then the odd one
        assert np.array_equal(V[::-1, :32], V[:, :32])
        assert np.array_equal(V[::-1, 32:], -V[:, 32:])
        self.assert_eigenpairs(d, e, basis)

    @needs_stevd_reference
    @pytest.mark.parametrize("where", ["d", "e"])
    def test_one_ulp_asymmetry_takes_full_solve(self, where, solve_sizes):
        rng = np.random.default_rng(3)
        d, e = mirror_tridiagonal(65, rng)
        x = d if where == "d" else e
        x[0] = np.nextafter(x[0], np.inf)
        lam, (Z,) = evolve_mod._tridiagonal_eig(d, e)
        assert solve_sizes == [65]
        lam_ref, V_ref = stevd_reference(d, e)
        assert np.array_equal(lam, lam_ref) and np.array_equal(Z, V_ref)

    def test_power_law_operator_matches_unsplit(self):
        mesh = build_mesh(1, (-4.0, 4.0), 512)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        d, e = op.matrix.diagonal(), op.matrix.diagonal(1)
        assert op.size == 513 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
        lam, V = eigh_tridiagonal(d, e)
        unsplit = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        unsplit._eig = evolve_mod.EigBasis(np.maximum(lam, 0.0), (V,))
        xs = mesh.axis(0)
        phi = np.column_stack([np.exp(-((xs - c) ** 2)) for c in (-1.5, 0.0, 0.7)])
        ts = [0.01, 0.3, 2.0]
        got = heat_gram(op, phi, ts)
        ref = heat_gram(unsplit, phi, ts)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for margin in (0.0, 1.0):
            s_got = sup_kernel(op, ts, boundary_margin=margin)
            s_ref = sup_kernel(unsplit, ts, boundary_margin=margin)
            assert s_got.strategy == s_ref.strategy == "eig"
            assert np.all(np.abs(s_got.value - s_ref.value) <= 1e-12 * s_ref.value)


class TestDstevd:
    """The ctypes dstevd helper that makes every 1D decomposition."""

    @needs_stevd_reference
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 65, 257])
    def test_full_solve_bitwise(self, N):
        rng = np.random.default_rng(100 + N)
        d, e = rng.standard_normal(N), rng.standard_normal(N - 1)
        d_in, e_in = d.copy(), e.copy()
        ((lam, Z),) = evolve_mod._dstevd((d, e))
        lam_ref, Z_ref = stevd_reference(d, e)
        assert np.array_equal(lam, lam_ref) and np.array_equal(Z, Z_ref)
        assert Z.flags.f_contiguous
        assert np.array_equal(d, d_in) and np.array_equal(e, e_in)

    @needs_stevd_reference
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 65, 257])
    def test_mirror_halves_bitwise(self, N, monkeypatch):
        solves = []
        real = evolve_mod._dstevd

        def recording(*problems):
            results = real(*problems)
            solves.extend(zip(problems, results))
            return results

        monkeypatch.setattr(evolve_mod, "_dstevd", recording)
        d, e = mirror_tridiagonal(N, np.random.default_rng(200 + N))
        evolve_mod._tridiagonal_eig(d, e)
        assert [p[0].size for p, _ in solves] == ([1] if N == 1 else [N - N // 2, N // 2])
        for (d_half, e_half), (lam, Z) in solves:
            lam_ref, Z_ref = stevd_reference(d_half, e_half)
            assert np.array_equal(lam, lam_ref) and np.array_equal(Z, Z_ref)

    def test_nonzero_info_raises(self, monkeypatch):
        real = evolve_mod._LAPACK_DSTEVD

        def odd_half_fails(*args):
            # args: jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info
            if args[1].value == 4:
                args[10].value = 3
            else:
                real(*args)

        monkeypatch.setattr(evolve_mod, "_LAPACK_DSTEVD", odd_half_fails)
        d, e = mirror_tridiagonal(9, np.random.default_rng(9))  # halves of 5 and 4
        with pytest.raises(SolverError, match="N=4: info=3"):
            evolve_mod._tridiagonal_eig(d, e)
        with pytest.raises(SolverError, match="info=3"):
            evolve_mod._dstevd((d[:4], e[:3]))

    def test_releases_gil(self):
        # a busy Python thread beside a 2049-point solve keeps finishing its
        # 10 ms slices only if the solve runs without the GIL
        N = 2049
        d = np.full(N, 2.0)
        d[[0, -1]] = 1.0
        e = np.full(N - 1, -1.0)
        stop, ends = threading.Event(), []

        def busy():
            while not stop.is_set():
                t = time.perf_counter()
                while time.perf_counter() - t < 0.01:
                    pass
                ends.append(time.perf_counter())

        th = threading.Thread(target=busy)
        th.start()
        try:
            time.sleep(0.05)
            t0 = time.perf_counter()
            evolve_mod._dstevd((d, e))
            t1 = time.perf_counter()
        finally:
            stop.set()
            th.join()
        possible = int((t1 - t0) / 0.01)
        done = sum(t0 < t <= t1 for t in ends)
        assert possible >= 5
        assert done >= possible / 2, f"{done} of {possible} slices"
