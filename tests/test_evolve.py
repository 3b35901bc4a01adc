import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import degenlab.evolve as evolve_mod

from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    assemble,
    build_mesh,
    heat_evolve,
    kernel_column,
    operator_eig,
    resolvent_power_apply,
    sup_kernel,
    viscosity_shift,
    wave_evolve,
)
from degenlab.errors import CflError, SolverError


def power1d(delta, domain=(-8.0, 8.0)):
    return CoefficientProfile(1, PowerDegenerate(delta, ((0.0,),)), domain)


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
        for t in (0.01, 0.3, 2.0):
            f = heat_evolve(laplace_op, ones, t)
            assert np.abs(f.values - 1.0).max() < 1e-9

    def test_time_zero_identity(self, laplace_op):
        phi = np.sin(np.arange(laplace_op.size))
        f = heat_evolve(laplace_op, phi, 0.0)
        assert np.array_equal(f.values, phi)

    def test_negative_time_rejected(self, laplace_op):
        with pytest.raises(ValueError):
            heat_evolve(laplace_op, np.ones(laplace_op.size), -1.0)

    def test_gaussian_oracle(self, laplace_op):
        # free-space kernel t^{-1/2} exp(-x^2/(4t)) away from the boundary
        mesh = laplace_op.mesh
        src = mesh.size // 2
        col = kernel_column(laplace_op, src, 0.1)
        xs = mesh.axis(0)
        exact = (4 * np.pi * 0.1) ** -0.5 * np.exp(-(xs**2) / 0.4)
        m = np.abs(xs) <= 2.5
        assert np.max(np.abs(col.values[m] - exact[m]) / exact[m]) < 0.02

    def test_semigroup_law(self, laplace_op):
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(laplace_op.size)
        for s, t in ((0.05, 0.2), (0.3, 0.7)):
            two_step = heat_evolve(laplace_op, heat_evolve(laplace_op, phi, s).values, t)
            one_step = heat_evolve(laplace_op, phi, s + t)
            num = np.linalg.norm(two_step.values - one_step.values)
            assert num <= 1e-9 * np.linalg.norm(phi)

    def test_self_adjoint(self, laplace_op):
        rng = np.random.default_rng(12)
        vol = laplace_op.mesh.cell_volume
        phi = rng.standard_normal(laplace_op.size)
        psi = rng.standard_normal(laplace_op.size)
        a = np.dot(psi, heat_evolve(laplace_op, phi, 0.4).values) * vol
        b = np.dot(heat_evolve(laplace_op, psi, 0.4).values, phi) * vol
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_lp_contraction(self, laplace_op):
        rng = np.random.default_rng(13)
        vol = laplace_op.mesh.cell_volume
        phi = rng.standard_normal(laplace_op.size)
        out = heat_evolve(laplace_op, phi, 0.5).values
        slack = 1.0 + 1e-10
        assert np.abs(out).sum() * vol <= np.abs(phi).sum() * vol * slack
        assert np.linalg.norm(out) <= np.linalg.norm(phi) * slack
        assert np.abs(out).max() <= np.abs(phi).max() * slack

    def test_positivity_preserved(self, laplace_op):
        rng = np.random.default_rng(14)
        phi = np.abs(rng.standard_normal(laplace_op.size))
        out = heat_evolve(laplace_op, phi, 0.7).values
        assert out.min() >= -1e-10 * np.abs(phi).max()

    def test_backward_euler_positivity(self, cut_op):
        rng = np.random.default_rng(15)
        phi = np.abs(rng.standard_normal(cut_op.size))
        out = heat_evolve(cut_op, phi, 1.0, backend="backward_euler").values
        assert out.min() >= -1e-12 * np.abs(phi).max()

    def test_backward_euler_2d(self):
        mesh = build_mesh(2, (-1.0, 1.0), 16)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 1e-3)
        ones = np.ones(op.size)
        out = heat_evolve(op, ones, 0.3, backend="backward_euler").values
        assert np.abs(out - 1.0).max() < 1e-10

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
        monkeypatch.setattr(evolve_mod, "BLOCK_BYTES", 3 * 8 * op.size)  # slices of 3, 3, 1
        rng = np.random.default_rng(21)
        block = rng.standard_normal((op.size, 7))
        ts = [0.3, 0.0, 0.01, 1.0]
        out = heat_evolve(op, block, ts).values
        assert out.shape == (len(ts), op.size, 7)
        for i, t in enumerate(ts):
            for j in range(block.shape[1]):
                ref = cheb_reference(op, block[:, j], t) if t else block[:, j]
                assert np.array_equal(out[i, :, j], ref)
        vec = heat_evolve(op, block[:, 0], ts).values
        assert all(np.array_equal(vec[i], out[i, :, 0]) for i in range(len(ts)))
        assert np.array_equal(heat_evolve(op, block[:, 1], 0.3).values, out[0, :, 1])

    def test_substepped_time_joins_block(self, monkeypatch):
        # past the degree cap a time is split into substeps; a low cap makes
        # t = 1 substepped while t = 0.05 still shares the recurrence
        monkeypatch.setattr(evolve_mod, "CHEB_DEGREE_CAP", 200)
        mesh = build_mesh(1, (-8.0, 8.0), 256)
        op = assemble(power1d(0.0), mesh, 0.0)
        lam, V = operator_eig(op)
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

    def test_eig_block_matches_per_vector(self):
        # GEMM and GEMV sum the same products in other orders: on unit-sized
        # data they agree to a few ulps of 1, not bitwise
        mesh = build_mesh(1, (-4.0, 4.0), 400)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        lam, V = operator_eig(op)
        xs = mesh.axis(0)
        block = np.column_stack([(np.abs(xs - c) < 0.5).astype(float) for c in (-2.0, 0.0, 1.5)])
        ts = [0.01, 0.2, 1.0]
        out = heat_evolve(op, block, ts, backend="eig").values
        vol = mesh.cell_volume
        for i, t in enumerate(ts):
            for j in range(block.shape[1]):
                ref = V @ (np.exp(-t * lam) * (V.T @ block[:, j]))
                assert np.abs(out[i, :, j] - ref).max() <= 16 * np.finfo(float).eps
                for k in range(block.shape[1]):
                    lhs, lhs_ref = (np.dot(block[:, k], v) * vol for v in (out[i, :, j], ref))
                    assert abs(lhs - lhs_ref) <= 1e-15

    @pytest.mark.parametrize("margin", [0.0, 1.0])
    def test_sup_kernel_multitime_matches_einsum(self, margin):
        mesh = build_mesh(1, (-4.0, 4.0), 600)
        op = assemble(power1d(0.25, domain=(-4.0, 4.0)), mesh, 0.0)
        ts = np.geomspace(1e-3, 5.0, 9)
        got = sup_kernel(op, ts, boundary_margin=margin)
        assert got.strategy == "eig" and np.array_equal(got.t, ts)
        lam, V = operator_eig(op)
        keep = np.abs(mesh.axis(0)) <= 4.0 - margin
        for t, value in zip(ts, got.value):
            diag = np.einsum("ij,ij->i", V, V * np.exp(-t * lam))
            ref = diag[keep].max() / mesh.cell_volume
            assert abs(value - ref) <= 1e-15 * ref


class TestChebyshevBudget:
    def test_capped_tail_raises(self):
        with pytest.raises(SolverError):
            evolve_mod._cheb_coefficients(1.0, 1e-300)


class TestKernelColumn:
    def test_column_mass_one(self, laplace_op):
        col = kernel_column(laplace_op, laplace_op.size // 2, 0.2)
        assert col.mass == pytest.approx(1.0, abs=1e-10)

    def test_short_time_concentration(self, laplace_op):
        mesh = laplace_op.mesh
        t = 1e-3 * mesh.h**2  # ||C|| = 1
        col = kernel_column(laplace_op, 100, t)
        assert col.values[100] >= 0.99 / mesh.cell_volume

    def test_column_symmetry(self, laplace_op):
        i, j = 900, 1100
        a = kernel_column(laplace_op, i, 0.3).values[j]
        b = kernel_column(laplace_op, j, 0.3).values[i]
        assert a == pytest.approx(b, rel=1e-8)

    def test_exact_zero_across_cut(self, cut_op):
        xs = cut_op.mesh.axis(0)
        src = cut_op.mesh.nearest_index((-1.0,))
        col = kernel_column(cut_op, src, 1.0)
        assert np.abs(col.values[xs > 0]).max() == 0.0


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
        lam, V = operator_eig(op)
        t = 1.0
        exact = V @ (np.cos(t * np.sqrt(lam)) * (V.T @ phi))
        w = wave_evolve(op, phi, t, cfl_safety=0.25)
        assert np.linalg.norm(w.displacement - exact) <= 2e-2 * np.linalg.norm(phi)
        # support expansion at most t + 4h beyond the initial support
        thresh = 1e-8 * np.abs(phi).max()
        r0 = np.abs(xs[np.abs(phi) > thresh]).max()
        r1 = np.abs(xs[np.abs(exact) > thresh]).max()
        assert r1 <= r0 + t + 4 * mesh.h

    def test_cfl_guard(self, laplace_op):
        with pytest.raises(ValueError):
            wave_evolve(laplace_op, np.ones(laplace_op.size), 1.0, cfl_safety=1.5)

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
        lam1, _ = operator_eig(op1)
        files = list(tmp_path.glob("eig_*.npz"))
        assert len(files) == 1
        op2 = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        lam2, _ = operator_eig(op2)
        assert np.array_equal(lam1, lam2)

    def test_truncated_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        lam1, V1 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        (path,) = tmp_path.glob("eig_*.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        lam2, V2 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        assert np.array_equal(lam1, lam2) and np.array_equal(V1, V2)
        assert path.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_wrong_shape_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENLAB_CACHE", str(tmp_path))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        lam1, _ = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        (path,) = tmp_path.glob("eig_*.npz")
        with open(path, "wb") as fh:
            np.savez(fh, lam=np.full(65, np.nan), V=np.zeros((3, 3)))
        lam2, V2 = operator_eig(assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0))
        assert np.array_equal(lam1, lam2) and V2.shape == (65, 65)

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
        lam, V = operator_eig(op)
        d = op.matrix.diagonal()
        e = op.matrix.diagonal(1)
        lam_ref = eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.allclose(lam, np.maximum(lam_ref, 0.0), atol=1e-10)


def mirror_tridiagonal(N, rng):
    """Random tridiagonal (d, e) with d and e palindromes."""
    h, g = rng.standard_normal(N), rng.standard_normal(N - 1)
    return h + h[::-1], g + g[::-1]


class TestMirrorSplit:
    """_tridiagonal_eig on matrices equal to their own reversal: two
    half-size solves, checked against the full eigenproblem."""

    @pytest.fixture()
    def solve_sizes(self, monkeypatch):
        """Sizes of the eigh_tridiagonal calls made through evolve."""
        sizes = []
        real = evolve_mod.eigh_tridiagonal

        def counting(d, e):
            sizes.append(d.size)
            return real(d, e)

        monkeypatch.setattr(evolve_mod, "eigh_tridiagonal", counting)
        return sizes

    def assert_eigenpairs(self, d, e, lam, V):
        N = d.size
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        bound = 64 * N * np.finfo(float).eps * np.linalg.norm(A, 2)
        assert lam.shape == (N,) and V.shape == (N, N)
        assert np.all(np.diff(lam) >= 0)
        assert np.abs(lam - eigh_tridiagonal(d, e, eigvals_only=True)).max() <= bound
        assert np.linalg.norm(A @ V - V * lam, 2) <= bound
        assert np.linalg.norm(V.T @ V - np.eye(N), 2) <= 64 * N * np.finfo(float).eps

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 64, 65, 257])
    def test_random_mirror_matrices(self, N, solve_sizes):
        rng = np.random.default_rng(N)
        d, e = mirror_tridiagonal(N, rng)
        lam, V = evolve_mod._tridiagonal_eig(d, e)
        assert solve_sizes == ([1] if N == 1 else [N - N // 2, N // 2])
        self.assert_eigenpairs(d, e, lam, V)

    def test_even_n_parity_ties(self):
        # a zero conductance between the two middle points (an aligned cut)
        # decouples two mirror-image halves: every eigenvalue is double
        rng = np.random.default_rng(7)
        d, e = mirror_tridiagonal(64, rng)
        e[31] = 0.0
        lam, V = evolve_mod._tridiagonal_eig(d, e)
        assert np.array_equal(lam[0::2], lam[1::2])
        # stable order: the even vector of each pair comes first
        assert np.array_equal(V[::-1, 0::2], V[:, 0::2])
        assert np.array_equal(V[::-1, 1::2], -V[:, 1::2])
        self.assert_eigenpairs(d, e, lam, V)

    @pytest.mark.parametrize("where", ["d", "e"])
    def test_one_ulp_asymmetry_takes_full_solve(self, where, solve_sizes):
        rng = np.random.default_rng(3)
        d, e = mirror_tridiagonal(65, rng)
        x = d if where == "d" else e
        x[0] = np.nextafter(x[0], np.inf)
        lam, V = evolve_mod._tridiagonal_eig(d, e)
        assert solve_sizes == [65]
        lam_ref, V_ref = eigh_tridiagonal(d, e)
        assert np.array_equal(lam, lam_ref) and np.array_equal(V, V_ref)

    def test_power_law_operator_matches_unsplit(self):
        mesh = build_mesh(1, (-4.0, 4.0), 512)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        d, e = op.matrix.diagonal(), op.matrix.diagonal(1)
        assert op.size == 513 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
        lam, V = eigh_tridiagonal(d, e)
        unsplit = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        unsplit._eig = (np.maximum(lam, 0.0), V)
        xs = mesh.axis(0)
        phi = np.column_stack([np.exp(-((xs - c) ** 2)) for c in (-1.5, 0.0, 0.7)])
        ts = [0.01, 0.3, 2.0]
        got = heat_evolve(op, phi, ts, backend="eig").values
        ref = heat_evolve(unsplit, phi, ts, backend="eig").values
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for margin in (0.0, 1.0):
            s_got = sup_kernel(op, ts, boundary_margin=margin)
            s_ref = sup_kernel(unsplit, ts, boundary_margin=margin)
            assert s_got.strategy == s_ref.strategy == "eig"
            assert np.all(np.abs(s_got.value - s_ref.value) <= 1e-12 * s_ref.value)
