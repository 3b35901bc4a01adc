import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import jv

import degenlab.evolve as evolve_mod

from degenlab import (
    CoefficientProfile,
    DiscreteOperator,
    Mesh,
    PowerDegenerate,
    RadialShell,
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
from degenlab.errors import SolverError


def power1d(delta, domain=(-8.0, 8.0)):
    return CoefficientProfile(1, PowerDegenerate(delta, ((0.0,),)), domain)


EXP_BACKENDS_1D = ("chebyshev", "contour")


def each_backend(monkeypatch):
    """Each 1D exponential backend in turn, also as the one that exp_backend
    selects for kernel_column."""
    for backend in EXP_BACKENDS_1D:
        monkeypatch.setattr(evolve_mod, "exp_backend", lambda op, b=backend: b)
        yield backend


def mp_diagonal(op, ts, dps=40):
    """diag e^{-tA} as (N, T) from eigenpairs refined in mpmath at dps
    digits.  Each irreducible block (split at exact zero couplings) starts
    from its float eigenpairs, grouped into clusters of eigenvalues closer
    than 1e-8 ||A|| (a mirror-symmetric operator has pairs that agree to
    roundoff).  Each cluster takes two steps of inverse iteration at the
    mean of its Rayleigh quotients, then Gram-Schmidt and Rayleigh-Ritz.
    The pairs are checked: residuals below 1e-20 ||A|| and
    sum_k v_k(i)^2 = 1 to 1e-20, eight digits past the tolerances that the
    reference is used for."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        d = [mp.mpf(float(x)) for x in op.matrix.diagonal()]
        e = [mp.mpf(float(x)) for x in op.matrix.diagonal(1)]
        norm = 2 * max(abs(x) for x in d)
        tiny = mp.mpf(10) ** (-2 * dps)
        N = len(d)
        cuts = [0] + [i + 1 for i in range(N - 1) if e[i] == 0] + [N]
        pairs = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            db, eb = d[lo:hi], e[lo : hi - 1]
            n = hi - lo
            apply = lambda x: [db[i] * x[i] + (eb[i - 1] * x[i - 1] if i else 0)
                               + (eb[i] * x[i + 1] if i < n - 1 else 0) for i in range(n)]

            def solve(s, y):
                # (A - s) x = y by elimination without pivoting; an exactly
                # singular pivot is nudged off zero
                piv, rhs = [(db[0] - s) or tiny], [y[0]]
                for i in range(1, n):
                    m = eb[i - 1] / piv[-1]
                    piv.append((db[i] - s - m * eb[i - 1]) or tiny)
                    rhs.append(y[i] - m * rhs[-1])
                x = [mp.mpf(0)] * n
                for i in reversed(range(n)):
                    x[i] = (rhs[i] - (eb[i] * x[i + 1] if i < n - 1 else 0)) / piv[i]
                return x

            lam0, V = eigh_tridiagonal(np.array(db, float), np.array(eb, float))
            clusters = [[0]]
            for k in range(1, n):
                if lam0[k] - lam0[k - 1] < 1e-8 * float(norm):
                    clusters[-1].append(k)
                else:
                    clusters.append([k])
            for cluster in clusters:
                Y = [[mp.mpf(float(a)) for a in V[:, k]] for k in cluster]
                s = mp.fsum(mp.fdot(y, apply(y)) for y in Y) / len(Y)
                Y = [solve(s, solve(s, y)) for y in Y]
                for j in range(len(Y)):
                    for q in Y[:j]:
                        c = mp.fdot(q, Y[j])
                        Y[j] = [a - c * b for a, b in zip(Y[j], q)]
                    scale = mp.sqrt(mp.fdot(Y[j], Y[j]))
                    Y[j] = [a / scale for a in Y[j]]
                H = mp.matrix([[mp.fdot(y, apply(x)) for x in Y] for y in Y])
                lams, Q = mp.eigsy(H)
                for k in range(len(Y)):
                    y = [mp.fsum(Q[j, k] * Y[j][i] for j in range(len(Y))) for i in range(n)]
                    residual = max(abs(a - lams[k] * b) for a, b in zip(apply(y), y))
                    assert residual <= 1e-20 * norm
                    pairs.append((lams[k], lo, y))
        completeness = [mp.mpf(0)] * N
        for _, lo, y in pairs:
            for j, a in enumerate(y):
                completeness[lo + j] += a * a
        assert max(abs(c - 1) for c in completeness) <= 1e-20
        out = np.empty((N, len(ts)))
        for k, t in enumerate(ts):
            diag = [mp.mpf(0)] * N
            for lam, lo, y in pairs:
                f = mp.exp(-mp.mpf(float(t)) * lam)
                for j, a in enumerate(y):
                    diag[lo + j] += a * a * f
            out[:, k] = [float(v) for v in diag]
    return out


def record_backends(monkeypatch):
    """The backend of every heat_evolve call made inside the evolve module."""
    seen = []
    real = evolve_mod.heat_evolve

    def recording(*args, backend="chebyshev", **kwargs):
        seen.append(backend)
        return real(*args, backend=backend, **kwargs)

    monkeypatch.setattr(evolve_mod, "heat_evolve", recording)
    return seen


def record_lanes(monkeypatch):
    """The lane count (_beside job count) of every block evolution."""
    seen = []
    real = evolve_mod._beside

    def recording(jobs):
        seen.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr(evolve_mod, "_beside", recording)
    return seen


def dense_eig(op):
    """lam, clamped at 0, and the eigenvector matrix V of operator_eig(op)."""
    lam, V = operator_eig(op)
    return np.maximum(lam, 0.0), V


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
    """The one-t Chebyshev recurrence on a vector or a block of columns of a
    tridiagonal operator, in numpy slices: B = (4 / lambda_max) A - 2 I,
    T_1 = 0.5 (B phi) and T_{k+1} = B T_k - T_{k-1}, each row of B T_k summed
    in CSR column order onto its start (0, or -T_{k-1})."""
    lmax = op.spectral_norm_bound
    c = evolve_mod._cheb_coefficients(0.5 * t * lmax, tol)
    A, s = op.matrix, 2.0 * (2.0 / lmax)
    cols = (-1,) + (1,) * (phi.ndim - 1)
    lower = (s * A.diagonal(-1)).reshape(cols)
    diag = (s * A.diagonal() - 2.0).reshape(cols)
    upper = (s * A.diagonal(1)).reshape(cols)

    def add_product(w, out):
        out[1:] += lower * w[:-1]
        out += diag * w
        out[:-1] += upper * w[1:]
        return out

    w_prev, w = phi, 0.5 * add_product(phi, np.zeros(phi.shape))
    acc = c[0] * w_prev + c[1] * w
    for ck in c[2:]:
        w_prev, w = w, add_product(w, -w_prev)
        acc = acc + ck * w
    return acc


class TestBatchedEvolve:
    """Blocks of columns and sequences of times against one vector and one t
    at a time, the reference path."""

    @pytest.mark.parametrize("which", ["laplace_op", "cut_op"])
    def test_chebyshev_block_multitime_bitwise(self, which, request, monkeypatch):
        op = request.getfixturevalue(which)
        monkeypatch.setattr(evolve_mod, "CPUS", 2)  # two lanes on any machine: 3 | 4 columns
        jobs = record_lanes(monkeypatch)
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
        assert len(lanes) == 2 and jobs == [2]
        assert out.shape == (len(ts), op.size, 7)
        for i, t in enumerate(ts):
            for j in range(block.shape[1]):
                ref = cheb_reference(op, block[:, j], t) if t else block[:, j]
                assert np.array_equal(out[i, :, j], ref)
        vec = heat_evolve(op, block[:, 0], ts).values
        assert all(np.array_equal(vec[i], out[i, :, 0]) for i in range(len(ts)))
        assert np.array_equal(heat_evolve(op, block[:, 1], 0.3).values, out[0, :, 1])

    def test_helper_lane_error_reaches_the_caller(self, laplace_op, monkeypatch):
        monkeypatch.setattr(evolve_mod, "CPUS", 2)  # 7 columns: a helper lane of 4
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
        # eight lanes of three whole columns write disjoint columns of one
        # output while the interpreter switches threads every microsecond
        monkeypatch.setattr(evolve_mod, "CPUS", 8)
        jobs = record_lanes(monkeypatch)
        block = np.random.default_rng(24).standard_normal((cut_op.size, 24))
        ts = [0.01, 0.2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = heat_evolve(cut_op, block, ts).values
        finally:
            sys.setswitchinterval(interval)
        assert jobs == [8]
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

    def test_long_time_joins_block(self, monkeypatch):
        # t lambda_max / 2 = 8e6 needs degree 20,438: the long time shares
        # the one recurrence with t = 0.05
        calls = []
        real = evolve_mod._cheb_apply

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(evolve_mod, "_cheb_apply", counting)
        mesh = build_mesh(1, (-8.0, 8.0), 64)
        op = assemble(power1d(0.0), mesh, 0.0)
        lam, V = dense_eig(op)
        block = np.random.default_rng(22).standard_normal((op.size, 3))
        ts = [2.5e5, 0.05]
        out = heat_evolve(op, block, ts).values
        assert len(calls) == 1
        for i, t in enumerate(ts):
            ref = cheb_reference(op, block, t)  # a block product is columnwise bitwise
            for j in range(3):
                assert np.array_equal(out[i, :, j], ref[:, j])
                exact = V @ (np.exp(-t * lam) * (V.T @ block[:, j]))
                assert np.abs(out[i, :, j] - exact).max() < 1e-9

    @pytest.mark.parametrize("margin", [0.0, 1.0])
    def test_sup_kernel_multitime_matches_einsum(self, margin):
        # each time of the batch is within the certified bound of its own
        # call; against the einsum of a dense eigendecomposition the diagonal
        # is within the rule's tol
        mesh = build_mesh(1, (-4.0, 4.0), 600)
        op = assemble(power1d(0.25, domain=(-4.0, 4.0)), mesh, 0.0)
        ts = np.geomspace(1e-3, 5.0, 9)
        got = sup_kernel(op, ts, boundary_margin=margin)
        assert got.strategy == "contour" and np.array_equal(got.t, ts)
        lam, V = dense_eig(op)
        keep = np.abs(mesh.axis(0)) <= 4.0 - margin
        for t, value in zip(ts, got.value):
            alone = sup_kernel(op, t, boundary_margin=margin).value
            assert abs(value - alone) <= 2.0 * evolve_mod.DEFAULT_TOL / mesh.cell_volume
            diag = np.einsum("ij,ij->i", V, V * np.exp(-t * lam))
            ref = diag[keep].max() / mesh.cell_volume
            assert abs(value - ref) <= evolve_mod.DEFAULT_TOL / mesh.cell_volume


def shell_op(n=32):
    """The radial-shell-2d builtin's profile at n: at n = 32, 1,089 nodes in
    14 components (the disc inside the shell, the outer region, and
    singletons on the shell)."""
    p = CoefficientProfile(2, RadialShell(0.75, 1.0, width=0.125), (-2.0, 2.0))
    return assemble(p, build_mesh(2, (-2.0, 2.0), n), 0.0)


def record_matrices(monkeypatch):
    """The matrix B of every recurrence that _cheb_apply runs, on one lane,
    so one recurrence per call."""
    monkeypatch.setattr(evolve_mod, "CPUS", 1)
    seen = []
    real = evolve_mod._cheb_sums

    def recording(B, *args):
        seen.append(B)
        return real(B, *args)

    monkeypatch.setattr(evolve_mod, "_cheb_sums", recording)
    return seen


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestComponents:
    """The 2D Chebyshev path evolves only the connected components that a
    block meets, bitwise as the recurrence over every row."""

    def test_block_inside_the_disc_is_the_full_recurrence(self, monkeypatch):
        op = shell_op()
        count, labels = op.components()
        assert (op.size, count) == (1089, 14)
        inside = np.linalg.norm(op.mesh.points(), axis=1) < 1.0
        block = np.random.default_rng(27).standard_normal((op.size, 5)) * inside[:, None]
        ts = [0.05, 0.5]
        mats = record_matrices(monkeypatch)
        out = heat_evolve(op, block, ts).values
        full = heat_evolve(op, np.column_stack([block, np.ones(op.size)]), ts).values
        assert [A.shape[0] for A in mats] == [np.isin(labels, labels[inside]).sum(), op.size]
        assert mats[0].shape[0] < op.size and mats[1].shape == op.matrix.shape
        assert same_bits(out, full[:, :, :5])
        outside = ~np.isin(labels, labels[inside])
        assert outside.any() and same_bits(out[:, outside], np.zeros_like(out[:, outside]))

    def test_resolvent_radii_are_the_full_recurrence(self, monkeypatch):
        op = shell_op()
        delta = np.zeros(op.size)
        delta[op.mesh.nearest_index((0.0, 0.0))] = 1.0
        radii = [0.05, 0.1, 0.2, 0.4]
        _, labels = op.components()
        mats = record_matrices(monkeypatch)
        us = resolvent_power_apply(op, radii, 2, delta)
        # labels of one component: the recurrence over every row
        monkeypatch.setattr(op, "components", lambda: (1, np.zeros(op.size, dtype=np.intp)))
        full = resolvent_power_apply(op, radii, 2, delta)
        assert mats[0].shape[0] < op.size and mats[1].shape == op.matrix.shape
        assert same_bits(us, full)
        outside = labels != labels[delta != 0][0]
        assert same_bits(us[:, outside], np.zeros_like(us[:, outside]))

    def test_zero_block_runs_no_recurrence(self, monkeypatch):
        op = shell_op()

        def never(*args):
            raise AssertionError("the recurrence ran on a zero block")

        monkeypatch.setattr(evolve_mod, "_cheb_sums", never)
        out = heat_evolve(op, np.zeros((op.size, 3)), [0.1, 0.5]).values
        assert same_bits(out, np.zeros((2, op.size, 3)))
        u = resolvent_power_apply(op, [0.1, 0.3], 1, np.zeros(op.size))
        assert same_bits(u, np.zeros((2, op.size)))

    def test_labels_are_computed_once_per_operator(self, monkeypatch):
        import copy

        import scipy.sparse.csgraph as csgraph

        calls = []
        real = csgraph.connected_components

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # both threads arrive while the first labels
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "connected_components", counting)
        op = shell_op(16)
        phi = np.zeros(op.size)
        phi[op.mesh.nearest_index((0.0, 0.0))] = 1.0
        heat_evolve(op, phi, 0.1)
        heat_evolve(op, phi, [0.2, 0.3])
        resolvent_power_apply(op, 0.2, 1, phi)
        assert len(calls) == 1
        calls.clear()
        op = shell_op(16)
        start = threading.Barrier(2)
        results = []

        def reader():
            start.wait(timeout=60)
            results.append(heat_evolve(op, phi, 0.1).values)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert len(calls) == 1 and len(results) == 2
        assert np.array_equal(results[0], results[1])
        # a copy that swaps in a new matrix is labelled again
        swapped = copy.copy(op)
        swapped.matrix = op.matrix + sp.identity(op.size, format="csr")
        assert swapped.components()[0] == op.components()[0]
        assert len(calls) == 2

    def test_two_lanes_match_one_column_calls(self, monkeypatch):
        # lanes of one column (csr_matvec) and of two (csr_matvecs) against
        # one-column calls, which take csr_matvec on their own components
        monkeypatch.setattr(evolve_mod, "CPUS", 2)
        jobs = record_lanes(monkeypatch)
        op = shell_op()
        _, labels = op.components()
        inside = np.linalg.norm(op.mesh.points(), axis=1) < 1.0
        outside = ~np.isin(labels, labels[inside])
        rng = np.random.default_rng(29)
        block = rng.standard_normal((op.size, 3))
        block[outside, 0] = 0.0
        block[~outside, 2] = 0.0
        ts = [0.05, 0.5]
        out = heat_evolve(op, block, ts).values
        assert jobs == [2]
        for j in range(3):
            assert same_bits(out[:, :, j], heat_evolve(op, block[:, j], ts).values)
        assert np.all(out[:, outside, 0] == 0.0) and np.all(out[:, ~outside, 2] == 0.0)
        delta = np.zeros(op.size)
        delta[op.mesh.nearest_index((0.0, 0.0))] = 1.0
        radii = [0.05, 0.1, 0.2, 0.4]
        us = resolvent_power_apply(op, radii, 2, delta)
        for radius, u in zip(radii, us):
            assert same_bits(u, resolvent_power_apply(op, radius, 2, delta))
        assert np.all(us[:, outside] == 0.0)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_callers_input_is_never_written(self, lanes, laplace_op, monkeypatch):
        # with one lane, a block that meets every component reaches the
        # recurrence as the caller's own array
        monkeypatch.setattr(evolve_mod, "CPUS", lanes)
        rng = np.random.default_rng(30)
        for op in (shell_op(), laplace_op):
            block = rng.standard_normal((op.size, 3))
            for phi in (block, block[:, 1].copy()):
                kept = phi.copy()
                heat_evolve(op, phi, [0.05, 0.5], backend="chebyshev")
                wave_evolve(op, phi, [0.5, 1.0])
                assert same_bits(phi, kept)
        op = shell_op()
        phi = rng.standard_normal(op.size)
        kept = phi.copy()
        resolvent_power_apply(op, [0.1, 0.3], 2, phi)
        assert same_bits(phi, kept)

    def test_one_component_builds_no_submatrix(self, monkeypatch):
        mesh = build_mesh(2, (-1.0, 1.0), 16)
        op = assemble(CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0)), mesh, 0.0)
        assert op.components()[0] == 1
        mats = record_matrices(monkeypatch)
        indexed = []
        real_getitem = type(op.matrix).__getitem__

        def indexing(matrix, key):
            indexed.append(key)
            return real_getitem(matrix, key)

        monkeypatch.setattr(type(op.matrix), "__getitem__", indexing)
        phi = np.zeros(op.size)
        phi[mesh.nearest_index((0.5, 0.5))] = 1.0
        heat_evolve(op, phi, [0.01, 0.1])
        resolvent_power_apply(op, [0.1, 0.2], 1, phi)
        assert len(mats) == 2 and all(B.shape == op.matrix.shape for B in mats)
        assert indexed == []


class TestContour:
    """The hyperbolic contour backend of 1D operators."""

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
        # the times of one call share its shifts, so a time's value depends on
        # the call's grid within the certified bound; a column does not
        # depend on its block, and a call does not depend on its history
        block = np.random.default_rng(32).standard_normal((cut_op.size, 5))
        ts = [0.3, 0.0, 0.01, 0.05, 0.1, 4.0]
        tol = evolve_mod.DEFAULT_TOL
        # 0.01..0.3 share one row, 4.0 takes the single-time row
        groups = evolve_mod._contour_groups(np.array(sorted(t for t in ts if t > 0)), tol)
        assert [hi - lo for lo, hi, _, _ in groups] == [4, 1]
        out = heat_evolve(cut_op, block, ts, backend="contour").values
        assert out.shape == (len(ts), cut_op.size, 5)
        assert np.array_equal(out[1], block)
        assert np.array_equal(out, heat_evolve(cut_op, block, ts, backend="contour").values)
        for j in range(block.shape[1]):
            column = heat_evolve(cut_op, block[:, j], ts, backend="contour").values
            assert np.array_equal(out[:, :, j], column)
        norms = np.linalg.norm(block, axis=0)
        for i, t in enumerate(ts):
            alone = heat_evolve(cut_op, block, t, backend="contour").values
            assert np.all(np.linalg.norm(out[i] - alone, axis=0) <= 2.0 * tol * norms)

    def test_batch_across_the_exact_cut_stays_zero(self, cut_op):
        # several groups of times, each with its own rule: the far side of
        # the zero conductance stays exactly 0 at every time
        xs = cut_op.mesh.axis(0)
        assert np.any(cut_op.matrix.diagonal(1) == 0.0)
        block = np.column_stack([np.exp(-((xs + c) ** 2)) * (xs < 0) for c in (0.5, 1.0, 2.0)])
        ts = np.geomspace(1e-3, 50.0, 12)
        assert len(evolve_mod._contour_groups(ts, evolve_mod.DEFAULT_TOL)) > 1
        out = heat_evolve(cut_op, block, ts, backend="contour").values
        assert np.all(out[:, xs > 0] == 0.0)
        assert np.all(out[:, xs < 0].sum(axis=1) > 0.0)

    def test_multitime_peak_holds_one_chunk_of_solutions(self):
        # tracemalloc sees numpy's buffers.  One time takes 13 shifts, three
        # times over [0.5, 1] 28 and four over [0.01, 1] 44; at most
        # CONTOUR_CHUNK solutions are held at a time, so the peak does not
        # grow with the shifts, where holding every solution would add
        # 16 N k bytes per shift
        mesh = build_mesh(1, (-4.0, 4.0), 2048)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        block = np.random.default_rng(33).standard_normal((op.size, 8))
        peaks, shifts = [], []
        for ts in ([1.0], [0.5, 0.75, 1.0], np.geomspace(0.01, 1.0, 4)):
            groups = evolve_mod._contour_groups(np.array(ts), evolve_mod.DEFAULT_TOL)
            shifts.append(sum(s.size for _, _, s, _ in groups))
            tracemalloc.start()
            try:
                heat_evolve(op, block, ts, backend="contour")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert shifts == [13, 28, 44]
        solution = 16 * block.size
        assert peaks[2] - peaks[0] < 0.25 * (shifts[2] - shifts[0]) * solution
        assert peaks[2] - peaks[1] < 0.25 * (shifts[2] - shifts[1]) * solution

    def test_tol_below_the_rational_floor_raises(self, cut_op):
        with pytest.raises(SolverError, match="contour rule"):
            heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour", tol=1e-16)

    def test_fewer_nodes_for_a_looser_tol(self, cut_op):
        ((*_, s_loose, _),) = evolve_mod._contour_groups(np.array([1.0]), 1e-6)
        ((*_, s_tight, _),) = evolve_mod._contour_groups(np.array([1.0]), 1e-13)
        single = [row[1] for row in evolve_mod.CONTOUR_ROWS if row[0] == 1.0]
        assert s_loose.size < s_tight.size == max(single)
        exact = heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour").values
        loose = heat_evolve(cut_op, np.ones(cut_op.size), 1.0, backend="contour", tol=1e-6).values
        assert 1e-12 < np.abs(loose - exact).max() <= 1e-6

    def test_groups_cut_from_the_smallest_time(self):
        # a grid wider than the widest row is cut into groups from its
        # smallest time up; each group takes the fewest shifts that cover it,
        # or its first time takes the single-time row when single rows for
        # each of its times take no more shifts
        tol = evolve_mod.DEFAULT_TOL
        rows = [row for row in evolve_mod.CONTOUR_ROWS if row[5] <= tol]
        widest = max(row[0] for row in rows)
        single = min(row[1] for row in rows if row[0] == 1.0)
        ts = np.geomspace(1e-3, 1e3, 25)
        groups = evolve_mod._contour_groups(ts, tol)
        assert groups[0][0] == 0 and groups[-1][1] == ts.size
        for (lo, hi, s, W), nxt in zip(groups, groups[1:] + [None]):
            assert ts[hi - 1] <= widest * ts[lo]
            assert W.shape == (2 * s.size, hi - lo)
            assert nxt is None or (nxt[0] == hi and ts[hi] > widest * ts[lo])
            fewest = min(row[1] for row in rows if row[0] * ts[lo] >= ts[hi - 1])
            assert s.size == fewest < (hi - lo) * single
        ((*_, s, _),) = evolve_mod._contour_groups(np.array([2.0]), tol)
        assert s.size == single
        # two times at any ratio, and t_small's [0.1, 0.5], take two single
        # rows (26 shifts) where one row over both would take 28 or 44
        for pair in ([0.01, 1.0], [0.1, 0.5]):
            groups = evolve_mod._contour_groups(np.array(pair), tol)
            assert [(lo, hi, s.size) for lo, hi, s, _ in groups] == [(0, 1, single), (1, 2, single)]
        ((lo, hi, s, _),) = evolve_mod._contour_groups(np.array([0.5, 0.75, 1.0]), tol)
        assert (lo, hi, s.size) == (0, 3, 28)

    def test_2d_rejected(self):
        op = assemble(CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0)),
                      build_mesh(2, (-1.0, 1.0), 8), 0.0)
        assert evolve_mod.exp_backend(op) == "chebyshev"
        with pytest.raises(ValueError, match="1D"):
            heat_evolve(op, np.ones(op.size), 0.1, backend="contour")

    @pytest.mark.parametrize("delta, n", [(0.0, 64), (0.75, 63), (0.5, 64)],
                             ids=["laplacian", "degenerate-cut", "degenerate"])
    def test_diagonal_matches_mpmath(self, delta, n):
        # t lambda_max from 1e-3 to 1e7; the catalogue reaches about 3e6.
        # Eleven times a decade apart take a single-time row each; 21 times
        # half a decade apart share one row in groups of five
        op = assemble(power1d(delta, domain=(-4.0, 4.0)), build_mesh(1, (-4.0, 4.0), n), 0.0)
        x_max = np.geomspace(1e-3, 1e7, 21)
        ts = x_max / op.spectral_norm_bound
        tol = evolve_mod.DEFAULT_TOL
        ref = mp_diagonal(op, ts)
        for pick, widest in ((slice(None, None, 2), 1), (slice(None), 5)):
            groups = evolve_mod._contour_groups(ts[pick], tol)
            assert max(hi - lo for lo, hi, _, _ in groups) == widest
            got = evolve_mod._contour_diag(op, ts[pick], tol)
            assert got.shape == (op.size, ts[pick].size)
            assert np.abs(got - ref[:, pick]).max() <= tol

    def test_diagonal_tol_below_the_rational_floor_raises(self, cut_op):
        with pytest.raises(SolverError, match="contour rule"):
            evolve_mod._contour_diag(cut_op, np.array([1.0]), 1e-16)

    @pytest.mark.parametrize("row", evolve_mod.CONTOUR_ROWS, ids=lambda row: f"{row[0]:g}-{row[1]}")
    def test_row_meets_its_bound_on_a_finer_grid(self, row):
        # the rows were fitted on 100 times a decade of tau and their bounds
        # measured on 400 and on 4801 points x (tools/contour_rows.py); here
        # on the midpoints of 1000 times a decade and of those 4801 points
        lam, n, mu, alpha, hn, bound = row
        s, w = evolve_mod._hyperbola(n, mu, alpha, hn / n)
        fitted = np.geomspace(1e-8, 1e16, 4801)
        x = np.concatenate([[0.0], np.sqrt(fitted[:-1] * fitted[1:])])
        resolvents = 1.0 / (s + x[:, None])
        steps = int(np.ceil(1000 * np.log10(lam)))
        taus = np.geomspace(1.0, lam, 2 * steps + 1)[1::2] if lam > 1 else np.ones(1)
        worst = 0.0
        for chunk in np.array_split(taus, max(1, taus.size // 200)):
            v = w[:, None] * np.exp(np.outer(s, chunk))
            err = np.abs(np.exp(-np.outer(x, chunk)) - (resolvents @ v).real).max(axis=0)
            roundoff = 2.0 * np.finfo(float).eps * np.abs(v).sum(axis=0)
            worst = max(worst, float((err + roundoff).max()))
        assert worst <= bound
        assert s.size == n and np.all(np.diff(s.real) < 0) and np.all(s.imag >= 0)


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
            assert s.strategy == "contour"

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
        # 2D: blocks of evolved kernel columns against a dense eigh diagonal
        mesh = build_mesh(2, (-1.0, 1.0), 12)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        lam, V = eigh(op.matrix.toarray())
        lam = np.maximum(lam, 0.0)
        ts = [0.05, 0.2]
        multi = sup_kernel(op, ts, sample_indices=np.arange(op.size))
        assert multi.strategy == "columns"
        for t, value in zip(ts, multi.value):
            ref = np.einsum("ij,ij->i", V, V * np.exp(-t * lam)).max() / mesh.cell_volume
            assert value == pytest.approx(ref, rel=1e-8)
        assert multi.value[1] == sup_kernel(op, 0.2, sample_indices=np.arange(op.size)).value

    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["default", "tiny"])
    def test_columns_scan_feeds_every_lane(self, block_bytes, monkeypatch):
        # two lanes per block, also when BLOCK_BYTES holds less than a
        # column: a block is then CPUS columns wide
        op = shell_op(16)
        monkeypatch.setattr(evolve_mod, "CPUS", 2)
        if block_bytes is not None:
            monkeypatch.setattr(evolve_mod, "BLOCK_BYTES", block_bytes)
        width = max(2, evolve_mod.BLOCK_BYTES // (8 * op.size))
        idx = np.arange(0, op.size, 7)
        ts = [0.02, 0.2]
        jobs = record_lanes(monkeypatch)
        got = sup_kernel(op, ts, sample_indices=idx)
        assert got.strategy == "columns"
        assert jobs == [2] * -(-idx.size // width)
        for t, value in zip(ts, got.value):
            assert value == max(kernel_column(op, i, t).values[i] for i in idx)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_empty_sample_set_raises(self, dimension):
        mesh = build_mesh(dimension, (-1.0, 1.0), 8)
        centers = ((0.0,) * dimension,)
        op = assemble(CoefficientProfile(dimension, PowerDegenerate(0.5, centers), (-1.0, 1.0)), mesh, 0.0)
        for picked, margin in (([0], 0.5), ([], 0.0), (None, 1.5)):
            with pytest.raises(ValueError, match="empty sample set"):
                sup_kernel(op, [0.1, 0.2], sample_indices=picked, boundary_margin=margin)


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

    @pytest.mark.parametrize(
        "family",
        [RadialShell(0.75, 0.5, width=0.25), PowerDegenerate(0.5, ((0.0, 0.0),))],
        ids=["radial_shell_plateau", "power"],
    )
    @pytest.mark.parametrize("m", [1, 2])
    def test_2d_matches_splu(self, family, m):
        from scipy.sparse.linalg import splu

        mesh = build_mesh(2, (-1.0, 1.0), 32)
        op = assemble(CoefficientProfile(2, family, (-1.0, 1.0)), mesh, 0.0)
        delta = np.zeros(op.size)
        delta[mesh.nearest_index((0.0, 0.0))] = 1.0
        radii = [0.02, 0.05, 0.1, 0.2, 0.4]
        us = resolvent_power_apply(op, radii, m, delta)
        for r, u in zip(radii, us):
            lu = splu(sp.csc_matrix(sp.identity(op.size) + r * r * op.matrix))
            ref = delta
            for _ in range(m):
                ref = lu.solve(ref)
            assert np.dot(u, u) == pytest.approx(np.dot(ref, ref), rel=1e-12, abs=0)
        if isinstance(family, RadialShell):
            # sparse products keep the region behind the plateau exactly 0
            behind = np.linalg.norm(mesh.points(), axis=1) > 0.75
            assert behind.any() and np.all(us[:, behind] == 0.0)

    def test_radii_sequence_is_each_radius_alone(self, cut_op):
        mesh = build_mesh(2, (-1.0, 1.0), 16)
        op2 = assemble(CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0)), mesh, 0.0)
        for op in (cut_op, op2):
            phi = np.random.default_rng(25).standard_normal(op.size)
            radii = [0.3, 0.05, 0.7]
            us = resolvent_power_apply(op, radii, 2, phi)
            assert us.shape == (3, op.size)
            for r, u in zip(radii, us):
                assert np.array_equal(u, resolvent_power_apply(op, r, 2, phi))

    def test_2d_short_expansion_raises(self, monkeypatch):
        mesh = build_mesh(2, (-1.0, 1.0), 16)
        op = assemble(CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0)), mesh, 0.0)
        full = evolve_mod._resolvent_coefficients

        def half(*args):
            c = full(*args)
            return c[: len(c) // 2 + 1]

        monkeypatch.setattr(evolve_mod, "_resolvent_coefficients", half)
        delta = np.zeros(op.size)
        delta[mesh.nearest_index((0.0, 0.0))] = 1.0
        with pytest.raises(SolverError, match="residual"):
            resolvent_power_apply(op, [0.1, 0.3], 1, delta)

    def test_zero_operator_returns_phi(self):
        mesh = build_mesh(2, (-1.0, 1.0), 8)
        op = DiscreteOperator(sp.csr_matrix((mesh.size, mesh.size)), mesh, 0.0)
        phi = np.random.default_rng(26).standard_normal(op.size)
        assert np.array_equal(resolvent_power_apply(op, 0.5, 3, phi), phi)
        assert np.array_equal(resolvent_power_apply(op, [0.5, 2.0], 1, phi), [phi, phi])

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

    def test_time_zero_in_a_batch(self, laplace_op):
        phi = np.sin(np.arange(laplace_op.size) * 0.01)
        out = wave_evolve(laplace_op, phi, [0.5, 0.0, 1.0]).displacement
        assert np.array_equal(out[1], phi)
        assert not np.array_equal(out[0], phi)

    def test_against_exact_cosine(self):
        # eigendecomposition-exact cos(t sqrt(A)) phi at every time of one
        # call, on the Laplacian, a delta = 0.5 operator and an exact cut
        ts = [0.5, 1.0, 4.0]
        for delta, n, domain in [(0.0, 512, (-8.0, 8.0)), (0.5, 255, (-4.0, 4.0)),
                                 (0.75, 511, (-4.0, 4.0))]:
            mesh = build_mesh(1, domain, n)
            op = assemble(power1d(delta, domain=domain), mesh, 0.0)
            xs = mesh.axis(0)
            phi = np.exp(-((xs + 0.5) ** 2) * 8)
            lam, V = dense_eig(op)
            # t = 1e-9 alone: its expansion needs one term, the recurrence two
            tiny = wave_evolve(op, phi, 1e-9).displacement
            for t, u in [*zip(ts, wave_evolve(op, phi, ts).displacement), (1e-9, tiny)]:
                exact = V @ (np.cos(t * np.sqrt(lam)) * (V.T @ phi))
                assert np.linalg.norm(u - exact) <= 1e-10 * np.linalg.norm(phi)
                if delta == 0.0:
                    # support expansion at most t + 4h beyond the initial support
                    thresh = 1e-8 * np.abs(phi).max()
                    r0 = np.abs(xs[np.abs(phi) > thresh]).max()
                    r1 = np.abs(xs[np.abs(exact) > thresh]).max()
                    assert r1 <= r0 + t + 4 * mesh.h

    def test_batch_bitwise_its_one_time_calls(self, laplace_op):
        phi = np.random.default_rng(41).standard_normal(laplace_op.size)
        ts = [1.0, 0.25, 3.0, 0.5]
        w = wave_evolve(laplace_op, phi, ts)
        assert w.displacement.shape == (len(ts), laplace_op.size)
        assert w.dt == 0.0 and np.array_equal(w.time, ts)
        for t, u in zip(ts, w.displacement):
            alone = wave_evolve(laplace_op, phi, t)
            assert alone.time == t
            assert np.array_equal(u, alone.displacement)
        # each column of a block is bitwise its own call
        block = wave_evolve(laplace_op, np.column_stack([phi[::-1], phi]), ts).displacement
        assert np.array_equal(block[:, :, 1], w.displacement)

    def test_batch_across_the_exact_cut_stays_zero(self, cut_op):
        xs = cut_op.mesh.axis(0)
        assert np.any(cut_op.matrix.diagonal(1) == 0.0)
        phi = np.exp(-((xs + 1.0) ** 2)) * (xs < 0)
        out = wave_evolve(cut_op, phi, [0.5, 1.0, 2.0, 4.0]).displacement
        assert np.all(out[:, xs > 0] == 0.0)
        assert np.all(np.abs(out[:, xs < 0]).sum(axis=1) > 0.0)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 30.0, 300.0, 2000.0])
    def test_coefficients_are_jacobi_anger_cut_below_tol(self, a):
        tol = evolve_mod.DEFAULT_TOL
        c = evolve_mod._wave_coefficients(a, tol)
        k = np.arange(c.size)
        assert np.array_equal(c, np.where(k > 0, 2.0 * (-1.0) ** k, 1.0) * jv(2 * k, a))
        dropped = 2.0 * np.abs(jv(2 * np.arange(c.size, 2 * int(a) + 100), a)).sum()
        assert dropped <= tol
        # the degree is about a/2
        assert c.size <= 0.5 * a + 8.0 * a ** (1 / 3) + 20


class TestEigCache:
    def test_tridiagonal_matches_dense(self):
        # operator_eig, the reference other tests compare against, against a
        # dense eigh of the assembled matrix
        mesh = build_mesh(1, (-1.0, 1.0), 48)
        op = assemble(power1d(0.3, domain=(-1.0, 1.0)), mesh, 1e-3)
        lam, V = operator_eig(op)
        A = op.matrix.toarray()
        lam_ref = eigh(A, eigvals_only=True)
        norm = np.abs(lam_ref).max()
        bound = 64 * op.size * np.finfo(float).eps
        assert np.all(np.diff(lam) >= 0)
        assert np.abs(lam - lam_ref).max() <= bound * norm
        assert np.linalg.norm(A @ V - V * lam, 2) <= bound * norm
        assert np.linalg.norm(V.T @ V - np.eye(op.size), 2) <= bound


def random_operator(N, palindromic, rng):
    """A 1D operator of N points on a stand-in mesh (h = 1): the tridiagonal
    generator of random conductances in [0.5, 2] plus a random potential in
    [0, 1] on the diagonal, so positive semidefinite.  palindromic makes the
    conductances and the potential their own reversal (a mirror-symmetric
    operator)."""
    c, r = rng.uniform(0.5, 2.0, N - 1), rng.uniform(0.0, 1.0, N)
    if palindromic:
        c, r = c + c[::-1], r + r[::-1]
    return operator_from(c, r)


def operator_from(c, r):
    """The operator with couplings -c and row sums r; palindromes (c, r)
    give a diagonal that is its own reversal bit for bit."""
    N = r.size
    diag = r + (np.concatenate([[0.0], c]) + np.concatenate([c, [0.0]]))
    A = sp.diags([-c, diag, -c], [-1, 0, 1], format="csr")
    return DiscreteOperator(A, Mesh(1, ((0.0, float(N)),), N - 1, 1.0), 0.0)


class TestEigBasis:
    """The 1D operations on the contour against a dense eigh reference,
    through what does not depend on the choice of eigenvectors: f(A) phi
    (heat_evolve), (phi, f(A) phi) (heat_gram) and the diagonal of f(A)
    (_contour_diag, sup_kernel), for t lambda_max from 1e-2 to 1e2."""

    @pytest.mark.parametrize("palindromic", [True, False], ids=["mirror", "full"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 64, 65, 257])
    def test_operations_match_dense_eigh(self, N, palindromic):
        rng = np.random.default_rng(300 + N)
        op = random_operator(N, palindromic, rng)
        lam, Z = eigh(op.matrix.toarray())
        ts = np.array([1e-2, 1.0, 1e2]) / op.spectral_norm_bound
        phi = rng.standard_normal((N, 3))
        norms = np.linalg.norm(phi, axis=0)
        tol = evolve_mod.DEFAULT_TOL

        evolved = heat_evolve(op, phi, ts, backend="contour").values
        gram = heat_gram(op, phi, phi, ts)
        diag = evolve_mod._contour_diag(op, ts, tol)
        assert evolved.shape == (3, N, 3) and gram.shape == (3, 3, 3) and diag.shape == (N, 3)
        for k, t in enumerate(ts):
            F = (Z * np.exp(-t * lam)) @ Z.T
            assert np.linalg.norm(evolved[k] - F @ phi, axis=0).max() <= tol * norms.max()
            assert np.all(np.abs(gram[k] - phi.T @ F @ phi) <= 1e-13 * np.outer(norms, norms))
            assert np.abs(diag[:, k] - np.diag(F)).max() <= tol
        assert np.array_equal(sup_kernel(op, ts).value, diag.max(axis=0))
        if palindromic:
            assert np.abs(diag - diag[::-1]).max() <= 64 * np.finfo(float).eps

    def test_no_dense_matrix_on_the_1d_path(self):
        # tracemalloc sees numpy's buffers.  The Gram forms evolve three
        # columns and the diagonal sweeps hold one (N, 2, nodes x times)
        # complex buffer, about a fifth of one dense N x N matrix here
        mesh = build_mesh(1, (-4.0, 4.0), 2048)
        op = assemble(power1d(0.5, domain=(-4.0, 4.0)), mesh, 0.0)
        dense = 8 * op.size * op.size
        xs = mesh.axis(0)
        phi = np.column_stack([(np.abs(xs - c) < 0.5).astype(float) for c in (-2.0, 0.0, 1.5)])
        ts = np.geomspace(1e-3, 1.0, 8)
        tracemalloc.start()
        try:
            heat_gram(op, phi, phi, ts)
            sup_kernel(op, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * dense


def dct_gram(phi, h, ts):
    """(phi_i, e^{-tA} phi_j) for the uniform Laplacian A with reflecting
    ends (diagonal 1, 2, ..., 2, 1 and couplings -1, over h^2) from its
    analytic eigenbasis: cos(pi k (i + 1/2) / N), the DCT-II, with
    eigenvalues 4 sin^2(pi k / (2N)) / h^2."""
    from scipy.fft import dct

    N = phi.shape[0]
    P = dct(phi, type=2, norm="ortho", axis=0)
    lam = 4.0 * np.sin(np.pi * np.arange(N) / (2 * N)) ** 2 / h**2
    return np.array([P.T @ (np.exp(-t * lam)[:, None] * P) for t in ts])


class TestHeatGram:
    def masks(self, mesh, centers, width=0.5):
        xs = mesh.axis(0)
        return np.column_stack([(np.abs(xs - c) < width).astype(float) for c in centers])

    def test_laplacian1d_matches_the_analytic_gram(self):
        # the builtin laplacian1d operator and its off-diagonal balls, in the
        # check's weighted units (the check's lhs is |gram| * cell volume)
        from degenlab.scenarios import ScenarioContext, builtin_by_name

        doc = builtin_by_name("laplacian1d")
        ctx = ScenarioContext(doc)
        op, mesh = ctx.operator(), ctx.mesh
        (balls,) = [c["params"]["balls"] for c in doc["checks"] if c["check"] == "offdiagonal_gaussian"]
        phi = np.column_stack([ctx.dist_field(b["center"]).values < b["radius"] for b in balls])
        phi = phi.astype(float)
        ts = [0.1, 1.0]
        gram = heat_gram(op, phi, phi, ts)
        ref = dct_gram(phi, mesh.h, ts)
        assert np.abs(gram - ref).max() * mesh.cell_volume <= 1e-13

    def test_contour_path_is_the_per_pair_dots(self, cut_op):
        phi = self.masks(cut_op.mesh, (-2.0, 0.0, 1.5))
        ts = [0.0, 0.01, 0.2, 1.0]
        gram = heat_gram(cut_op, phi, phi, ts)
        assert gram.shape == (4, 3, 3)
        evolved = heat_evolve(cut_op, phi, ts, backend="contour", tol=1e-13).values
        rows = np.ascontiguousarray(phi.T)
        for g, block in zip(gram, evolved):
            columns = np.ascontiguousarray(block.T)
            ref = [[np.dot(rows[i], columns[j]) for j in range(3)] for i in range(3)]
            assert np.array_equal(g, np.array(ref))
        # the pairs i < j from the columns they read, as the off-diagonal checks take them
        assert np.array_equal(heat_gram(cut_op, phi[:, :-1], phi[:, 1:], ts), gram[:, :-1, 1:])

    def test_chebyshev_path_is_the_per_pair_dots(self):
        mesh = build_mesh(2, (-1.0, 1.0), 24)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        pts = mesh.points()
        phi = np.column_stack([np.linalg.norm(pts - c, axis=1) < 0.4
                               for c in ((-0.5, 0.0), (0.5, 0.2), (0.0, -0.5))]).astype(float)
        ts = [0.01, 0.1]
        gram = heat_gram(op, phi, phi, ts)
        evolved = heat_evolve(op, phi, ts, tol=1e-13).values
        masks = [np.array(col) for col in phi.T]
        for g, block in zip(gram, evolved):
            columns = np.ascontiguousarray(block.T)
            ref = [[np.dot(masks[i], columns[j]) for j in range(3)] for i in range(3)]
            assert np.array_equal(g, np.array(ref))
        assert np.array_equal(heat_gram(op, phi[:, :-1], phi[:, 1:], ts), gram[:, :-1, 1:])

    def test_exact_cut_gives_exact_zero(self, cut_op):
        # the shifted factors never couple across the zero conductance, so
        # every evolved column vanishes exactly on the far side
        phi = self.masks(cut_op.mesh, (-1.0, 1.3, 2.0), width=0.4)
        gram = heat_gram(cut_op, phi, phi, [0.1, 1.0, 4.0])
        assert np.all(gram[:, 0, 1:] == 0.0) and np.all(gram[:, 1:, 0] == 0.0)
        assert np.all(gram[:, 1:, 1:] > 0.0)

    def test_mirror_cut_gives_exact_zero(self):
        # a zero conductance between the two middle points of a mirror-
        # symmetric operator (N even): the two halves never meet
        mesh = build_mesh(1, (-1.0, 1.0), 63)
        op = assemble(power1d(0.0, domain=(-1.0, 1.0)), mesh, 0.0)
        A = op.matrix.tolil()
        c = A[31, 32]
        A[31, 32] = A[32, 31] = 0.0
        A[31, 31] += c
        A[32, 32] += c
        op.matrix = A.tocsr()
        phi = self.masks(mesh, (-0.6, 0.3, 0.7), width=0.2)
        gram = heat_gram(op, phi, phi, [0.01, 0.1, 1.0])
        assert np.all(gram[:, 0, 1:] == 0.0) and np.all(gram[:, 1:, 0] == 0.0)
        assert np.all(gram[:, 1:, 1:] > 0.0)

    def test_negative_time_rejected(self, laplace_op):
        ones = np.ones((laplace_op.size, 1))
        with pytest.raises(ValueError):
            heat_gram(laplace_op, ones, ones, [0.1, -0.1])


class TestMirrorSplit:
    """The contour on operators equal to their own reversal, checked against
    the full eigenproblem: the kernel diagonal is a palindrome and
    evolution commutes with the reversal, up to roundoff."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 64, 65, 257])
    def test_random_mirror_matrices(self, N):
        rng = np.random.default_rng(N)
        op = random_operator(N, True, rng)
        d, e = op.matrix.diagonal(), op.matrix.diagonal(1)
        assert np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
        lam, V = eigh_tridiagonal(d, e)
        ts = np.array([1e-2, 1.0, 1e2]) / op.spectral_norm_bound
        eps = np.finfo(float).eps
        diag = evolve_mod._contour_diag(op, ts, evolve_mod.DEFAULT_TOL)
        assert np.abs(diag - diag[::-1]).max() <= 64 * eps
        ref = np.stack([(V**2) @ np.exp(-t * lam) for t in ts], axis=1)
        assert np.abs(diag - ref).max() <= evolve_mod.DEFAULT_TOL
        phi = rng.standard_normal((N, 2))
        forward = heat_evolve(op, phi, ts, backend="contour").values
        mirrored = heat_evolve(op, phi[::-1], ts, backend="contour").values
        assert np.abs(forward[:, ::-1] - mirrored).max() <= 64 * eps * np.linalg.norm(phi, axis=0).max()

    def test_even_n_parity_ties(self):
        # a zero conductance between the two middle points (an aligned cut)
        # decouples two mirror-image halves: every eigenvalue is double, and
        # the contour sees each half as if it were alone
        rng = np.random.default_rng(7)
        c, r = rng.uniform(0.5, 2.0, 63), rng.uniform(0.0, 1.0, 64)
        c, r = c + c[::-1], r + r[::-1]
        c[31] = 0.0
        op = operator_from(c, r)
        lam = eigh_tridiagonal(op.matrix.diagonal(), op.matrix.diagonal(1), eigvals_only=True)
        assert np.abs(lam[0::2] - lam[1::2]).max() <= 64 * 64 * np.finfo(float).eps * lam.max()
        half = operator_from(c[:31], r[:32])
        assert half.spectral_norm_bound == op.spectral_norm_bound
        ts = np.array([1e-2, 1.0, 1e2]) / op.spectral_norm_bound
        diag = evolve_mod._contour_diag(op, ts, evolve_mod.DEFAULT_TOL)
        alone = evolve_mod._contour_diag(half, ts, evolve_mod.DEFAULT_TOL)
        assert np.array_equal(diag[:32], alone)
        assert np.abs(diag[32:] - alone[::-1]).max() <= 64 * np.finfo(float).eps
        phi = np.zeros(64)
        phi[:32] = rng.standard_normal(32)
        evolved = heat_evolve(op, phi, ts, backend="contour").values
        assert np.all(evolved[:, 32:] == 0.0)
        assert np.array_equal(evolved[:, :32], heat_evolve(half, phi[:32], ts, backend="contour").values)
