"""Actions of the discrete semigroup e^{-tA}, the wave propagator
cos(t A^{1/2}), and resolvent powers (I + r^2 A)^{-m}.

The default exponential action is a Chebyshev polynomial approximation of
exp(-t x) on the Gershgorin interval [0, lambda_max].  Coefficients come from
scaled modified Bessel functions, so the polynomial reproduces exp exactly at
the spectrum endpoints in exact arithmetic; in particular p(A) 1 = 1 to
machine precision (zero row sums), and sparse matrix-vector products keep
decoupled blocks exactly decoupled.  The required degree grows like
sqrt(t * lambda_max), with squaring-free substepping past the degree cap.

For 1D operators (tridiagonal matrices) a full eigendecomposition is cheap up
to a few thousand points and is the preferred backend for whole-diagonal
kernel scans.  It is computed once per operator (concurrent callers wait on
the operator's lock) and optionally memoized on disk under $DEGENLAB_CACHE,
written through a temporary file and validated on load.  A tridiagonal matrix
that equals its own reversal bit for bit (an even coefficient on a symmetric
box) commutes with the reflection, so its even and odd eigenvectors come from
two half-size tridiagonal problems; any other matrix takes one full solve.

heat_evolve and sup_kernel are the batched entry points: they take a block of
columns and a sequence of times.  The vectors T_k(M) phi do not depend on t,
so one Chebyshev recurrence serves a whole time grid and every (t, column)
result is bitwise the one-vector, one-t result; the eig backend does one GEMM
over all (t, column) pairs.
"""

import hashlib
import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, eigh_tridiagonal, solveh_banded
from scipy.special import ive

from .errors import CflError, SolverError
from .grid import DiscreteOperator

EIG_POINT_CAP = 4200  # dense eigenvector matrix stays comfortably in memory
CHEB_DEGREE_CAP = 24_000
DEFAULT_TOL = 1e-12
BLOCK_BYTES = 1 << 19  # column slice of a block evolution, sized for the cache
IMPLICIT_STEPS = 128  # backward-Euler steps per evolution time

log = logging.getLogger(__name__)


@dataclass
class HeatField:
    """Density vector at a given time; sum(values) * cell_volume is mass."""

    values: np.ndarray
    time: float
    mesh: object
    source: int | None = None

    @property
    def mass(self):
        return float(self.values.sum() * self.mesh.cell_volume)


@dataclass
class WaveField:
    displacement: np.ndarray
    previous: np.ndarray
    time: float
    dt: float
    energy_drift: float = 0.0


# ---------------------------------------------------------------------------
# eigendecomposition backend


def operator_eig(op: DiscreteOperator, point_cap=EIG_POINT_CAP):
    """Full spectrum and eigenvectors of the operator; computed once per
    operator (concurrent callers wait for the first) and, when
    $DEGENLAB_CACHE is set, memoized on disk."""
    if op._eig is None:
        with op._lock:
            if op._eig is None:
                op._eig = _compute_eig(op, point_cap)
    return op._eig


def _compute_eig(op, point_cap):
    N = op.size
    if N > point_cap:
        raise ValueError(f"eigendecomposition disabled for N={N} > {point_cap}")
    cache_dir = os.environ.get("DEGENLAB_CACHE")
    key = None
    if cache_dir:
        A = op.matrix.tocsr()
        digest = hashlib.sha256(A.indptr.tobytes() + A.indices.tobytes() + A.data.tobytes())
        key = os.path.join(cache_dir, f"eig_{digest.hexdigest()[:24]}.npz")
        try:
            with open(key, "rb") as fh, np.load(fh) as data:
                lam, V = data["lam"], data["V"]
            if lam.shape == (N,) and V.shape == (N, N) and np.all(np.isfinite(lam)):
                log.debug("operator_eig N=%d: disk cache hit %s", N, key)
                return lam, V
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            pass  # missing or damaged: recompute and rewrite
        log.debug("operator_eig N=%d: disk cache miss %s", N, key)
    if op.mesh.dimension == 1:
        lam, V = _tridiagonal_eig(op.matrix.diagonal(), op.matrix.diagonal(1))
    else:
        log.debug("operator_eig N=%d: dense eigh", N)
        lam, V = eigh(op.matrix.toarray())
    lam = np.maximum(lam, 0.0)
    if key:
        os.makedirs(cache_dir, exist_ok=True)
        # a crash mid-write leaves a stray temporary, never a truncated entry
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, lam=lam, V=V)
            os.replace(tmp, key)
        except BaseException:
            os.unlink(tmp)
            raise
    return lam, V


def _tridiagonal_eig(d, e):
    """eigh_tridiagonal(d, e): ascending lam and orthonormal columns of V.

    When d and e are palindromes the matrix commutes with the reflection
    J (i -> N-1-i), and its eigenvectors split into even (Jv = v) and odd
    (Jv = -v) ones, each fixed by its half on rows m = N // 2 onward
    (Cantoni and Butler, Linear Algebra Appl. 13, 1976).  On that half the
    matrix acts as a tridiagonal block of size about N/2: for odd N, the
    even block couples the center with weight sqrt(2) and the odd block
    starts past it; for even N, the two blocks differ only in their first
    entry, d[m] +- e[m-1].  The full vectors mirror the half vectors with
    weight 1/sqrt(2); lam is sorted stably, even before odd on ties.
    """
    N = d.size
    if N < 2 or not (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])):
        log.debug("tridiagonal eig N=%d: one full solve", N)
        return eigh_tridiagonal(d, e)
    m, odd = N // 2, N % 2
    if odd:
        d_even, e_even = d[m:], e[m:].copy()
        e_even[0] *= np.sqrt(2.0)
        d_odd, e_odd = d[m + 1 :], e[m + 1 :]
    else:
        d_even, d_odd = d[m:].copy(), d[m:].copy()
        d_even[0] += e[m - 1]
        d_odd[0] -= e[m - 1]
        e_even = e_odd = e[m:]
    lam_even, W_even = eigh_tridiagonal(d_even, e_even)
    lam_odd, W_odd = eigh_tridiagonal(d_odd, e_odd)
    n_even = lam_even.size
    log.debug("tridiagonal eig N=%d: mirror split %d even + %d odd", N, n_even, lam_odd.size)
    lam = np.concatenate([lam_even, lam_odd])
    order = np.argsort(lam, kind="stable")
    sign = np.where(order < n_even, 1.0, -1.0)
    # rows m.. hold the half vectors; row m - 1 - k (N even) or m - k
    # (N odd) mirrors row m + k, which is row m + k of the reversed view.
    # Row blocks are gathered by np.take (a column scatter into V is slow);
    # order is a permutation, so mode="clip" never clips and skips a copy.
    V = np.empty((N, N))
    V_rev = V[::-1]
    rows = max(1, BLOCK_BYTES // (8 * N))
    half = np.empty((rows, N))
    for lo in range(odd, N - m, rows):
        hi = min(lo + rows, N - m)
        blk = half[: hi - lo]
        blk[:, :n_even] = W_even[lo:hi]
        blk[:, n_even:] = W_odd[lo - odd : hi - odd]
        blk *= np.sqrt(0.5)
        np.take(blk, order, axis=1, out=V[m + lo : m + hi], mode="clip")
        np.multiply(V[m + lo : m + hi], sign, out=V_rev[m + lo : m + hi])
    if odd:  # the center row: even vectors unscaled, odd vectors vanish
        center = np.zeros(N)
        center[:n_even] = W_even[0]
        V[m] = center[order]
    return lam[order], V


def _eig_expm_apply(op, phi, ts):
    """V exp(-t Lambda) V^T phi for all t in ts: one GEMM over every (t, column)."""
    lam, V = operator_eig(op)
    decay = np.exp(np.multiply.outer(-ts, lam))
    scaled = decay.reshape(decay.shape + (1,) * (phi.ndim - 1)) * (V.T @ phi)
    out = V @ np.moveaxis(scaled, 0, 1).reshape(op.size, -1)
    return np.moveaxis(out.reshape((op.size, len(ts)) + phi.shape[1:]), 1, 0)


# ---------------------------------------------------------------------------
# Chebyshev exponential action


def _cheb_coefficients(a, tol):
    """Coefficients c_k with exp(-a(1+xi)) = sum c_k T_k(xi) on [-1, 1]:
    c_0 = e^{-a} I_0(a), c_k = 2 e^{-a} (-1)^k I_k(a).  Raises SolverError
    when the degree cap would leave a tail above tol."""
    guess = int(np.sqrt(80.0 * max(a, 1.0))) + 80
    mags = ive(np.arange(guess + 2), a)
    tails = mags[:-1][::-1].cumsum()[::-1]
    keep = np.nonzero(tails > 0.25 * tol)[0]
    deg = int(keep[-1]) + 1 if keep.size else 1
    if deg > guess:
        # I_{k+1}(a) / I_k(a) decreases in k: a geometric series from the
        # first coefficient past the cap bounds what the cap discards
        tail = 2.0 * mags[-1] / (1.0 - mags[-1] / mags[-2])
        if tail > tol:
            raise SolverError(f"Chebyshev degree cap {guess} leaves a tail {tail:.3e} > {tol:.3e}")
        deg = guess
    c = mags[: deg + 1].copy()
    c[1:] *= 2.0
    c[1::2] *= -1.0
    return c


def _cheb_sums(A, scale, y, coefs):
    """sum_k c[k] T_k(M) y with M = scale * A - I for every coefficient
    vector in coefs (longest first) and the (N, k) block y, from one
    three-term recurrence up to the largest degree.  Each sum sees the same
    operations, in the same order, as a recurrence run for it alone."""
    C = np.zeros((len(coefs), len(coefs[0]), 1, 1))
    for i, c in enumerate(coefs):
        C[i, : len(c), 0, 0] = c
    w_prev = y
    w = scale * (A @ y) - y  # T_1(M) y
    acc = C[:, 0] * w_prev + C[:, 1] * w
    live = len(coefs)
    for k in range(2, len(coefs[0])):
        # T_{k+1} = 2 M T_k - T_{k-1}
        w_prev, w = w, 2.0 * scale * (A @ w) - 2.0 * w - w_prev
        while len(coefs[live - 1]) <= k:
            live -= 1
        acc[:live] += C[:live, k] * w
    return acc


def _cheb_expm_apply(op, phi, ts, tol):
    """p_t(A) phi with p_t ~ exp(-t .) uniformly on [0, lambda_max] within
    tol, stacked over t > 0 in ts.  Times without substeps share one
    recurrence, which takes the columns of phi in cache-sized slices."""
    lmax = op.spectral_norm_bound
    cols = phi.reshape(op.size, -1)
    out = np.empty((len(ts),) + cols.shape)
    shared, substepped = [], []
    for i, t in enumerate(ts):
        a = 0.5 * t * lmax
        nsub = 1
        deg_est = int(np.sqrt(80.0 * max(a, 1.0))) + 80
        if deg_est > CHEB_DEGREE_CAP:
            nsub = int(np.ceil(80.0 * a / CHEB_DEGREE_CAP**2)) + 1
        if a == 0.0:
            out[i] = cols
        elif nsub == 1:
            shared.append((i, _cheb_coefficients(a, tol)))
        else:
            substepped.append((i, nsub, _cheb_coefficients(a / nsub, tol / nsub)))
    shared.sort(key=lambda ic: -len(ic[1]))
    rows, coefs = [i for i, _ in shared], [c for _, c in shared]
    width = max(1, BLOCK_BYTES // (8 * op.size))
    for j in range(0, cols.shape[1], width):
        y = np.ascontiguousarray(cols[:, j : j + width])
        if shared:
            out[rows, :, j : j + width] = _cheb_sums(op.matrix, 2.0 / lmax, y, coefs)
        for i, nsub, c in substepped:
            z = y
            for _ in range(nsub):
                z = _cheb_sums(op.matrix, 2.0 / lmax, z, [c])[0]
            out[i, :, j : j + width] = z
    return out.reshape((len(ts),) + phi.shape)


# ---------------------------------------------------------------------------
# implicit backends


def _factorized_shift_solver(op, coef):
    """Solver for (I + coef * A) u = v; banded Cholesky in 1D, sparse LU
    otherwise."""
    N = op.size
    if op.mesh.dimension == 1:
        ab = np.zeros((2, N))
        ab[1] = 1.0 + coef * op.matrix.diagonal()
        ab[0, 1:] = coef * op.matrix.diagonal(1)

        def solve(v):
            return solveh_banded(ab, v)

        return solve
    M = (sp.identity(N, format="csc") + coef * op.matrix.tocsc()).tocsc()
    lu = sp.linalg.splu(M)
    return lu.solve


def _implicit_evolve(op, phi, t):
    """Backward Euler: IMPLICIT_STEPS solves with (I + (t / IMPLICIT_STEPS) A)."""
    solve = _factorized_shift_solver(op, t / IMPLICIT_STEPS)
    u = phi
    for _ in range(IMPLICIT_STEPS):
        u = solve(u)
    return u


# ---------------------------------------------------------------------------
# public operations


def heat_evolve(
    op: DiscreteOperator,
    phi0,
    t,
    backend: str = "chebyshev",
    tol: float = DEFAULT_TOL,
) -> HeatField:
    """Approximation of e^{-tA} phi0.

    phi0 is a vector or an (N, k) block of columns and t a time or a
    sequence of times; with a sequence, values gains a leading time axis.
    Each (t, column) result equals a call for that vector and that t alone,
    bitwise for 'chebyshev' and up to GEMM roundoff for 'eig'.

    Backends: 'chebyshev' (uniform error <= tol * ||phi0||_2 on the Gershgorin
    interval), 'eig' (exact up to roundoff, 1D / small N), 'backward_euler'
    (128 steps, first order, unconditionally positivity preserving for
    M-matrices).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if backend == "chebyshev":
        evolve = lambda s: _cheb_expm_apply(op, phi0, s, tol)
    elif backend == "eig":
        evolve = lambda s: _eig_expm_apply(op, phi0, s)
    elif backend == "backward_euler":
        evolve = lambda s: [_implicit_evolve(op, phi0, u) for u in s]
    else:
        raise ValueError(f"unknown backend '{backend}'")
    vals = np.empty((ts.size,) + phi0.shape)
    live = ts > 0
    vals[~live] = phi0
    if live.any():
        vals[live] = evolve(ts[live])
    if np.ndim(t) == 0:
        return HeatField(vals[0], float(t), op.mesh)
    return HeatField(vals, ts, op.mesh)


def kernel_column(op: DiscreteOperator, source_index: int, t: float, backend="chebyshev"):
    """Heat kernel column K_t(. ; y_source) as a density: the delta datum
    carries 1/cell_volume so values approximate the continuum kernel."""
    if t <= 0:
        raise ValueError("t must be > 0")
    phi = np.zeros(op.size)
    phi[source_index] = 1.0 / op.mesh.cell_volume
    field = heat_evolve(op, phi, t, backend=backend)
    field.source = source_index
    return field


@dataclass
class SupKernelValue:
    value: float
    strategy: str
    t: float


def sup_kernel(
    op: DiscreteOperator,
    t,
    strategy: str = "auto",
    sample_indices=None,
    boundary_margin: float = 0.0,
) -> SupKernelValue:
    """Max on-diagonal kernel density sup_x K_t(x; x); for a sequence of
    times, value and t of the result are arrays.

    1D operators up to the eigendecomposition cap scan the entire diagonal
    exactly, as (V * V) exp(-lambda t) over row slices of V; otherwise the
    scan runs over the declared sample set by blocks of kernel columns.
    boundary_margin excludes diagonal entries within that distance of the box
    boundary, where the reflecting truncation inflates the on-diagonal value
    (image terms) relative to the free-space kernel.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be > 0")
    mesh = op.mesh
    vol = mesh.cell_volume
    keep = _interior_mask(mesh, boundary_margin)
    idx = np.flatnonzero(keep)
    width = max(1, BLOCK_BYTES // (8 * op.size))
    best = np.full(ts.size, -np.inf)
    if strategy == "auto":
        strategy = "eig" if (mesh.dimension == 1 and op.size <= EIG_POINT_CAP) else "columns"
    if strategy == "eig":
        lam, V = operator_eig(op)
        decay = np.exp(-np.multiply.outer(lam, ts))
        for lo in range(0, idx.size, width):
            rows = V[idx[lo : lo + width]]
            best = np.maximum(best, ((rows * rows) @ decay).max(axis=0))
        best /= vol
    elif strategy == "columns":
        if sample_indices is not None:
            sample_indices = np.asarray(sample_indices)
            idx = sample_indices[keep[sample_indices]]
        for lo in range(0, idx.size, width):
            cols = idx[lo : lo + width]
            pick = np.arange(cols.size)
            deltas = np.zeros((op.size, cols.size))
            deltas[cols, pick] = 1.0 / vol
            diag = heat_evolve(op, deltas, ts).values[:, cols, pick]
            best = np.maximum(best, diag.max(axis=1))
    else:
        raise ValueError(f"unknown strategy '{strategy}'")
    if np.ndim(t) == 0:
        return SupKernelValue(float(best[0]), strategy, float(t))
    return SupKernelValue(best, strategy, ts)


def _interior_mask(mesh, margin):
    if margin <= 0:
        return np.ones(mesh.size, dtype=bool)
    pts = mesh.points()
    keep = np.ones(mesh.size, dtype=bool)
    for k in range(mesh.dimension):
        a, b = mesh.box[k]
        keep &= (pts[:, k] >= a + margin) & (pts[:, k] <= b - margin)
    if not np.any(keep):
        raise ValueError("boundary margin excludes every grid point")
    return keep


def resolvent_power_apply(op: DiscreteOperator, r: float, m: int, phi) -> np.ndarray:
    """(I + r^2 A)^{-m} phi by m successive solves; direct banded elimination
    in 1D, conjugate gradients in 2D."""
    if r <= 0:
        raise ValueError("r must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    phi = np.asarray(phi, dtype=float)
    N = op.size
    coef = r * r
    if op.mesh.dimension == 1:
        solve = _factorized_shift_solver(op, coef)
        shift_norm = 1.0 + coef * op.spectral_norm_bound
        u = phi
        for _ in range(m):
            v = u
            u = solve(v)
            # one step of iterative refinement covers ill-conditioned r^2 A
            r_vec = v - u - coef * (op.matrix @ u)
            u = u + solve(r_vec)
            res = np.linalg.norm(v - u - coef * (op.matrix @ u))
            scale = np.linalg.norm(v) + shift_norm * np.linalg.norm(u)
            if res > 1e-12 * max(scale, 1.0):
                raise SolverError(f"tridiagonal solve backward residual {res / scale:.3e}")
        return u
    u = phi
    for _ in range(m):
        u = _cg_shifted(op, coef, u)
    return u


def _cg_shifted(op, coef, b, rtol=1e-12, check_tol=1e-10, max_iter=None):
    """Conjugate gradients for (I + coef A) u = b; SPD with condition number
    at most 1 + coef * lambda_max."""
    A = op.matrix
    matvec = lambda v: v + coef * (A @ v)
    x = np.zeros_like(b)
    r = b - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    bnorm = float(np.linalg.norm(b)) or 1.0
    max_iter = max_iter or 20 * op.size
    for _ in range(max_iter):
        if np.sqrt(rs) <= rtol * bnorm:
            break
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    res = float(np.linalg.norm(b - matvec(x)))
    if res > check_tol * bnorm:
        raise SolverError(f"CG stalled: relative residual {res / bnorm:.3e}")
    return x


def wave_evolve(op: DiscreteOperator, phi0, t: float, cfl_safety: float = 0.5) -> WaveField:
    """cos(t A^{1/2}) phi0 by leapfrog with cosine initial condition
    (u^{-1} = u^{1}); dt = cfl_safety * 2 / sqrt(lambda_max)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must be in (0, 1]")
    phi0 = np.asarray(phi0, dtype=float)
    if t == 0.0:
        return WaveField(phi0.copy(), phi0.copy(), 0.0, 0.0)
    lmax = max(op.spectral_norm_bound, 1e-300)
    dt_max = cfl_safety * 2.0 / np.sqrt(lmax)
    nsteps = max(int(np.ceil(t / dt_max - 1e-12)), 1)
    dt = t / nsteps
    A = op.matrix
    guard = 10.0 * max(float(np.abs(phi0).max()), 1e-300)

    u_prev = phi0.copy()
    u = phi0 - 0.5 * dt * dt * (A @ phi0)
    e0 = _leapfrog_energy(A, u, u_prev, dt)
    for _ in range(nsteps - 1):
        u_prev, u = u, 2.0 * u - u_prev - dt * dt * (A @ u)
        if np.abs(u).max() > guard:
            raise CflError("leapfrog norm grew beyond 10x the initial datum")
    drift = abs(_leapfrog_energy(A, u, u_prev, dt) - e0) / max(abs(e0), 1e-300)
    return WaveField(u, u_prev, t, dt, drift)


def _leapfrog_energy(A, u, u_prev, dt):
    v = (u - u_prev) / dt
    return float(v @ v + u @ (A @ u_prev))
