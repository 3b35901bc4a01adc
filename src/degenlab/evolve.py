"""Actions of the discrete semigroup e^{-tA}, the wave propagator
cos(t A^{1/2}), and resolvent powers (I + r^2 A)^{-m}.

Exponential actions have two backends, and exp_backend picks one per
operator: the hyperbolic contour in 1D and Chebyshev otherwise.  Either way
tol bounds the scalar error |e^{-tx} - r_t(x)| of the approximant r_t on the
spectrum, so in exact arithmetic the action is off by at most
tol * ||phi||_2, and a tol that the approximant cannot reach raises
SolverError.  The bound covers the approximant, not the roundoff of the
arithmetic that applies it: on the contour that roundoff grows with t on the
degenerate 1D builtins, past tol ||phi||_2 at t = 50 (heat_evolve).

Chebyshev is a polynomial approximation of exp(-t x) on [0, lambda_max].
Coefficients come from scaled modified Bessel functions, so the polynomial
reproduces exp exactly at the spectrum endpoints in exact arithmetic; in
particular p(A) 1 = 1 to machine precision (zero row sums), and sparse
matrix-vector products keep decoupled blocks exactly decoupled.  The required
degree grows like sqrt(t * lambda_max) (Tal-Ezer and Kosloff, J. Chem.
Phys. 81, 1984), so one expansion serves every time, however long.  The wave
propagator runs on the same recurrence, with the Jacobi-Anger coefficients of
cos(t sqrt(x)) (_wave_coefficients; Tal-Ezer, Kosloff and Koren, Geophys.
Prospect. 35, 1987), of degree about t sqrt(lambda_max) / 2: it takes no time
step, so WaveField.dt is 0.

Every Chebyshev sum runs one recurrence on B = 2 M = (4 / lambda_max) A - 2 I,
built once per call with the sparsity pattern of A: T_1 = 0.5 (B y), an exact
halving, and T_{k+1} = B T_k - T_{k-1}.  A step adds +-B T_k onto the
buffer of T_{k-1} in place with scipy's CSR kernels (csr_matvec for one
column, csr_matvecs for more), reading B's values or the call's one negated
copy of them, so two buffers alternate and no step allocates.  The kernels
come from the private scipy.sparse._sparsetools, because the public B @ w
allocates and zero-fills a block at every step; that the module and its
signatures are there at the declared scipy 1.10 floor is checked only by the
oldest-supported CI job.

The contour writes e^{-tA} phi as sum_k Re[w_k e^{t s_k} (s_k I + A)^{-1} phi]
over the n shifts s_k of a hyperbola (Weideman and Trefethen, Math. Comp. 76,
2007, section 4).  The resolvent does not depend on t, so one rule serves
every t in [t0, Lambda t0]: a call's times are cut into groups from the
smallest up, and each group takes the row of CONTOUR_ROWS with the fewest
shifts that covers it and whose bound meets tol, or its first time alone
takes the single-time row when that row's shifts for each of the group's
times come to no more.  A bound is the max of |e^{-tx} - r_t(x)| over x >= 0
and the row's times, plus the roundoff 2 eps sum |w_k e^{t s_k}|, so it
holds for any lambda_max.  Each shifted tridiagonal matrix is factored once
(LAPACK zgttrf, applied by zgttrs) and solves the whole block of columns
once; partial pivoting never crosses a zero coupling, so decoupled blocks
stay exactly decoupled.  Each solve takes one step of iterative refinement
against the sparse matrix (_contour_expm_apply).  Every shifted solve (the
contour's complex shifts and the 1D resolvent's I + r^2 A) calls zgttrf and
zgttrs through scipy.linalg.lapack, whose wrappers release the GIL while
LAPACK runs.

The same rule gives the whole kernel diagonal of a 1D operator without a
solve: diag e^{-tA} = sum_k Re[w_k e^{t s_k} diag((s_k I + A)^{-1})], and
the diagonal of each shifted tridiagonal inverse comes from two O(N) pivot
sweeps, one from each end, run once per shift (_contour_diag).  A 1D call
holds little beyond what it returns: the diagonal sweep one (N, 2, shifts)
complex buffer of tails, which also takes each group's weighting operand,
and an action CONTOUR_CHUNK shift solutions.

The column lanes of a block Chebyshev evolution run beside each other on a
concurrent.futures thread pool, as the checks of a scenario do: at most CPUS
lanes of whole columns, each one recurrence, the first in the calling
thread.  Sparse block products and large ufuncs release the GIL, so the
lanes use every core the process may run on.  The recurrence runs only on
the components of the operator's graph (DiscreteOperator.components) that
the block meets: an exact cut splits the graph, and the rows cut off stay
exactly 0, bitwise as in a recurrence over every row.

A 2D call holds its result and little else: each lane's coefficient sums
and one product buffer as large, built in place (_cheb_sums), B and the one
negated copy of its values, and the lane's two recurrence buffers.  Each
lane copies its sums straight into the result, on the component-restricted
path too.

One rule stacks the result of every batched call (_stack): heat_evolve on
both backends, wave_evolve and the 2D resolvent_power_apply.  A time or
radius whose scaled value is 0 takes phi itself, and when every value is
> 0 the call returns its backend's own array, not a copy of it.

heat_evolve, sup_kernel and wave_evolve are the batched entry points: they
take a block of columns and a sequence of times.  The vectors T_k(M) phi do
not depend on t, so one Chebyshev recurrence serves a whole time grid, and
every (t, column) result is bitwise the one-vector, one-t result.  The
contour shares its shifts among the times of a call, so there a time's value
depends on the call's grid within the certified bound, while each column is
bitwise its own call with the same times.  heat_gram gives the inner products
(phi_i, e^{-tA} psi_j) of the off-diagonal and on-diagonal checks from
evolutions of the psi_j alone on the operator's backend.  operator_eig is a
dense reference for tests; no check calls it.

resolvent_power_apply takes a sequence of radii as heat_evolve takes one of
times.  In 1D each radius is m refined tridiagonal solves; in 2D one
Chebyshev recurrence serves every radius and the whole power m.  The pole
of (1 + r^2 lambda)^{-m} at -1/r^2 makes its coefficients decay like rho^{-k},
rho = a + sqrt(a^2 - 1), a = 1 + 2 / (r^2 lambda_max); FINE_TOL bounds the
scalar error, so u is within FINE_TOL ||phi||_2, and a residual check per
radius raises SolverError.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from math import comb

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs
# scipy's CSR product kernels, from its private module: they add B w onto a
# buffer in place, where the public B @ w allocates and zero-fills a block at
# every step of the Chebyshev recurrence
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.special import ive, jv

from .errors import SolverError
from .grid import DiscreteOperator

DEFAULT_TOL = 1e-12
FINE_TOL = 1e-13  # heat_gram and 2D resolvent powers: tail-accurate values
RESOLVENT_CHECK_FACTOR = 4.0  # slack of the 2D resolvent residual check over its bound
# bytes of the (N, width) delta block that one 2D sup_kernel evolution takes, so
# that a full scan never forms an N x N block; width is at least CPUS columns
BLOCK_BYTES = 1 << 21
# Rows (Lambda, n, mu t0, alpha, h n, bound) of the 1D contour rule
# (_hyperbola): n shifts serve every t in [t0, Lambda t0].  bound is 1.05
# times the max over tau = t / t0 in geomspace(1, Lambda, 1 + 400 log10
# Lambda) and x in {0} and geomspace(1e-8, 1e16, 4801) of
# |e^{-tau x} - r_tau(x)| plus the roundoff 2 eps sum_k |w_k e^{tau s_k}|,
# for the rule of t0 = 1 (the rule scales with t0), rounded up.
# tools/contour_rows.py fits the parameters (the single-time rows with a
# fixed mu t0, which sets the roundoff of large-time conservation) and
# certifies the bounds, and tests/test_evolve.py re-measures every bound
# between the points of that grid
CONTOUR_ROWS = (
    (1.0, 8, 10.0, 0.9181, 1.8076, 2.7e-8),
    (1.0, 13, 15.0, 0.9071, 1.8669, 7.5e-13),
    (1.0, 16, 12.0, 0.8779, 2.1495, 2.8e-14),
    (10.0, 28, 2.8663, 1.0106, 3.1884, 1.7e-13),
    (10.0, 30, 2.7707, 1.0, 3.2917, 5.1e-14),
    (50.0, 40, 0.3073, 0.9071, 5.4015, 2.4e-13),
    (50.0, 42, 0.3131, 0.9151, 5.4221, 5.1e-14),
    (100.0, 44, 0.1305, 0.8909, 6.2379, 4.2e-13),
    (100.0, 48, 0.145, 0.8975, 6.2246, 3.3e-14),
)
CONTOUR_CHUNK = 8  # shift solutions that one 1D action holds at a time
DIAG_ROWS = 512  # rows of shifted row sums that one 1D kernel-diagonal sweep holds at a time


def _usable_cpus():
    """Cores this process may run on; every core where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


CPUS = _usable_cpus()  # the most lanes of one block evolution


@dataclass
class WaveField:
    displacement: np.ndarray
    time: object  # a float, or the array of a sequence of times
    dt: float = 0.0  # the propagator takes no time steps


def operator_eig(op: DiscreteOperator):
    """(lam, V) of a 1D operator: ascending eigenvalues and orthonormal
    eigenvector columns from one dense tridiagonal solve
    (scipy.linalg.eigh_tridiagonal), computed on every call.  A reference
    that tests compare against; no check calls it."""
    if op.mesh.dimension != 1:
        raise ValueError("operator_eig needs a 1D (tridiagonal) operator")
    return eigh_tridiagonal(op.matrix.diagonal(), op.matrix.diagonal(1))


# ---------------------------------------------------------------------------
# Chebyshev exponential action


def _tail_start(mags, tol):
    """The least k >= 1 with sum(mags[k:]) <= tol / 4, or len(mags) if none:
    coefficients 2 mags[j] cut past k drop at most tol / 2 of those in mags."""
    keep = np.nonzero(mags[::-1].cumsum()[::-1] > 0.25 * tol)[0]
    return int(keep[-1]) + 1 if keep.size else 1


def _cheb_coefficients(a, tol):
    """Coefficients c_k with exp(-a(1+xi)) = sum c_k T_k(xi) on [-1, 1]:
    c_0 = e^{-a} I_0(a), c_k = 2 e^{-a} (-1)^k I_k(a), up to the least
    degree whose tail is within tol.  Raises SolverError when a tol below
    what the first guess sqrt(80 max(a, 1)) + 80 reaches is asked for."""
    guess = int(np.sqrt(80.0 * max(a, 1.0))) + 80
    mags = ive(np.arange(guess + 2), a)
    deg = _tail_start(mags[:-1], tol)
    if deg > guess:
        # I_{k+1}(a) / I_k(a) decreases in k: a geometric series from the
        # first coefficient past the guess bounds what the guess discards
        tail = 2.0 * mags[-1] / (1.0 - mags[-1] / mags[-2])
        if tail > tol:
            raise SolverError(f"Chebyshev degree {guess} leaves a tail {tail:.3e} > {tol:.3e}")
        deg = guess
    c = mags[: deg + 1].copy()
    c[1:] *= 2.0
    c[1::2] *= -1.0
    return c


def _wave_coefficients(a, tol):
    """Coefficients c_k with cos(a sqrt((1+xi)/2)) = sum c_k T_k(xi) on
    [-1, 1], a > 0: c_0 = J_0(a), c_k = 2 (-1)^k J_{2k}(a), the Jacobi-Anger
    expansion of cos(a cos p) at xi = cos 2p (Abramowitz and Stegun 9.1.45).
    For nu > a, Kapteyn's inequality (DLMF 10.14.5) bounds |J_nu(a)| by K_nu =
    (z e^s / (1 + s))^nu, z = a / nu, s = sqrt(1 - z^2).  log K_nu falls with
    slope -arcsech(z), itself falling, so past nu = 2n the bounds of the even
    orders shrink by at least q = (z / (1 + s))^2 a term and sum_{k >= n}
    |c_k| <= 2 K_{2n} / (1 - q).  The orders stop at the first n where that
    is within tol / 2; the last order tried, past 2.72 a and log_2(8/tol),
    always meets it (there z < 0.37, so K < 2^{-nu} < tol / 8).  The terms
    below it are cut at tol / 2 (_tail_start), and at least two are kept: the
    recurrence starts from T_1."""
    nu = 2.0 * np.arange(int(0.5 * a) + 1, int(max(1.36 * a, 0.5 * np.log2(8.0 / tol))) + 2)
    z = a / nu
    s = np.sqrt(1.0 - z * z)
    log_tail = np.log(2.0) + nu * (np.log(z) + s - np.log1p(s)) - np.log1p(-((z / (1.0 + s)) ** 2))
    n = int(nu[np.flatnonzero(log_tail <= np.log(0.5 * tol))[0]]) // 2
    mags = jv(2.0 * np.arange(max(n, 2)), a)
    c = mags[: _tail_start(np.abs(mags), tol) + 1].copy()
    c[1:] *= 2.0
    c[1::2] *= -1.0
    return c


def _cheb_sums(B, negated, y, coefs):
    """sum_k c[k] T_k(B / 2) y for every coefficient vector in coefs (longest
    first) and the (N, k) block y, from one three-term recurrence up to the
    largest degree: T_1 = 0.5 (B y), an exact halving, and T_{k+1} = B T_k -
    T_{k-1}, carried as U_k = s_k T_k, s_k = +, +, -, -, ...  Each step adds
    (s_{k+1} s_k B) U_k onto the buffer of U_{k-1} in place, reading B.data or
    negated, the caller's one copy of -B.data: two buffers alternate, no step
    allocates or negates, and y is only read.  Negation is exact, so
    (s_k c[k]) U_k is the term c[k] T_k bit for bit (a zero's sign aside), and
    each sum sees the same operations, in the same order, as a recurrence run
    for it alone."""
    C = np.zeros((len(coefs), len(coefs[0]), 1, 1))
    for i, c in enumerate(coefs):
        C[i, : len(c), 0, 0] = c
    C *= np.where(np.arange(C.shape[1]) % 4 < 2, 1.0, -1.0)[:, None, None]  # s_k
    n, width = y.shape
    # one column takes csr_matvec, as B @ y does: csr_matvecs gives the same
    # bits for one vector but takes about three times as long
    if width == 1:
        product = partial(csr_matvec, n, n, B.indptr, B.indices)
    else:
        product = partial(csr_matvecs, n, n, width, B.indptr, B.indices)
    signed = (negated, B.data)  # s_k s_{k-1} B: -B for even k, B for odd
    w = np.zeros(y.shape)
    product(B.data, y.ravel(), w.ravel())
    w *= 0.5  # U_1 = T_1
    acc = np.multiply(C[:, 0], y)
    tmp = np.empty_like(acc)  # C[i, k] * w
    acc += np.multiply(C[:, 1], w, out=tmp)
    w_prev = y
    live = len(coefs)
    for k in range(2, len(coefs[0])):
        w_next = w_prev.copy() if w_prev is y else w_prev
        product(signed[k % 2], w.ravel(), w_next.ravel())
        w_prev, w = w, w_next
        while len(coefs[live - 1]) <= k:
            live -= 1
        acc[:live] += np.multiply(C[:live, k], w, out=tmp[:live])
    return acc


def _resolvent_coefficients(kappa, m, tol):
    """Chebyshev coefficients of (1 + kappa (1 + xi))^{-m} on [-1, 1], kappa
    > 0, within tol / 2.  The pole xi = -a, a = 1 + 1/kappa, bounds them:
    |c_k| <= 2 binom(k+m-1, m-1) rho^{-k} with rho = a + sqrt(a^2 - 1), and
    |c_{k+1} / c_k| <= q_k = (k+m) / ((k+1) rho).  They come from a DCT-I
    (one real FFT) at the n + 1 Lobatto points, n the least whose bound on
    what aliases is below tol / 8, cut at the first k with |c_k| / (1 - q_k)
    <= tol / 4.  That bounds the tail without summing its roundoff plateau,
    about 1e-16 per coefficient, which over hundreds of terms exceeds tol / 4."""
    a = 1.0 + 1.0 / kappa
    rho = a + np.sqrt(a * a - 1.0)
    n = 2
    while True:
        q = (n + m) / ((n + 1) * rho)
        if q < 1.0 and 2.0 * comb(n + m - 1, m - 1) * rho ** -n <= 0.125 * tol * (1.0 - q):
            break
        n += 1 + n // 16
    x = np.cos(np.pi * np.arange(n + 1) / n)
    f = (1.0 + kappa * (1.0 + x)) ** -m
    c = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / n
    c[0] *= 0.5
    c[n] *= 0.5
    k = np.arange(2, n + 1)
    q = (k + m) / ((k + 1) * rho)
    cut = np.flatnonzero((q < 1.0) & (np.abs(c[2:]) <= 0.25 * tol * (1.0 - q)))
    return c[: k[cut[0]]] if cut.size else c


def _cheb_apply(op, cols, coefs):
    """sum_k c[k] T_k(M) cols, M = 2 A / lambda_max - I, stacked over the
    coefficient vectors c in coefs, for the (N, k) block cols.  One
    recurrence serves every vector.  It runs only on the connected
    components of A (op.components) that a nonzero row of cols meets, on
    A[idx][:, idx] with the full lambda_max; every other row is an exact 0.
    That is bitwise the full recurrence: a dropped term is an explicit zero
    coupling (-0.0) times a zero row (+0.0), and row slicing keeps each row's
    summation order.  The recurrence runs on B = 2 M, built once here with
    the pattern of A, and on one negated copy of its values; every lane
    reads both.  The columns are split into at most CPUS lanes of whole
    columns, which run beside each other, the first in the calling thread;
    every lane finishes before the call returns or raises the first error
    in lane order, and every column sees the same operations in any lane."""
    order = sorted(range(len(coefs)), key=lambda i: -len(coefs[i]))
    longest_first = [coefs[i] for i in order]
    count, labels = op.components()
    touched = np.zeros(count, dtype=bool)
    touched[labels[reduce(np.logical_or, (cols != 0).T, np.zeros(len(cols), bool))]] = True
    if not touched.any():
        return np.zeros((len(coefs),) + cols.shape)
    full = touched.all()
    idx = slice(None) if full else np.flatnonzero(touched[labels])
    A = op.matrix if full else op.matrix[idx][:, idx]
    B = (4.0 / op.spectral_norm_bound) * A  # 2 M = 2 (2 A / lambda_max - I)
    B.setdiag(B.diagonal() - 2.0)
    negated = np.negative(B.data)
    ncols = cols.shape[1]
    shape = (len(coefs),) + cols.shape
    out = np.empty(shape) if full else np.zeros(shape)  # rows off the components stay 0

    def lane(lo, hi):
        # the caller's own array when one lane covers every component
        y = np.ascontiguousarray(cols[idx, lo:hi])
        sums = _cheb_sums(B, negated, y, longest_first)
        for i, k in enumerate(order):
            out[k, idx, lo:hi] = sums[i]

    lanes = min(CPUS, ncols)
    bounds = [ncols * n // lanes for n in range(lanes + 1)]
    # one lane starts no thread: a pool starts its threads as jobs arrive
    with ThreadPoolExecutor(max_workers=max(lanes - 1, 1)) as pool:
        helpers = [pool.submit(lane, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        lane(bounds[0], bounds[1])
    for helper in helpers:
        helper.result()
    return out


def _stack(phi, a, apply):
    """apply(values) for the values of the 1D array a, with a leading value
    axis on phi's shape: phi itself where a value is 0.  When every value is
    > 0 the result is apply's own array, not a copy of it."""
    live = a > 0
    if live.all() and a.size:
        return apply(a).reshape(a.shape + phi.shape)
    out = np.repeat(phi[None], a.size, axis=0)
    if live.any():
        out[live] = apply(a[live]).reshape(out[live].shape)
    return out


# ---------------------------------------------------------------------------
# hyperbolic contour exponential action (1D)


def exp_backend(op):
    """The backend of every exponential action a check takes on op: the
    hyperbolic contour in 1D, where each shifted matrix is tridiagonal, and
    Chebyshev otherwise."""
    return "contour" if op.mesh.dimension == 1 else "chebyshev"


def _hyperbola(n, mu, alpha, h):
    """Shifts s_k = s(k h), k = 0..n-1, of the hyperbola s(u) = mu (1 - sin
    alpha cosh u + i cos alpha sinh u) and weights w_k = h s'(u_k) / (i pi),
    w_0 halved: e^{-tx} ~ sum_k Re[w_k e^{t s_k} / (s_k + x)] for x >= 0
    (Weideman and Trefethen, Math. Comp. 76, 2007); the conjugate half of
    the contour is the real part."""
    u = h * np.arange(n)
    s = mu * (1.0 - np.sin(alpha) * np.cosh(u) + 1j * np.cos(alpha) * np.sinh(u))
    w = h * mu * (np.cos(alpha) * np.cosh(u) + 1j * np.sin(alpha) * np.sinh(u)) / np.pi
    w[0] *= 0.5
    return s, w


def _contour_groups(ts, tol):
    """The rules of the sorted distinct times ts > 0, as (lo, hi, s, W): the
    times ts[lo:hi] share the shifts s, and the real (2n, T) matrix W holds
    the weights w_k e^{t s_k} of every time t as rows Re and then -Im, so
    that Re[sum_k w_k e^{t s_k} x_k] = [Re x, Im x] @ W.  Groups are cut from
    the smallest time up, each reaching Lambda t0 of the widest row that
    meets tol, and each takes the row of fewest shifts that covers it and
    meets tol, unless the single-time row takes no more shifts for each of
    its times: then its first time is a group of its own.  Raises
    SolverError when no row meets tol."""
    rows = [row for row in CONTOUR_ROWS if row[5] <= tol]
    if not rows:
        best = min(row[5] for row in CONTOUR_ROWS)
        raise SolverError(f"no hyperbolic contour rule meets tol {tol:.3e} (best bound {best:.3e})")
    widest = max(row[0] for row in rows)
    single = min((row for row in rows if row[0] == 1.0), key=lambda row: row[1])
    groups = []
    lo = 0
    while lo < ts.size:
        t0 = ts[lo]
        hi = int(np.searchsorted(ts, widest * t0, side="right"))
        row = min((row for row in rows if row[0] * t0 >= ts[hi - 1]), key=lambda row: row[1])
        if (hi - lo) * single[1] <= row[1]:
            hi, row = lo + 1, single
        _, n, mu, alpha, hn, _ = row
        s, w = _hyperbola(n, mu / t0, alpha, hn / n)
        v = w[:, None] * np.exp(np.outer(s, ts[lo:hi]))
        groups.append((lo, hi, s, np.concatenate([v.real, -v.imag])))
        lo = hi
    return groups


def _shifted_tridiagonal_solver(z, d, e):
    """Solver for (z I + T) x = v with T the real symmetric tridiagonal
    (d, e), factored once with partial pivoting (LAPACK zgttrf) and applied
    to every column of the (n, k) block v (zgttrs), both through scipy's
    wrappers, which release the GIL while LAPACK runs; x comes back
    C-ordered, and a complex F-ordered v is solved in place.  A zero coupling
    in e stays a zero in the factors: the pivoting never crosses it.  z may
    be real: every buffer LAPACK writes is complex128.  The wrappers take at
    least 3 rows, so a smaller system is padded with decoupled unit rows."""
    n = d.size
    size = max(n, 3)
    diag = np.ones(size, dtype=complex)
    np.add(d, z, out=diag[:n])
    lower = np.zeros(size - 1, dtype=complex)
    lower[: n - 1] = e
    *factors, info = zgttrf(lower, diag, lower.copy(), overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise SolverError(f"zgttrf failed on N={n}: info={info}")

    def solve(v):
        if n < size:
            v = np.concatenate([v, np.zeros((size - n, v.shape[1]))])
        return np.ascontiguousarray(zgttrs(*factors, v, overwrite_b=1)[0][:n])

    return solve


def _contour_expm_apply(op, phi, ts, tol):
    """e^{-tA} phi as sum_k Re[w_k e^{t s_k} x_k], x_k = (s_k I + A)^{-1} phi,
    stacked over t > 0 in ts, with one rule per group of times
    (_contour_groups).  Each shift is factored once and solves the whole
    block once; each solve takes one step of refinement with the residual
    from the sparse matrix, x += solve(phi - (s_k x + A x)), since the
    factors round s_k into the far larger diagonal entries s_k + d_i.  At
    most CONTOUR_CHUNK solutions are held at a time, as their real and
    imaginary parts, and one product per column weights them for every time
    of the group, so each column sees the same operations as alone."""
    A = op.matrix
    d, e = A.diagonal(), A.diagonal(1)
    cols = phi.reshape(op.size, -1)
    k = cols.shape[1]
    tu, inv = np.unique(ts, return_inverse=True)
    out = np.zeros((k, tu.size, op.size))
    for lo, hi, s, W in _contour_groups(tu, tol):
        for c0 in range(0, s.size, CONTOUR_CHUNK):
            shifts = s[c0 : c0 + CONTOUR_CHUNK]
            m = shifts.size
            parts = np.empty((k, 2 * m, op.size))
            for i, z in enumerate(shifts):
                solve = _shifted_tridiagonal_solver(z, d, e)
                x = solve(cols)
                res = z * x
                res += (A @ x.view(np.float64)).view(complex)  # real products on (re, im) pairs
                x += solve(np.subtract(cols, res, out=res))
                parts[:, i] = x.real.T
                parts[:, m + i] = x.imag.T
            rows = np.r_[c0 : c0 + m, s.size + c0 : s.size + c0 + m]
            weights = np.ascontiguousarray(W[rows].T)
            for j in range(k):
                out[j, lo:hi] += weights @ parts[j]
    return np.moveaxis(out, 0, -1)[inv].reshape((len(ts),) + phi.shape)


def _contour_diag(op, ts, tol):
    """diag e^{-tA} as (N, T) for t > 0 in ts: sum_k Re[w_k e^{t s_k}
    diag((s_k I + A)^{-1})], with one rule per group of times
    (_contour_groups).

    diag(M^{-1})_i = 1 / (D_i + E_i - a_i) for a symmetric tridiagonal M
    with diagonal a and couplings b, from the pivots of elimination from
    the first row, D_i = a_i - b_{i-1}^2 / D_{i-1}, and from the last,
    E_i = a_i - b_i^2 / E_{i+1}.  For M = u I + A, with c_i = -A[i, i+1]
    and the row sums r_i of A, they are swept in conductance form:
    D_i = c_i + u + r_i + p_i with the tail p_0 = 0,
    p_{i+1} = c_i g / (c_i + g), g = u + r_i + p_i, and E_i likewise with a
    tail q_i from the last row, so diag_i = 1 / (u + r_i + p_i + q_i).  The
    diagonal a_i = u + r_i + c_{i-1} + c_i is never formed, so u is not
    rounded into the far larger c_i: the plain sweeps were 5.9e-12 off at
    t lambda_max = 1e7 on a 65-point Laplacian, these 3.8e-15.  Every g
    keeps an imaginary part of at least Im u_k > 0, so no pivot vanishes,
    and a zero coupling gives a zero tail: the sweeps decouple exactly.
    Both sweeps run as one loop over the rows, vectorised over every shift
    of the call, once per shift; one product per group weights the
    diagonals for every time of the group.

    The call holds one (N, 2, S) complex buffer, the tails of the S shifts,
    and little else: the shifted row sums u + r_i are formed DIAG_ROWS rows
    at a time, the diagonals are summed into the forward half of the
    buffer, and each group's real and imaginary parts are copied into the
    backward half, dead by then, as the real operand of its product."""
    A = op.matrix
    c = -A.diagonal(1)
    r = A @ np.ones(op.size)
    tu, inv = np.unique(ts, return_inverse=True)
    groups = _contour_groups(tu, tol)
    u = np.concatenate([s for _, _, s, _ in groups])
    # column 0 sweeps rows upward from the first, column 1 downward from the last
    cc = np.stack([c, c[::-1]], axis=1)[:, :, None]
    rr = np.stack([r, r[::-1]], axis=1)[:, :, None]
    tail = np.zeros((op.size, 2, u.size), dtype=complex)
    block = np.empty((min(DIAG_ROWS, op.size), 2, u.size), dtype=complex)
    num, total = np.empty((2, 2, u.size), dtype=complex)  # per-row buffers of the sweeps
    for b0 in range(0, op.size, DIAG_ROWS):
        shifted = np.add(u, rr[b0 : b0 + DIAG_ROWS], out=block[: op.size - b0])
        for c_i, g, p_i, p_next in zip(cc[b0:], shifted, tail[b0:], tail[b0 + 1 :]):
            g += p_i
            np.multiply(c_i, g, out=num)
            np.add(c_i, g, out=total)
            np.divide(num, total, out=p_next)
    den = tail[:, 0]  # summed in place
    den += tail[::-1, 1]
    den += r[:, None]
    den += u
    np.divide(1.0, den, out=den)
    spare = tail[:, 1].view(np.float64)  # (N, 2S): the backward tails are dead
    out = np.empty((op.size, tu.size))
    at = 0
    for lo, hi, s, W in groups:
        part = den[:, at : at + s.size]
        parts = spare[:, : 2 * s.size]
        # copyto takes a temporary copy of a source that shares the
        # destination's buffer: DIAG_ROWS rows at a time keep it small
        for b0 in range(0, op.size, DIAG_ROWS):
            rows = slice(b0, b0 + DIAG_ROWS)
            np.copyto(parts[rows, : s.size], part[rows].real)
            np.copyto(parts[rows, s.size :], part[rows].imag)
        np.matmul(parts, W, out=out[:, lo:hi])
        at += s.size
    return out[:, inv]


# ---------------------------------------------------------------------------
# public operations


def heat_evolve(
    op: DiscreteOperator,
    phi0,
    t,
    backend: str = "chebyshev",
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Approximation of e^{-tA} phi0, as an array.

    phi0 is a vector or an (N, k) block of columns and t a time or a
    sequence of times; with a sequence, the result gains a leading time
    axis, and t = 0 returns phi0 exactly.

    Backends (exp_backend names the one the checks use for an operator):
    'chebyshev' and 'contour' (1D operators only; ValueError otherwise).
    Both keep the scalar error of their approximant on the spectrum within
    tol, so in exact arithmetic the result is within tol * ||phi0||_2, and
    raise SolverError when their degree guess or rule table cannot.  The
    roundoff of the arithmetic is not in that bound.  With 'chebyshev' each
    (t, column) result is bitwise a call for that vector and that t alone.
    With 'contour' the times of a call share one rule per group of times,
    so a time's value depends on the call's grid within that bound; each
    column is bitwise its own call with the same times, and a repeated call
    is bitwise the same.  The contour's roundoff in conservation grows with
    t on degenerate operators.  At tol 1e-12 and t = 50 alone,
    ||e^{-tA} 1 - 1||_inf is 2.6e-13 on the 4097-point Laplacian and 5.6e-12,
    7.9e-12, 5.2e-12 and 5.9e-12 on the degenerate1d-d025, -d05, -d075-cut
    and double-zero builtins (at most 1.3e-11 over geomspace(1, 50, 10) on
    them).  In the 2-norm the same defects are 1.6e-10, 2.9e-10, 1.6e-10
    and 1.2e-10, 3.4 to 6.3 times tol ||1||_2 (4.5e-11, and 3.2e-11 on
    double-zero); on the Laplacian 1.7e-11, within it.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if backend == "chebyshev":
        cols = phi0.reshape(op.size, -1)
        coefs = lambda live: [_cheb_coefficients(s, tol) for s in live]
        a = 0.5 * ts * op.spectral_norm_bound
        vals = _stack(phi0, a, lambda live: _cheb_apply(op, cols, coefs(live)))
    elif backend == "contour":
        if op.mesh.dimension != 1:
            raise ValueError("the contour backend needs a 1D (tridiagonal) operator")
        vals = _stack(phi0, ts, lambda s: _contour_expm_apply(op, phi0, s, tol))
    else:
        raise ValueError(f"unknown backend '{backend}'")
    return vals[0] if np.ndim(t) == 0 else vals


def heat_gram(op: DiscreteOperator, left, right, t) -> np.ndarray:
    """(left_i, e^{-tA} right_j) for the columns of the (N, k) block left and
    the (N, l) block right at every t in the sequence t, as a (T, k, l)
    array of plain dot products.

    Only the columns of right are evolved, by the operator's backend
    (exp_backend) with tol FINE_TOL (tail-accurate values for the
    off-diagonal margins), so a caller passes the columns whose entries it
    reads.  Each entry is np.dot of a contiguous column of left and a
    contiguous evolved column.  Both backends keep an exact zero coupling
    exact, so sets that no path connects get exactly 0.
    """
    right = np.asarray(right, dtype=float)
    evolved = heat_evolve(op, right, np.atleast_1d(t), backend=exp_backend(op), tol=FINE_TOL)
    rows = np.ascontiguousarray(np.asarray(left, dtype=float).T)
    gram = np.empty((len(evolved), rows.shape[0], right.shape[1]))
    for g, block in zip(gram, evolved):
        columns = np.ascontiguousarray(block.T)
        for i in range(rows.shape[0]):
            for j in range(columns.shape[0]):
                g[i, j] = np.dot(rows[i], columns[j])
    return gram


def kernel_column(op: DiscreteOperator, source_index: int, t: float) -> np.ndarray:
    """Heat kernel column K_t(. ; y_source) as a density: the delta datum
    carries 1/cell_volume so values approximate the continuum kernel."""
    if t <= 0:
        raise ValueError("t must be > 0")
    phi = np.zeros(op.size)
    phi[source_index] = 1.0 / op.mesh.cell_volume
    return heat_evolve(op, phi, t, backend=exp_backend(op))


@dataclass
class SupKernelValue:
    value: float
    strategy: str
    t: float


def sup_kernel(
    op: DiscreteOperator,
    t,
    sample_indices=None,
    boundary_margin: float = 0.0,
) -> SupKernelValue:
    """Max on-diagonal kernel density sup_x K_t(x; x) over the sample set
    (every node by default); for a sequence of times, value and t of the
    result are arrays.  strategy names the path, which follows the mesh
    dimension as exp_backend does.

    'contour' (1D) reads the whole diagonal off the hyperbolic rule at tol
    DEFAULT_TOL (_contour_diag), one rule per group of times, so a time's
    value depends on the call's grid within tol.  Against a 40-digit eigen
    reference on 64- and 65-point Laplacian, cut and delta = 0.5 operators,
    for t lambda_max from 1e-3 to 1e7 in one call, its error stayed within
    tol: at most 2.9e-13 over 21 times (groups of up to five) and 4.7e-13
    over 11 (a single-time row each).  'columns' (2D) evolves
    blocks of kernel columns by the operator's backend (exp_backend),
    BLOCK_BYTES of deltas but at least CPUS columns a block, so every lane
    gets columns.  boundary_margin excludes diagonal entries within that
    distance of the box boundary, where the reflecting truncation inflates
    the on-diagonal value (image terms) relative to the free-space kernel.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be > 0")
    mesh = op.mesh
    vol = mesh.cell_volume
    # at margin 0 every node is kept: the last node a + n h may round past b
    inner = [(a + boundary_margin, b - boundary_margin) for a, b in mesh.box]
    keep = mesh.box_mask(inner) if boundary_margin > 0 else np.ones(op.size, dtype=bool)
    idx = np.flatnonzero(keep)
    if sample_indices is not None:
        sample_indices = np.asarray(sample_indices, dtype=np.intp)
        idx = sample_indices[keep[sample_indices]]
    if idx.size == 0:
        raise ValueError("sup_kernel: empty sample set (no sample index inside the boundary margin)")
    if mesh.dimension == 1:
        strategy = "contour"
        best = _contour_diag(op, ts, DEFAULT_TOL)[idx].max(axis=0) / vol
    else:
        strategy = "columns"
        width = max(CPUS, BLOCK_BYTES // (8 * op.size))
        best = np.full(ts.size, -np.inf)
        for lo in range(0, idx.size, width):
            cols = idx[lo : lo + width]
            pick = np.arange(cols.size)
            deltas = np.zeros((op.size, cols.size))
            deltas[cols, pick] = 1.0 / vol
            diag = heat_evolve(op, deltas, ts, backend=exp_backend(op))[:, cols, pick]
            best = np.maximum(best, diag.max(axis=1))
    if np.ndim(t) == 0:
        return SupKernelValue(float(best[0]), strategy, float(t))
    return SupKernelValue(best, strategy, ts)


def resolvent_power_apply(op: DiscreteOperator, r, m: int, phi) -> np.ndarray:
    """(I + r^2 A)^{-m} phi for a vector phi.  r is a radius or a sequence
    of radii; a sequence gives the result a leading radius axis, and each
    radius's result is bitwise that of a call for it alone.

    1D: per radius, m solves with one refined tridiagonal factorization.
    2D: one Chebyshev recurrence (_cheb_apply) for every radius, with the
    coefficients of (1 + r^2 lambda)^{-m} on [0, lambda_max]; they decay like
    rho^{-k}, rho = a + sqrt(a^2 - 1), a = 1 + 2 / (r^2 lambda_max).  The
    scalar error is at most FINE_TOL, so u is within FINE_TOL ||phi||_2.  A
    residual ||(I + r^2 A)^m u - phi|| above RESOLVENT_CHECK_FACTOR FINE_TOL
    (1 + r^2 lambda_max)^m ||phi|| raises SolverError.  lambda_max = 0
    returns phi."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rs <= 0):
        raise ValueError("r must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    phi = np.asarray(phi, dtype=float)
    A = op.matrix
    lmax = op.spectral_norm_bound
    if op.mesh.dimension != 1:
        cols = phi.reshape(op.size, -1)
        coefs = lambda live: [_resolvent_coefficients(s, m, FINE_TOL) for s in live]
        out = _stack(phi, 0.5 * rs * rs * lmax, lambda live: _cheb_apply(op, cols, coefs(live)))
        for radius, u in zip(rs, out):
            v = u
            for _ in range(m):
                v = v + radius * radius * (A @ v)
            res = np.linalg.norm(v - phi)
            bound = RESOLVENT_CHECK_FACTOR * FINE_TOL * (1.0 + radius * radius * lmax) ** m
            if res > bound * np.linalg.norm(phi):
                raise SolverError(f"resolvent power residual {res:.3e} at r={radius:g}, m={m}")
        return out[0] if np.ndim(r) == 0 else out
    out = np.empty((rs.size,) + phi.shape)
    for i, radius in enumerate(rs):
        coef = radius * radius
        factored = _shifted_tridiagonal_solver(1.0, coef * A.diagonal(), coef * A.diagonal(1))
        solve = lambda v: factored(v[:, None])[:, 0].real
        shift_norm = 1.0 + coef * lmax
        u = phi
        for _ in range(m):
            v = u
            u = solve(v)
            # one step of iterative refinement covers ill-conditioned r^2 A
            u = u + solve(v - u - coef * (A @ u))
            res = np.linalg.norm(v - u - coef * (A @ u))
            scale = np.linalg.norm(v) + shift_norm * np.linalg.norm(u)
            if res > 1e-12 * max(scale, 1.0):
                raise SolverError(f"tridiagonal solve backward residual {res / scale:.3e}")
        out[i] = u
    return out[0] if np.ndim(r) == 0 else out


def wave_evolve(op: DiscreteOperator, phi0, t) -> WaveField:
    """cos(t A^{1/2}) phi0 for a vector or (N, k) block phi0 and a time or a
    sequence of times (a leading time axis); t = 0 returns phi0 exactly.
    One Chebyshev recurrence serves every time, each bitwise its own call,
    within DEFAULT_TOL ||phi0||_2 in exact arithmetic.  A zero row of A is a
    decoupled node, where cos(t 0) = 1: it is copied from phi0."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    a = ts * np.sqrt(op.spectral_norm_bound)
    cols = phi0.reshape(op.size, -1)
    coefs = lambda live: [_wave_coefficients(s, DEFAULT_TOL) for s in live]
    vals = _stack(phi0, a, lambda live: _cheb_apply(op, cols, coefs(live)))
    if np.any(a > 0):
        frozen = op.matrix.diagonal() == 0.0
        vals[:, frozen] = phi0[frozen]
    return WaveField(vals[0], float(t)) if np.ndim(t) == 0 else WaveField(vals, ts)
