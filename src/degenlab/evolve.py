"""Actions of the discrete semigroup e^{-tA}, the wave propagator
cos(t A^{1/2}), and resolvent powers (I + r^2 A)^{-m}.

Exponential actions have two backends, and exp_backend picks one per
operator: the Talbot contour in 1D and Chebyshev otherwise.  Either way tol
bounds the scalar error |e^{-x} - r(x)| of the approximant r on the Gershgorin
interval [0, t lambda_max], so the action is off by at most tol * ||phi||_2,
and a tol that the approximant cannot reach raises SolverError.

Chebyshev is a polynomial approximation of exp(-t x) on [0, lambda_max].
Coefficients come from scaled modified Bessel functions, so the polynomial
reproduces exp exactly at the spectrum endpoints in exact arithmetic; in
particular p(A) 1 = 1 to machine precision (zero row sums), and sparse
matrix-vector products keep decoupled blocks exactly decoupled.  The required
degree grows like sqrt(t * lambda_max), with squaring-free substepping past
the degree cap.

The contour (Trefethen, Weideman and Schmelzer, BIT 46, 2006) writes
e^{-tA} phi as sum_k 2 Re[w_k (z_k I + t A)^{-1} phi] over the upper half of
a Talbot rule of at most 24 nodes, the fewest that meet tol; its cost does
not depend on t lambda_max.  Each shifted tridiagonal matrix is factored
once (LAPACK zgttrf, applied by zgttrs) and solves the whole block of
columns; partial pivoting never crosses a zero coupling, so decoupled
blocks stay exactly decoupled.  Each solve takes one step of
iterative refinement against the unshifted sparse matrix.  Without it the
factors round z_k into the diagonal z_k + t d_i, and the defect of
e^{-tA} 1 = 1 grew with t to 8e-10 at t = 50 on the 4097-point Laplacian;
with it the defect there is the rule's own error at x = 0 (2.4e-13 at tol
1e-12).  On the degenerate 1D builtins it is at most 5.7e-12 over their
conservation grids and 3e-11 at t = 50.  Every shifted solve (the contour's
complex shifts and the 1D resolvent's I + r^2 A) calls zgttrf and zgttrs
through ctypes, from the function pointers that scipy.linalg.cython_lapack
exports; ctypes releases the GIL for the length of a foreign call.

The same rule gives the whole kernel diagonal of a 1D operator without a
solve: diag e^{-tA} = sum_k 2 Re[w_k diag((z_k I + t A)^{-1})], and the
diagonal of each shifted tridiagonal inverse comes from two O(N) pivot
sweeps, one from each end (_contour_diag).

Independent pieces of one call run beside each other through one helper,
_beside: the first job runs in the calling thread and every other one in a
short-lived thread, all of them are joined, and the first exception (in job
order) is re-raised.  It runs the column lanes of a block Chebyshev
evolution: at most CPUS lanes of whole columns, each one recurrence.  Sparse
block products and large ufuncs release the GIL, so the lanes use every core
the process may run on.  The recurrence runs only on the components of the
operator's graph (DiscreteOperator.components) that the block meets: an
exact cut splits the graph, and the rows cut off stay exactly 0, bitwise as
in a recurrence over every row.

heat_evolve and sup_kernel are the batched entry points: they take a block of
columns and a sequence of times.  The vectors T_k(M) phi do not depend on t,
so one Chebyshev recurrence serves a whole time grid; the contour solves each
time on its own.  With either backend every (t, column) result is bitwise the
one-vector, one-t result.  heat_gram gives the inner products
(phi_i, e^{-tA} phi_j) of the off-diagonal and on-diagonal checks from
evolutions on the operator's backend.  operator_eig is a dense reference
for tests; no check calls it.

resolvent_power_apply takes a sequence of radii as heat_evolve takes one of
times.  In 1D each radius is m refined tridiagonal solves; in 2D one
Chebyshev recurrence serves every radius and the whole power m.  The pole
of (1 + r^2 lambda)^{-m} at -1/r^2 makes its coefficients decay like rho^{-k},
rho = a + sqrt(a^2 - 1), a = 1 + 2 / (r^2 lambda_max); FINE_TOL bounds the
scalar error, so u is within FINE_TOL ||phi||_2, and a residual check per
radius raises SolverError.
"""

import ctypes
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb

import numpy as np
from scipy.linalg import cython_lapack, eigh_tridiagonal
from scipy.special import ive

from .errors import CflError, SolverError
from .grid import DiscreteOperator

CHEB_DEGREE_CAP = 24_000
DEFAULT_TOL = 1e-12
FINE_TOL = 1e-13  # heat_gram and 2D resolvent powers: tail-accurate values
RESOLVENT_CHECK_FACTOR = 4.0  # slack of the 2D resolvent residual check over its bound
# bytes of the (N, width) delta block that one 2D sup_kernel evolution takes, so
# that a full scan never forms an N x N block; width is at least CPUS columns
BLOCK_BYTES = 1 << 21
CFL_SAFETY = 0.5  # leapfrog dt as a fraction of the stability limit 2 / sqrt(lambda_max)
TALBOT_NODE_CAP = 24  # nodes of the largest contour rule: 12 shifted solves per time


def _usable_cpus():
    """Cores this process may run on; every core where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


CPUS = _usable_cpus()  # the most lanes of one block evolution


@dataclass
class HeatField:
    """Evolved density vector(s); sum(values) * cell_volume is mass."""

    values: np.ndarray
    mesh: object

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


def operator_eig(op: DiscreteOperator):
    """(lam, V) of a 1D operator: ascending eigenvalues and orthonormal
    eigenvector columns from one dense tridiagonal solve
    (scipy.linalg.eigh_tridiagonal), computed on every call.  A reference
    that tests compare against; no check calls it."""
    if op.mesh.dimension != 1:
        raise ValueError("operator_eig needs a 1D (tridiagonal) operator")
    return eigh_tridiagonal(op.matrix.diagonal(), op.matrix.diagonal(1))


def _capsule_pointer(capsule):
    """Address held by a PyCapsule, read under the capsule's own name."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return get_pointer(capsule, get_name(capsule))


_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p
# zgttrf(n, dl, d, du, du2, ipiv, info) and
# zgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info) take raw
# addresses, without the per-call array checks of ndpointer: their one
# caller passes complex128 buffers it allocated (b F-ordered) and intc
# pivots.  A CFUNCTYPE call drops the GIL until LAPACK returns
_LAPACK_ZGTTRF = ctypes.CFUNCTYPE(None, _INT, *[_PTR] * 5, _INT)(
    _capsule_pointer(cython_lapack.__pyx_capi__["zgttrf"])
)
_LAPACK_ZGTTRS = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _INT, _INT, *[_PTR] * 6, _INT, _INT)(
    _capsule_pointer(cython_lapack.__pyx_capi__["zgttrs"])
)


def _beside(jobs):
    """Run the callables in jobs beside each other: the first in the calling
    thread, every other one in a short-lived thread.  Every started thread is
    joined, and then the first exception in job order is re-raised."""
    errors = [None] * len(jobs)

    def run(i):
        try:
            jobs[i]()
        except BaseException as exc:
            errors[i] = exc

    started = []
    try:
        for i in range(1, len(jobs)):
            th = threading.Thread(target=run, args=(i,))
            th.start()
            started.append(th)
        run(0)
    finally:
        for th in started:
            th.join()
    for exc in errors:
        if exc is not None:
            raise exc


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
    tmp = np.empty_like(acc)  # C[i, k] * w, and 2.0 * w in its first slot
    live = len(coefs)
    for k in range(2, len(coefs[0])):
        # T_{k+1} = 2 M T_k - T_{k-1}
        w_next = A @ w
        w_next *= 2.0 * scale
        w_next -= np.multiply(2.0, w, out=tmp[0])
        w_next -= w_prev
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
    summation order.  The columns are split into at most CPUS lanes of whole
    columns, which run beside each other; every column sees the same
    operations in any lane."""
    order = sorted(range(len(coefs)), key=lambda i: -len(coefs[i]))
    longest_first = [coefs[i] for i in order]
    count, labels = op.components()
    touched = np.zeros(count, dtype=bool)
    touched[labels[np.any(cols != 0, axis=1)]] = True
    if not touched.any():
        return np.zeros((len(coefs),) + cols.shape)
    full = touched.all()
    idx = slice(None) if full else np.flatnonzero(touched[labels])
    A = op.matrix if full else op.matrix[idx][:, idx]
    ncols = cols.shape[1]
    sub = np.empty((len(coefs), A.shape[0], ncols))

    def lane(lo, hi):
        y = np.ascontiguousarray(cols[idx, lo:hi])
        sub[order, :, lo:hi] = _cheb_sums(A, 2.0 / op.spectral_norm_bound, y, longest_first)

    lanes = min(CPUS, ncols)
    bounds = [ncols * n // lanes for n in range(lanes + 1)]
    _beside([partial(lane, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])
    if full:
        return sub
    out = np.zeros((len(coefs),) + cols.shape)
    out[:, idx] = sub
    return out


def _cheb_expm_apply(op, phi, ts, tol):
    """p_t(A) phi with p_t ~ exp(-t .) uniformly on [0, lambda_max] within
    tol, stacked over t > 0 in ts.  Times without substeps share one
    _cheb_apply; a substepped time applies its own nsub times."""
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
    if shared:
        out[[i for i, _ in shared]] = _cheb_apply(op, cols, [c for _, c in shared])
    for i, nsub, c in substepped:
        z = cols
        for _ in range(nsub):
            z = _cheb_apply(op, z, [c])[0]
        out[i] = z
    return out.reshape((len(ts),) + phi.shape)


# ---------------------------------------------------------------------------
# Talbot contour exponential action (1D)


def exp_backend(op):
    """The backend of every exponential action a check takes on op: the
    Talbot contour in 1D, where each shifted matrix is tridiagonal, and
    Chebyshev otherwise."""
    return "contour" if op.mesh.dimension == 1 else "chebyshev"


def _talbot_rule(n):
    """Nodes z_k and weights w_k of the n-node Talbot rule on the upper half
    of the contour z(theta) = n (0.5017 theta cot(0.6407 theta) - 0.6122 +
    0.2645 i theta): exp(-x) ~ sum_k 2 Re[w_k / (z_k + x)] for x >= 0
    (Trefethen, Weideman and Schmelzer, BIT 46, 2006).  The lower half holds
    the conjugate nodes and weights."""
    theta = np.pi * (2.0 * np.arange(n // 2, n) + 1.0 - n) / n
    a, b = 0.5017, 0.6407
    z = n * (a * theta / np.tan(b * theta) - 0.6122 + 0.2645j * theta)
    dz = n * (a / np.tan(b * theta) - a * b * theta / np.sin(b * theta) ** 2 + 0.2645j)
    return z, np.exp(z) * dz / (1j * n)


@lru_cache(maxsize=None)
def _talbot_profile(n):
    """(x, bound): a grid of [0, 1e16], fine up to 64 and geometric past it,
    and at each grid point the running max of |e^{-x} - r(x)| of the n-node
    rule plus the roundoff 2 eps sum |w_k| of the weighted solves."""
    z, w = _talbot_rule(n)
    x = np.concatenate([np.linspace(0.0, 64.0, 1025), np.geomspace(64.0, 1e16, 513)[1:]])
    r = 2.0 * (w / (z + x[:, None])).real.sum(axis=1)
    roundoff = 2.0 * np.finfo(float).eps * float(np.abs(w).sum())
    return x, np.maximum.accumulate(np.abs(np.exp(-x) - r)) + roundoff


def _talbot_nodes(x_max, tol):
    """The Talbot rule of fewest (even) nodes whose error bound on
    [0, x_max], the profile's bound at the first grid point from x_max on,
    is within tol.  Raises SolverError when even the TALBOT_NODE_CAP-node
    rule misses tol."""
    for n in range(2, TALBOT_NODE_CAP + 1, 2):
        x, bound = _talbot_profile(n)
        err = bound[min(np.searchsorted(x, x_max), x.size - 1)]
        if err <= tol:
            return _talbot_rule(n)
    raise SolverError(f"{TALBOT_NODE_CAP}-node Talbot rule error {err:.3e} > {tol:.3e}")


def _shifted_tridiagonal_solver(z, d, e):
    """Solver for (z I + T) x = v with T the real symmetric tridiagonal
    (d, e), factored once with partial pivoting (LAPACK zgttrf) and applied
    to every column of the (n, k) block v (zgttrs); x comes back C-ordered.
    A zero coupling in e stays a zero in the factors: the pivoting never
    crosses it.  z may be real: every buffer LAPACK writes is complex128."""
    n = d.size
    diag = np.add(d, z, dtype=complex)
    lower = np.zeros(max(n - 1, 1), dtype=complex)
    lower[: n - 1] = e
    upper = lower.copy()
    upper2 = np.empty(max(n - 2, 1), dtype=complex)
    pivots = np.empty(n, dtype=np.intc)
    info = ctypes.c_int(0)
    size = ctypes.c_int(n)
    factors = (lower, diag, upper, upper2, pivots)
    _LAPACK_ZGTTRF(size, *[a.ctypes.data for a in factors], info)
    if info.value != 0:
        raise SolverError(f"zgttrf failed on N={n}: info={info.value}")

    def solve(v):
        x = np.array(v, dtype=complex, order="F")
        _LAPACK_ZGTTRS(b"N", size, ctypes.c_int(x.shape[1]), *[a.ctypes.data for a in factors],
                       x.ctypes.data, size, info)
        if info.value != 0:
            raise SolverError(f"zgttrs failed on N={n}: info={info.value}")
        return np.ascontiguousarray(x)

    return solve


def _contour_expm_apply(op, phi, ts, tol):
    """e^{-tA} phi as sum_k 2 Re[w_k x_k], x_k = (z_k I + t A)^{-1} phi, over
    the Talbot rule picked for [0, t lambda_max] and tol, stacked over t > 0
    in ts.  Each shift is factored once and solves the whole block; each
    solve takes one step of refinement with the residual from the unshifted
    sparse matrix, x += solve(phi - (z_k x + t (A x))), since the factors
    round z_k into the far larger diagonal entries z_k + t d_i.  Every
    column, and every time, sees the same operations as alone."""
    A = op.matrix
    cols = phi.reshape(op.size, -1)
    out = np.empty((len(ts),) + cols.shape)
    for i, t in enumerate(ts):
        d, e = t * A.diagonal(), t * A.diagonal(1)
        acc = np.zeros(cols.shape)
        for z, w in zip(*_talbot_nodes(t * op.spectral_norm_bound, tol)):
            solve = _shifted_tridiagonal_solver(z, d, e)
            x = solve(cols)
            Ax = (A @ x.view(np.float64)).view(complex)  # real products on (re, im) pairs
            x += solve(cols - (z * x + t * Ax))
            acc += 2.0 * (w * x).real
        out[i] = acc
    return out.reshape((len(ts),) + phi.shape)


def _contour_diag(op, ts, tol):
    """diag e^{-tA} as (N, T) for t > 0 in ts: sum_k 2 Re[w_k / t
    diag((u_k I + A)^{-1})], u_k = z_k / t, over the Talbot rule picked for
    [0, t lambda_max] and tol.

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
    Both sweeps run as one loop over the rows, vectorised over every
    (node, time) pair of the call."""
    A = op.matrix
    c = -A.diagonal(1)
    r = A @ np.ones(op.size)
    rules = [_talbot_nodes(t * op.spectral_norm_bound, tol) for t in ts]
    sizes = [z.size for z, _ in rules]
    tp = np.repeat(ts, sizes)
    u = np.concatenate([z for z, _ in rules]) / tp
    wt = np.concatenate([w for _, w in rules]) / tp
    # column 0 sweeps rows upward from the first, column 1 downward from the last
    cc = np.stack([c, c[::-1]], axis=1)[:, :, None]
    rr = np.stack([r, r[::-1]], axis=1)[:, :, None]
    tail = np.zeros((op.size, 2, u.size), dtype=complex)
    for i in range(op.size - 1):
        g = u + rr[i]
        g += tail[i]
        tail[i + 1] = cc[i] * g / (cc[i] + g)
    den = tail[:, 0]  # summed in place: the tails are the largest buffers here
    den += tail[::-1, 1]
    den += r[:, None]
    den += u
    np.divide(wt, den, out=den)
    return np.add.reduceat(2.0 * den.real, np.cumsum([0] + sizes[:-1]), axis=1)


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
    bitwise for 'chebyshev' and 'contour'.

    Backends (exp_backend names the one the checks use for an operator):
    'chebyshev' and 'contour' (1D operators only; ValueError otherwise).
    Both keep the scalar error of their approximant on [0, t lambda_max]
    within tol, so the result is within tol * ||phi0||_2, and raise
    SolverError when their degree or node cap cannot.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if backend == "chebyshev":
        evolve = lambda s: _cheb_expm_apply(op, phi0, s, tol)
    elif backend == "contour":
        if op.mesh.dimension != 1:
            raise ValueError("the contour backend needs a 1D (tridiagonal) operator")
        evolve = lambda s: _contour_expm_apply(op, phi0, s, tol)
    else:
        raise ValueError(f"unknown backend '{backend}'")
    vals = np.empty((ts.size,) + phi0.shape)
    live = ts > 0
    vals[~live] = phi0
    if live.any():
        vals[live] = evolve(ts[live])
    return HeatField(vals[0] if np.ndim(t) == 0 else vals, op.mesh)


def heat_gram(op: DiscreteOperator, phi, t) -> np.ndarray:
    """(phi_i, e^{-tA} phi_j) for the columns of the (N, k) block phi at every
    t in the sequence t, as a (T, k, k) array of plain dot products.

    Each column is evolved by the operator's backend (exp_backend) with tol
    FINE_TOL (tail-accurate values for the off-diagonal margins) and dotted
    with each column of phi.  Both backends keep an exact zero coupling
    exact, so sets that no path connects get exactly 0.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    phi = np.asarray(phi, dtype=float)
    k = phi.shape[1]
    rows = np.ascontiguousarray(phi.T)
    gram = np.empty((ts.size, k, k))
    for g, block in zip(gram, heat_evolve(op, phi, ts, backend=exp_backend(op), tol=FINE_TOL).values):
        columns = np.ascontiguousarray(block.T)
        for i in range(k):
            for j in range(k):
                g[i, j] = np.dot(rows[i], columns[j])
    return gram


def kernel_column(op: DiscreteOperator, source_index: int, t: float) -> HeatField:
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

    'contour' (1D) reads the whole diagonal off the Talbot rule at tol
    DEFAULT_TOL (_contour_diag).  Against a 40-digit eigen reference on 64-
    and 65-point Laplacian, cut and delta = 0.5 operators, for t lambda_max
    from 1e-3 to 1e7, its error stayed within tol: at most 2.3e-13, the
    rule's own error, at small t lambda_max.  Past t lambda_max = 1e4 a
    roundoff part grows with t lambda_max, to 2.3e-13 at 1e7 on the cut
    operator (about 2e-20 t lambda_max).  'columns' (2D) evolves blocks of
    kernel columns by the operator's backend (exp_backend), BLOCK_BYTES of
    deltas but at least CPUS columns a block, so every lane gets columns.
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
            diag = heat_evolve(op, deltas, ts, backend=exp_backend(op)).values[:, cols, pick]
            best = np.maximum(best, diag.max(axis=1))
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
    return keep


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
    out = np.empty((rs.size,) + phi.shape)
    if op.mesh.dimension != 1:
        out[:] = phi  # the identity when lambda_max = 0
        if lmax > 0.0 and rs.size:
            coefs = [_resolvent_coefficients(0.5 * s * s * lmax, m, FINE_TOL) for s in rs]
            out[:] = _cheb_apply(op, phi.reshape(op.size, -1), coefs).reshape(out.shape)
        for radius, u in zip(rs, out):
            v = u
            for _ in range(m):
                v = v + radius * radius * (A @ v)
            res = np.linalg.norm(v - phi)
            bound = RESOLVENT_CHECK_FACTOR * FINE_TOL * (1.0 + radius * radius * lmax) ** m
            if res > bound * np.linalg.norm(phi):
                raise SolverError(f"resolvent power residual {res:.3e} at r={radius:g}, m={m}")
        return out[0] if np.ndim(r) == 0 else out
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


def wave_evolve(op: DiscreteOperator, phi0, t: float) -> WaveField:
    """cos(t A^{1/2}) phi0 by leapfrog with cosine initial condition
    (u^{-1} = u^{1}); dt = CFL_SAFETY * 2 / sqrt(lambda_max)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if t == 0.0:
        return WaveField(phi0.copy(), phi0.copy(), 0.0, 0.0)
    lmax = max(op.spectral_norm_bound, 1e-300)
    dt_max = CFL_SAFETY * 2.0 / np.sqrt(lmax)
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
