"""Intrinsic pseudodistance of a coefficient field and derived geometry.

In 1D the distance between x and y is the integral of (c + eps)^(-1/2),
computed by graded quadrature that is exact about each declared degeneracy
and deterministic: the same nodes serve every epsilon, so epsilon-monotone
families of distances come out exactly monotone.  On meshes, distance fields
are Dijkstra shortest paths (scipy.sparse.csgraph) on the 2-neighbor (1D) or
8-neighbor (2D) grid graph with metric edge weights; +inf is a first-class
value (unreachable components across exact cuts).  The graph (metric_graph)
depends only on (profile, mesh, epsilon), so a caller that makes several
fields builds it once and passes it to each.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientProfile
from .quadrature import graded_tail

# 8-point Gauss-Legendre on [0, 1] for near-degenerate edge weights
_G8_X, _G8_W = np.polynomial.legendre.leggauss(8)
_G8_X = 0.5 * (_G8_X + 1.0)
_G8_W = 0.5 * _G8_W
# edges whose midpoint c + eps is below EDGE_FLOOR^2 get the sub-quadrature too
EDGE_FLOOR = 1e-6
HOLDER_SAMPLES = 12  # geometric sample radii of holder_fit


@dataclass
class DistanceField:
    values: np.ndarray
    mesh: object


def distance_1d(profile: CoefficientProfile, x: float, y: float, epsilon: float = 0.0):
    """d_{C_eps}(x, y) = int_x^y (c + eps)^(-1/2) dz; +inf when the integral
    diverges (possible only for custom non-integrable profiles)."""
    if profile.dimension != 1:
        raise ValueError("distance_1d needs a 1D profile")
    x, y = float(x), float(y)
    if x == y:
        return 0.0
    if x > y:
        x, y = y, x

    centers = [z for z in profile.axis_degeneracies() if x < z < y]
    eps = epsilon

    # segment endpoints: x, interior degeneracies, y
    knots = [x] + centers + [y]
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        total += _segment_distance(profile, a, b, eps)
        if not np.isfinite(total):
            return np.inf
    return float(total)


def _segment_distance(profile, a, b, eps):
    """Integrate (c+eps)^(-1/2) over [a, b], split at the midpoint and graded
    toward both endpoints (exact about centers, merely overcautious about
    smooth endpoints); a divergent graded tail yields +inf."""
    if b - a <= 0:
        return 0.0
    mid = 0.5 * (a + b)
    left = _graded_or_inf(_offset_integrand(profile, a, +1.0, eps), mid - a)
    right = _graded_or_inf(_offset_integrand(profile, b, -1.0, eps), b - mid)
    return left + right


def _offset_integrand(profile, z0, side, eps):
    """(c + eps)^(-1/2) at exact offsets rho from z0 (exact about a declared
    center: see CoefficientProfile.offset_section)."""
    c = profile.offset_section(z0, side)
    return lambda rho: 1.0 / np.sqrt(np.maximum(c(rho) + eps, 1e-300))


def _graded_or_inf(f_offset, span):
    """Convergent graded integral, or +inf when the dyadic tail diverges.
    The divergence threshold is far above any finite d_{C_eps} of interest;
    genuine divergence is caught by the piece-ratio test.  A strict
    graded_tail raises, declares divergence (value +inf) or returns a
    finite value."""
    if span <= 0:
        return 0.0
    return graded_tail(f_offset, span, levels=52, div_threshold=1e15, strict=True).value


# ---------------------------------------------------------------------------
# grid distance fields


def metric_graph(profile: CoefficientProfile, mesh, epsilon: float = 0.0):
    """The grid graph as a sparse matrix of its finite edge weights, length *
    (c + eps)^(-1/2) sampled at edge midpoints; near-degenerate edges get an
    8-point Gauss sub-quadrature along the edge, and the two edges abutting a
    declared 1D center use the exact graded integral.  An edge of infinite
    weight (across an exact cut) is left out."""
    heads, tails, weights = _edge_graph(profile, mesh, epsilon)
    finite = np.isfinite(weights)
    return sp.csr_matrix(
        (weights[finite], (heads[finite], tails[finite])), shape=(mesh.size, mesh.size)
    )


def distance_field(
    profile: CoefficientProfile,
    mesh,
    origin,
    epsilon: float = 0.0,
    sources=None,
    graph=None,
) -> DistanceField:
    """Shortest-path distance field from the origin point (or the given
    source index set) over metric_graph(profile, mesh, epsilon), or over
    graph when the caller already holds it.  One csgraph Dijkstra, so nodes
    behind an exact cut stay +inf."""
    # kept out of `import degenlab`: only distance fields need csgraph
    from scipy.sparse.csgraph import dijkstra

    if sources is None:
        sources = [mesh.nearest_index(origin)]
    if graph is None:
        graph = metric_graph(profile, mesh, epsilon)
    dist = dijkstra(graph, directed=False, indices=sources, min_only=True)
    return DistanceField(dist, mesh)


def _edge_graph(profile, mesh, epsilon):
    """Edge list (heads, tails, weights) of the 2-/8-neighbor grid graph."""
    pts = mesh.points()
    N = mesh.size
    if mesh.dimension == 1:
        pairs = [(np.arange(N - 1), np.arange(1, N))]
    else:
        npa = mesh.points_per_axis
        grid = np.arange(N).reshape(npa, npa)
        pairs = [
            (grid[:-1, :].ravel(), grid[1:, :].ravel()),  # +x
            (grid[:, :-1].ravel(), grid[:, 1:].ravel()),  # +y
            (grid[:-1, :-1].ravel(), grid[1:, 1:].ravel()),  # diagonal
            (grid[1:, :-1].ravel(), grid[:-1, 1:].ravel()),  # anti-diagonal
        ]
    heads = np.concatenate([p[0] for p in pairs])
    tails = np.concatenate([p[1] for p in pairs])
    a = pts[heads]
    b = pts[tails]
    mids = 0.5 * (a + b)
    lengths = np.linalg.norm(b - a, axis=1)
    c_mid = profile.scalar_values(mids) + epsilon
    with np.errstate(divide="ignore"):
        weights = lengths / np.sqrt(c_mid)

    refine = (c_mid < EDGE_FLOOR**2) | _near_degenerate_edges(profile, mids, mesh.h)
    if refine.any():
        weights[refine] = _edge_weight_quadrature(profile, a[refine], b[refine], epsilon)
    return heads, tails, weights


def _near_degenerate_edges(profile, mids, h):
    try:
        rho = profile.rho_values(mids)
    except ValueError:
        return np.zeros(mids.shape[0], dtype=bool)
    return rho <= 8.0 * h


def _edge_weight_quadrature(profile, a, b, epsilon):
    """Metric lengths of the edges a[e]-b[e] by 8-point Gauss sub-quadrature,
    all edges in one coefficient evaluation; 1D edges that touch a declared
    center take the exact graded integral instead."""
    E, d = a.shape
    seg = a[:, None, :] + _G8_X[:, None] * (b - a)[:, None, :]  # (E, 8, d) nodes
    vals = profile.scalar_values(seg.reshape(-1, d)).reshape(E, 8) + epsilon
    with np.errstate(divide="ignore"):
        weights = np.linalg.norm(b - a, axis=1) * ((1.0 / np.sqrt(vals)) @ _G8_W)
    if d == 1:
        x0, x1 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
        # reversed, so that an edge touching two centers keeps the first
        for z in reversed(profile.axis_degeneracies()):
            f_l = _offset_integrand(profile, z, -1.0, epsilon)
            f_r = _offset_integrand(profile, z, +1.0, epsilon)
            for e in np.flatnonzero((x0 - 1e-12 <= z) & (z <= x1 + 1e-12)):
                weights[e] = _graded_or_inf(f_l, z - x0[e]) + _graded_or_inf(f_r, x1[e] - z)
    return weights


# ---------------------------------------------------------------------------
# derived quantities


def ball_volume(field: DistanceField, r: float) -> float:
    """Lebesgue volume of the ball {d < r} on the mesh (cell count times cell
    volume).  Convention: r = 0 returns the volume of the zero set, i.e. one
    cell for a point origin."""
    if r < 0:
        raise ValueError("r must be >= 0")
    vals = field.values
    inside = vals <= 0.0 if r == 0.0 else vals < r
    return float(np.count_nonzero(inside) * field.mesh.cell_volume)


@dataclass
class HolderFit:
    gamma_hat: float
    a_hat: float
    residual: float
    stderr: float


def holder_fit(profile: CoefficientProfile, origin, sample_range, epsilon=0.0) -> HolderFit:
    """Least-squares slope of log d_C(origin, origin + r) versus log r on
    geometric radii approaching the degeneracy at origin (1D profiles); the
    slope estimates the comparison exponent of the metric against the
    Euclidean one."""
    r_lo, r_hi = sample_range
    if not 0 < r_lo < r_hi:
        raise ValueError("sample range must satisfy 0 < lo < hi")
    radii = np.geomspace(r_lo, r_hi, HOLDER_SAMPLES)
    origin = float(np.atleast_1d(origin)[0])
    dists = np.array([distance_1d(profile, origin, origin + r, epsilon) for r in radii])
    good = np.isfinite(dists) & (dists > 0)
    radii, dists = radii[good], dists[good]
    if len(radii) < 3 or np.ptp(np.log(radii)) == 0:
        raise ValueError("degenerate fit: not enough spread in samples")
    slope, a, stderr, resid = fit_loglog(radii, dists)
    return HolderFit(
        gamma_hat=slope, a_hat=a, residual=float(np.abs(resid).max()), stderr=stderr
    )


def fit_loglog(x, y):
    """Least-squares line log y = slope log x + log a; returns
    (slope, a, stderr of the slope, residuals in log y)."""
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    dof = max(len(lx) - 2, 1)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if sxx > 0 else np.inf
    return float(coef[0]), float(np.exp(coef[1])), stderr, resid
