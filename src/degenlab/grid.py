"""Uniform reflecting meshes and the finite-volume operator assembly.

The discrete operator is assembled face by face: every interior face between
adjacent grid points i, j contributes a conductance g = (c(face midpoint) +
epsilon) / h^2 symmetrically to the four entries (ii, jj, ij, ji).  Boundary
faces contribute nothing (reflecting truncation), which makes every row sum
exactly zero.  The result is a symmetric M-matrix generator: nonpositive
off-diagonals, zero row sums, positive semidefinite; its negative exponential
is automatically a conservative positivity-preserving contraction semigroup.
"""

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientProfile
from .errors import ResourceLimitError

POINT_CAP = 2**22
MARKOV_PROBES = 32  # random Rayleigh quotients in markov_check


@dataclass(frozen=True)
class Mesh:
    dimension: int
    box: tuple  # per-axis (a, b)
    n: int  # cells per axis
    h: float

    @property
    def points_per_axis(self):
        return self.n + 1

    @property
    def size(self):
        return (self.n + 1) ** self.dimension

    @property
    def cell_volume(self):
        return self.h**self.dimension

    def axis(self, k=0):
        a, b = self.box[k]
        return a + self.h * np.arange(self.n + 1)

    def points(self):
        """(N, d) array of grid points, x-major flattening in 2D."""
        if self.dimension == 1:
            return self.axis(0).reshape(-1, 1)
        xs, ys = self.axis(0), self.axis(1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def flat_index(self, ix, iy=None):
        if self.dimension == 1:
            return ix
        return ix * (self.n + 1) + iy

    def nearest_index(self, point):
        """Flat index of the grid point closest to the given point."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for k in range(self.dimension):
            a, _ = self.box[k]
            i = int(round((p[k] - a) / self.h))
            idx.append(min(max(i, 0), self.n))
        return idx[0] if self.dimension == 1 else self.flat_index(idx[0], idx[1])


def build_mesh(dimension, box, n) -> Mesh:
    """Uniform mesh with points x_i = a + i h, h = (b - a) / n."""
    if n < 8:
        raise ValueError("n must be >= 8")
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (dimension, 1))
    if box.shape != (dimension, 2) or not np.all(box[:, 1] > box[:, 0]):
        raise ValueError("box must be a nondegenerate interval per axis")
    widths = box[:, 1] - box[:, 0]
    if not np.allclose(widths, widths[0]):
        raise ValueError("axes must have equal width (single spacing h)")
    if (n + 1) ** dimension > POINT_CAP:
        raise ResourceLimitError(
            f"mesh would have {(n + 1) ** dimension} points, cap is {POINT_CAP}"
        )
    h = float(widths[0] / n)
    return Mesh(dimension=dimension, box=tuple(map(tuple, box)), n=n, h=h)


class DiscreteOperator:
    """Assembled generator; immutable after construction and shareable by
    concurrent readers.  Spectral norm bound is the Gershgorin estimate."""

    def __init__(self, matrix: sp.csr_matrix, mesh: Mesh, epsilon: float):
        self.matrix = matrix
        self.mesh = mesh
        self.epsilon = epsilon
        diag = matrix.diagonal()
        self.spectral_norm_bound = float(2.0 * diag.max()) if diag.size else 0.0
        self._components = None  # (matrix, count, labels)
        self._components_lock = threading.Lock()

    @property
    def size(self):
        return self.matrix.shape[0]

    def components(self):
        """(count, labels): the connected components of the graph of nonzero
        couplings, explicit zeros dropped, so an exact cut separates.  Labelled
        once per matrix, and once for concurrent readers."""
        with self._components_lock:
            if self._components is None or self._components[0] is not self.matrix:
                from scipy.sparse.csgraph import connected_components

                graph = self.matrix.copy()
                graph.eliminate_zeros()
                self._components = (self.matrix, *connected_components(graph, directed=False))
            return self._components[1:]

    def quadratic_form(self, phi):
        return float(phi @ (self.matrix @ phi))


def assemble(profile: CoefficientProfile, mesh: Mesh, epsilon: float) -> DiscreteOperator:
    """Finite-volume assembly of the viscosity generator on the mesh.

    Face conductances sample the scalar coefficient at face midpoints (exact
    conductance/integral duality); profiles are scalar (see the coeffs
    module for why).
    """
    if profile.dimension != mesh.dimension:
        raise ValueError("profile and mesh dimension mismatch")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    h = mesh.h
    npa = mesh.points_per_axis

    if mesh.dimension == 1:
        xs = mesh.axis(0)
        mids = 0.5 * (xs[:-1] + xs[1:])
        g = (profile.scalar_values(mids) + epsilon) / h**2
        rows_i = np.arange(mesh.n)
        rows_j = rows_i + 1
    else:
        xs, ys = mesh.axis(0), mesh.axis(1)
        # x-direction faces: (ix, iy) -- (ix+1, iy)
        IX, IY = np.meshgrid(np.arange(mesh.n), np.arange(npa), indexing="ij")
        mx = np.column_stack(
            [0.5 * (xs[IX.ravel()] + xs[IX.ravel() + 1]), ys[IY.ravel()]]
        )
        gx = (profile.scalar_values(mx) + epsilon) / h**2
        ix_i = IX.ravel() * npa + IY.ravel()
        ix_j = (IX.ravel() + 1) * npa + IY.ravel()
        # y-direction faces: (ix, iy) -- (ix, iy+1)
        JX, JY = np.meshgrid(np.arange(npa), np.arange(mesh.n), indexing="ij")
        my = np.column_stack(
            [xs[JX.ravel()], 0.5 * (ys[JY.ravel()] + ys[JY.ravel() + 1])]
        )
        gy = (profile.scalar_values(my) + epsilon) / h**2
        iy_i = JX.ravel() * npa + JY.ravel()
        iy_j = JX.ravel() * npa + JY.ravel() + 1
        g = np.concatenate([gx, gy])
        rows_i = np.concatenate([ix_i, iy_i])
        rows_j = np.concatenate([ix_j, iy_j])

    N = mesh.size
    rows = np.concatenate([rows_i, rows_j, rows_i, rows_j])
    cols = np.concatenate([rows_i, rows_j, rows_j, rows_i])
    data = np.concatenate([g, g, -g, -g])
    A = sp.coo_matrix((data, (rows, cols)), shape=(N, N)).tocsr()
    A.sum_duplicates()
    return DiscreteOperator(A, mesh, epsilon)


def cut_conductance(profile, mesh, cut_interval, epsilon) -> float:
    """Effective series conductance across a 1D interval: the reciprocal of
    the summed face resistances h / (c_face + epsilon).  Tends to the
    reciprocal of int 1/c under refinement, and to 0 exactly when that
    integral diverges (epsilon = 0)."""
    if mesh.dimension != 1:
        raise ValueError("cut_conductance is 1D only")
    lo, hi = cut_interval
    xs = mesh.axis(0)
    mids = 0.5 * (xs[:-1] + xs[1:])
    sel = (mids >= lo) & (mids <= hi)
    if not np.any(sel):
        raise ValueError("cut interval contains no faces")
    c = profile.scalar_values(mids[sel]) + epsilon
    if np.any(c <= 0.0):
        return 0.0
    return float(1.0 / np.sum(mesh.h / c))


def markov_check(op: DiscreteOperator, seed=0) -> dict:
    """The three discrete Markov-generator diagnostics: worst row sum,
    worst positive off-diagonal entry, smallest random Rayleigh quotient.
    Reports, never raises."""
    A = op.matrix
    row_sums = np.abs(np.asarray(A.sum(axis=1)).ravel())
    coo = A.tocoo()
    off = coo.data[coo.row != coo.col]
    max_pos = float(off.max(initial=0.0))
    rng = np.random.default_rng(seed)
    N = op.size
    min_ray = np.inf
    for _ in range(MARKOV_PROBES):
        phi = rng.standard_normal(N)
        phi /= np.linalg.norm(phi)
        min_ray = min(min_ray, float(phi @ (A @ phi)))
    return {
        "max_row_sum": float(row_sums.max()),
        "max_positive_offdiag": max(max_pos, 0.0),
        "min_rayleigh": min_ray,
        "norm_inf": float(np.abs(A).sum(axis=1).max()),
    }
