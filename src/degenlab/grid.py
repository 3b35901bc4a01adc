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
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientProfile
from .errors import ResourceLimitError

POINT_CAP = 2**22


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
        grids = np.meshgrid(*map(self.axis, range(self.dimension)), indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def nearest_index(self, point):
        """Flat index of the grid point closest to the given point."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for k in range(self.dimension):
            a, _ = self.box[k]
            i = int(round((p[k] - a) / self.h))
            idx.append(min(max(i, 0), self.n))
        return idx[0] if self.dimension == 1 else idx[0] * (self.n + 1) + idx[1]

    def box_mask(self, box):
        """Node mask of the closed axis-aligned box: one [lo, hi] per axis,
        or a bare [lo, hi] in 1D."""
        b = np.broadcast_to(np.atleast_2d(np.asarray(box, dtype=float)), (self.dimension, 2))
        per_axis = ((x >= lo) & (x <= hi) for x, (lo, hi) in zip(self.points().T, b))
        return reduce(np.logical_and, per_axis)


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

    The CSR arrays are written directly, one row per node with its columns
    ascending: the lower neighbours (axis 0, then axis 1), the node, the
    upper neighbours (axis 1, then axis 0).  A coupling is -g, so a zero
    conductance is an explicit -0.0, and the diagonal sums the faces where
    the node is the lower end (axis by axis), then those where it is the
    upper end, in that order.
    """
    if profile.dimension != mesh.dimension:
        raise ValueError("profile and mesh dimension mismatch")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    n, npa, dim = mesh.n, mesh.points_per_axis, mesh.dimension
    xs = mesh.axis(0)
    mids = 0.5 * (xs[:-1] + xs[1:])
    if dim == 1:
        g = [(profile.scalar_values(mids) + epsilon) / mesh.h**2]
    else:
        ys = mesh.axis(1)
        # faces (ix, iy) -- (ix+1, iy) as (n, npa), then (ix, iy) -- (ix, iy+1) as (npa, n)
        mx = np.column_stack([np.repeat(mids, npa), np.tile(ys, n)])
        my = np.column_stack([np.repeat(xs, n), np.tile(0.5 * (ys[:-1] + ys[1:]), npa)])
        g = [((profile.scalar_values(m) + epsilon) / mesh.h**2).reshape(shape)
             for m, shape in ((mx, (n, npa)), (my, (npa, n)))]

    shape = (npa,) * dim
    slots = 2 * dim + 1  # slot k and 2 dim - k: the lower and upper neighbour on axis k
    vals = np.zeros(shape + (slots,))
    present = np.zeros(shape + (slots,), dtype=bool)
    present[..., dim] = True
    diag = vals[..., dim]
    lower = [tuple(slice(0, n) if j == k else slice(None) for j in range(dim)) for k in range(dim)]
    upper = [tuple(slice(1, None) if j == k else slice(None) for j in range(dim)) for k in range(dim)]
    # a sum from 0.0 has the bits of one from its first term, as no g is -0.0
    for k in range(dim):
        diag[lower[k]] += g[k]
    for k in range(dim):
        diag[upper[k]] += g[k]
        for at in (upper[k] + (k,), lower[k] + (2 * dim - k,)):
            np.negative(g[k], out=vals[at])
            present[at] = True

    N = mesh.size
    strides = [npa ** (dim - 1 - k) for k in range(dim)]
    offsets = np.array([-s for s in strides] + [0] + strides[::-1], dtype=np.int32)
    indices = (np.arange(N, dtype=np.int32)[:, None] + offsets)[present.reshape(N, slots)]
    indptr = np.zeros(N + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=-1, dtype=np.int32).ravel(), out=indptr[1:])
    A = sp.csr_matrix((vals[present], indices, indptr), shape=(N, N))
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


def markov_check(op: DiscreteOperator) -> dict:
    """The three discrete Markov-generator diagnostics: worst row sum, worst
    positive off-diagonal entry, and the Gershgorin bound min_i (2 a_ii -
    sum_j |a_ij|) <= lambda_min(A), the least row sum of an M-matrix.
    Reports, never raises."""
    A = op.matrix
    row_sums = np.abs(np.asarray(A.sum(axis=1)).ravel())
    coo = A.tocoo()
    off = coo.data[coo.row != coo.col]
    abs_sums = np.asarray(np.abs(A).sum(axis=1)).ravel()
    return {
        "max_row_sum": float(row_sums.max()),
        "max_positive_offdiag": float(off.max(initial=0.0)),
        "gershgorin_lower": float((2.0 * A.diagonal() - abs_sums).min()),
        "norm_inf": float(abs_sums.max()),
    }
