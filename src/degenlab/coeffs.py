"""Coefficient fields for divergence-form operators and their classifier.

The paper's operator is H = -sum_ij d_i c_ij d_j for a PSD matrix field C(x);
a profile here is always the scalar field C = (c(x) + epsilon) I on a box,
possibly degenerate (c touching zero).  Matrix fields are left out because
the 5-point finite-volume stencil of grid.assemble is an M-matrix (a Markov
generator) unconditionally only without cross terms; a `constant` matrix
must be c I and a `sampled` field is 1D, and any other matrix is rejected
when the profile is built.  The degenerate families are built from the
bounded canonical shape

    c(x) = (rho(x)^2 / (1 + rho(x)^2))**delta,   delta in [0, 1),

where rho measures distance to the declared degeneracy set: nearest center
for PowerDegenerate, | |x| - radius | for RadialShell (optionally flattened
to an annular plateau of the given width), |z - Phi(y)| for SurfaceDegenerate.

The classifier decides, per degeneracy, whether 1/(c + epsilon) is locally
integrable (closable form) or not (the diffusion separates there), by graded
quadrature and a piece-ratio divergence test.
"""

import csv
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SchemaError, bind_documents
from .quadrature import graded_tail

_PSD_SLACK = 1e-12  # sampled values >= -_PSD_SLACK * max|c| are treated as 0
DEGENERACY_TOL = 1e-12  # a 1D point this close to a declared degeneracy is on it

# classifier budget; the divergence test runs at graded_tail's defaults
SCAN_POINTS = 10_000  # uniform scan for zeros of c + epsilon
ZERO_WINDOW = 0.5  # largest offset integrated from a zero (and the 2D normal scan)
ELLIPTIC_THRESHOLD = 1e-8  # c + epsilon above this everywhere: strongly elliptic
MERGE_FRACTION = 1e-3  # zeros closer than this fraction of the scan are one


# ---------------------------------------------------------------------------
# families


@dataclass
class PowerDegenerate:
    """Isolated power-law degeneracies at the given centers."""

    delta: float
    centers: tuple = ((0.0,),)

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        cs = []
        for c in self.centers:
            cs.append(tuple(np.atleast_1d(np.asarray(c, dtype=float)).tolist()))
        self.centers = tuple(cs)


@dataclass
class RadialShell:
    """Degeneracy on the sphere |x| = radius; width > 0 flattens it to an
    annular plateau where c vanishes identically (exact-cut scenarios)."""

    delta: float
    radius: float
    width: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.width < 0:
            raise ValueError("width must be >= 0")


@dataclass
class SurfaceDegenerate:
    """Degeneracy on the hypersurface z = Phi(y), Phi given by samples."""

    delta: float
    y_samples: tuple
    phi_samples: tuple

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if len(self.y_samples) != len(self.phi_samples) or len(self.y_samples) < 2:
            raise ValueError("surface needs matching y/phi sample arrays, length >= 2")

    def phi(self, y):
        return np.interp(y, self.y_samples, self.phi_samples)


@dataclass
class StronglyElliptic:
    """Constant field c > 0."""

    c: float

    def __post_init__(self):
        self.c = float(self.c)
        if not self.c > 0:
            raise ValueError(f"constant coefficient must be positive, got {self.c}")


@dataclass
class Sampled:
    """1D field given by (n,) values on a uniform grid over the domain,
    linear interpolation in between."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


Family = PowerDegenerate | RadialShell | SurfaceDegenerate | StronglyElliptic | Sampled


# ---------------------------------------------------------------------------
# profile


def _canon_domain(dimension, domain):
    dom = np.asarray(domain, dtype=float)
    if dom.ndim == 1:
        dom = np.tile(dom, (dimension, 1))
    if dom.shape != (dimension, 2) or not np.all(dom[:, 1] > dom[:, 0]):
        raise SchemaError(f"domain must be {dimension} nondegenerate interval(s)")
    return tuple(map(tuple, dom))


@dataclass
class CoefficientProfile:
    """Immutable description of the scalar field c(x) on a box; epsilon is
    the viscosity shift already applied (evaluations return c + epsilon)."""

    dimension: int
    family: Family
    domain: tuple
    epsilon: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        self.domain = _canon_domain(self.dimension, self.domain)
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        fam = self.family
        if isinstance(fam, SurfaceDegenerate) and self.dimension != 2:
            raise ValueError("surface degeneracy requires dimension 2")
        if isinstance(fam, Sampled):
            if self.dimension != 1 or fam.values.ndim != 1:
                raise ValueError("sampled profile: 1D values only (the assembly is scalar)")
            # clip values in [-tol, 0) to 0
            scale = float(np.max(np.abs(fam.values))) or 1.0
            if np.any(fam.values < -_PSD_SLACK * scale):
                raise ValueError("sampled profile has negative entries beyond tolerance")
            fam.values = np.maximum(fam.values, 0.0)

    # -- basic queries ---------------------------------------------------------

    def _as_points(self, pts):
        """Canonicalize to an (M, d) array: scalars and flat arrays are point
        batches in 1D, a flat length-2 array is a single point in 2D."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(-1, 1) if self.dimension == 1 else pts.reshape(1, -1)
        if pts.shape[1] != self.dimension:
            raise ValueError(f"points must have {self.dimension} component(s)")
        return pts

    def _check_domain(self, pts):
        pts = self._as_points(pts)
        for ax, (a, b) in enumerate(self.domain):
            lo, hi = pts[:, ax].min(), pts[:, ax].max()
            slack = 1e-9 * (b - a)
            if lo < a - slack or hi > b + slack:
                raise DomainError(
                    f"point component {ax} in [{lo}, {hi}] outside domain [{a}, {b}]"
                )
        return pts

    def rho_values(self, pts):
        """Distance to the degeneracy set (scalar degenerate families only).

        Offsets at rounding-noise scale snap to exactly 0 so that meshes
        aligned to put face midpoints on the degeneracy produce exact zero
        conductances regardless of how the midpoint arithmetic rounded.
        (Quadrature from a declared degeneracy evaluates the normal section
        at exact offsets, through offset_section, and never comes here.)
        """
        pts = self._as_points(pts)
        fam = self.family
        if isinstance(fam, PowerDegenerate):
            d = np.full(pts.shape[0], np.inf)
            for c in fam.centers:
                d = np.minimum(d, np.linalg.norm(pts - np.asarray(c), axis=1))
        elif isinstance(fam, RadialShell):
            r = np.linalg.norm(pts, axis=1) if self.dimension == 2 else np.abs(pts[:, 0])
            d = np.maximum(np.abs(r - fam.radius) - 0.5 * fam.width, 0.0)
        elif isinstance(fam, SurfaceDegenerate):
            d = np.abs(pts[:, 1] - fam.phi(pts[:, 0]))
        else:
            raise ValueError("rho is defined only for degenerate scalar families")
        snap = 1e-13 * (1.0 + np.abs(pts).max(axis=1))
        return np.where(d <= snap, 0.0, d)

    def shape_scalar(self, rho):
        """The canonical bounded shape (rho^2/(1+rho^2))**delta, without epsilon."""
        rho = np.asarray(rho, dtype=float)
        delta = self.family.delta
        if delta == 0.0:
            return np.ones_like(rho)
        r2 = rho * rho
        return np.where(rho > 0.0, (r2 / (1.0 + r2)) ** delta, 0.0)

    def scalar_values(self, pts):
        """Vectorized c(x) + epsilon; pts is (M,) in 1D or (M, 2) in 2D."""
        pts = self._check_domain(pts)
        fam = self.family
        if isinstance(fam, StronglyElliptic):
            base = np.full(pts.shape[0], fam.c)
        elif isinstance(fam, Sampled):
            (a, b), = self.domain
            xs = np.linspace(a, b, fam.values.shape[0])
            base = np.interp(pts[:, 0], xs, fam.values)
        else:
            base = self.shape_scalar(self.rho_values(pts))
        return base + self.epsilon

    @property
    def norm_bound(self):
        """Essential bound sup c + epsilon."""
        fam = self.family
        if isinstance(fam, StronglyElliptic):
            top = fam.c
        elif isinstance(fam, Sampled):
            top = float(fam.values.max(initial=0.0))
        else:
            top = 1.0  # canonical shape is bounded by 1
        return top + self.epsilon

    # -- 1D normal sections ----------------------------------------------------

    def axis_degeneracies(self):
        """Locations on the 1D axis (or in the signed normal coordinate for
        radial/surface families) where rho vanishes."""
        fam = self.family
        if isinstance(fam, PowerDegenerate):
            if self.dimension != 1:
                raise ValueError("axis degeneracies are 1D only")
            return sorted(c[0] for c in fam.centers)
        if isinstance(fam, RadialShell) and self.dimension == 1:
            return sorted((-fam.radius, fam.radius))
        return []

    def normal_section(self):
        """Scalar coefficient as a function of the signed offset s from the
        degeneracy set, c(s) + epsilon.  Defined for radial and surface
        families (and trivially for 1D single-center power families)."""
        fam = self.family
        if isinstance(fam, RadialShell):
            w = 0.5 * fam.width

            def sect(s):
                r = np.maximum(np.abs(np.asarray(s, dtype=float)) - w, 0.0)
                return self.shape_scalar(r) + self.epsilon

            return sect
        if isinstance(fam, (SurfaceDegenerate, PowerDegenerate)):

            def sect(s):
                return self.shape_scalar(np.abs(np.asarray(s, dtype=float))) + self.epsilon

            return sect
        raise ValueError("no normal section for this family")

    def offset_section(self, z0, side):
        """rho -> c(z0 + side * rho) + epsilon for offsets rho >= 0.

        z0 is a point of the 1D axis or, for a 2D radial or surface family,
        a signed normal offset from the degeneracy set.  From a declared 1D
        degeneracy the normal section is evaluated at the offset itself, so
        offsets far below the rounding of z0 keep their value (rho_values
        would snap them to the degeneracy)."""
        if self.dimension == 2:
            sect = self.normal_section()
            return lambda rho: sect(z0 + side * rho)
        if any(abs(z0 - z) < DEGENERACY_TOL for z in self.axis_degeneracies()):
            sect = self.normal_section()
            return lambda rho: sect(side * rho)
        return lambda rho: self.scalar_values(z0 + side * rho)


# ---------------------------------------------------------------------------
# operations


class Verdict(str, Enum):
    STRONGLY_ELLIPTIC = "StronglyElliptic"
    CLOSABLE_DEGENERATE = "ClosableDegenerate"
    SEPARATING = "Separating"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class Classification:
    verdict: Verdict
    cut_points: list
    mu_lower: float
    integrability_table: list


def _locate_zeros(mu, lo, hi, known):
    """Zeros and infimum of mu on [lo, hi], read off SCAN_POINTS uniform
    points and the known points: a zero is the middle of a run of points at
    or below ELLIPTIC_THRESHOLD (zeros within MERGE_FRACTION of the interval
    are one), the infimum the least value."""
    xs = np.linspace(lo, hi, SCAN_POINTS)
    if known:
        xs = np.sort(np.concatenate([xs, np.asarray(known, dtype=float)]))
    vals = np.asarray(mu(xs), dtype=float)
    zeros = []
    run_start = None
    for i, m in enumerate(np.append(vals <= ELLIPTIC_THRESHOLD, False)):
        if m and run_start is None:
            run_start = i
        elif not m and run_start is not None:
            zeros.append(float(0.5 * (xs[run_start] + xs[i - 1])))
            run_start = None
    merged = []
    for z in zeros:
        if merged and z - merged[-1] < MERGE_FRACTION * (hi - lo):
            continue
        merged.append(z)
    return merged, float(vals.min())


def classify(profile: CoefficientProfile) -> Classification:
    """Decide strong ellipticity, closability, or separation candidacy.

    Works on the 1D axis for 1D profiles and on the signed normal offset for
    declared radial/surface degeneracies.  Every minimum of c + epsilon is a
    point of the scan (_locate_zeros): a power center, a shell radius, the 0
    of a normal section or a sample node, and any point of a constant.
    Quadrature of 1/(c + epsilon) is run toward each located zero from both
    sides; a divergent side marks a cut.
    """
    fam = profile.family

    if profile.dimension == 1:
        (lo, hi), = profile.domain

        def mu(xs):
            return profile.scalar_values(np.asarray(xs, float).reshape(-1, 1))

        known = profile.axis_degeneracies()
        if isinstance(fam, Sampled):
            known += np.linspace(lo, hi, fam.values.size).tolist()  # c is linear between them

    elif isinstance(fam, (RadialShell, SurfaceDegenerate)):
        # classification reduces to the normal section through the degeneracy
        mu = profile.normal_section()
        lo, hi = -ZERO_WINDOW, ZERO_WINDOW
        known = [0.0]

    else:
        raise ValueError(
            "classification needs a 1D profile or a declared radial/surface degeneracy"
        )

    zeros, mu_lower = _locate_zeros(mu, lo, hi, known)

    if mu_lower > ELLIPTIC_THRESHOLD:
        return Classification(Verdict.STRONGLY_ELLIPTIC, [], mu_lower, [])

    table = []
    cuts = []
    ambiguous = False
    for z0 in zeros:
        gaps = [abs(z0 - z) for z in zeros if z != z0]
        alpha = min(ZERO_WINDOW, hi - z0 if z0 < hi else np.inf, z0 - lo if z0 > lo else np.inf)
        if gaps:
            alpha = min(alpha, 0.5 * min(gaps))
        divergent_here = False
        for side, name in ((1.0, "right"), (-1.0, "left")):
            span = min(alpha, (hi - z0) if side > 0 else (z0 - lo))
            if span <= 0:
                continue
            f = profile.offset_section(z0, side)
            inv = graded_tail(lambda rho: 1.0 / np.maximum(f(rho), 1e-300), span)
            table.append(
                {
                    "zero": z0,
                    "side": name,
                    "span": span,
                    "inv_mu": inv.value,
                    "inv_mu_divergent": inv.divergent,
                    "levels": inv.levels,
                }
            )
            if inv.divergent is None:
                ambiguous = True
            elif inv.divergent:
                divergent_here = True
        if divergent_here:
            cuts.append(z0)

    if ambiguous and not cuts:
        return Classification(Verdict.INCONCLUSIVE, [], mu_lower, table)
    if cuts:
        return Classification(Verdict.SEPARATING, cuts, mu_lower, table)
    return Classification(Verdict.CLOSABLE_DEGENERATE, [], mu_lower, table)


# ---------------------------------------------------------------------------
# serialization


# profile documents: {"dimension", "family", "domain", "epsilon"}, the family
# {"kind": <kind>, ...} with its other keys the keyword-only parameters of
# the kind's constructor in FAMILIES (which also takes the dimension and the
# base directory)


def _power(dimension, base_dir, *, delta, centers=(0.0,)):
    centers = tuple((c,) if np.isscalar(c) else tuple(c) for c in centers)
    return PowerDegenerate(delta=float(delta), centers=centers)


def _radial_shell(dimension, base_dir, *, delta, radius, width=0.0):
    return RadialShell(delta=float(delta), radius=float(radius), width=float(width))


def _surface(dimension, base_dir, *, delta, surface):
    return SurfaceDegenerate(
        delta=float(delta), y_samples=tuple(surface["y"]), phi_samples=tuple(surface["phi"])
    )


def _surface_samples(*, y, phi):
    """Schema of a surface family's "surface" object."""


def _constant(dimension, base_dir, *, matrix):
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dimension, dimension) or not np.allclose(m, m[0, 0] * np.eye(dimension)):
        raise SchemaError(
            f"constant matrix must be c I, {dimension} x {dimension} (the assembly is scalar)"
        )
    return StronglyElliptic(m[0, 0])


def _sampled(dimension, base_dir, *, file):
    return Sampled(values=load_sampled_csv(os.path.join(base_dir or "", file)))


FAMILIES = {
    "power": _power,
    "radial_shell": _radial_shell,
    "surface": _surface,
    "constant": _constant,
    "sampled": _sampled,
}


def _profile_document(*, dimension, family, domain, epsilon=0.0):
    """Schema of a profile document."""


def profile_from_json(doc: dict, base_dir=None) -> CoefficientProfile:
    """The profile a document describes.  Its keys, the family's and a
    surface's bind against keyword-only signatures, so every unknown or
    missing key is named in one SchemaError before anything is built."""
    if not isinstance(doc, dict):
        raise SchemaError(f"a profile document is an object, not {doc!r}")
    family = doc.get("family", {})
    family = dict(family) if isinstance(family, dict) else {"kind": family}
    kind = family.pop("kind", None)
    if "family" in doc and kind not in FAMILIES:
        raise SchemaError(f"unknown profile family kind '{kind}'")
    parts = [("profile", _profile_document, (), doc)]
    if kind in FAMILIES:
        parts.append((f"profile.family ({kind})", FAMILIES[kind], (None, None), family))
    if kind == "surface" and isinstance(family.get("surface"), dict):
        parts.append(("profile.family.surface", _surface_samples, (), family["surface"]))
    bind_documents(parts)
    dimension = int(doc["dimension"])
    return CoefficientProfile(
        dimension=dimension,
        family=FAMILIES[kind](dimension, base_dir, **family),
        domain=doc["domain"],
        epsilon=float(doc.get("epsilon", 0.0)),
    )


def load_sampled_csv(path):
    """Sampled-profile CSV: one value of c per row, rows the uniform grid
    points of the 1D domain in order."""
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 1:
                raise SchemaError(f"sampled CSV row {row}: one value each, the assembly is scalar")
            values.append(float(row[0]))
    return np.asarray(values)
