"""Coefficient fields for divergence-form operators and their classifier.

A profile describes the symmetric PSD matrix field C(x) on a box, possibly
degenerate (smallest eigenvalue mu_m touching zero).  Scalar families are
built from the bounded canonical shape

    c(x) = (rho(x)^2 / (1 + rho(x)^2))**delta,   delta in [0, 1),

where rho measures distance to the declared degeneracy set: nearest center
for PowerDegenerate, | |x| - radius | for RadialShell (optionally flattened
to an annular plateau of the given width), |z - Phi(y)| for SurfaceDegenerate.

The classifier decides, per degeneracy, whether 1/mu_m is locally integrable
(closable form) or not (the diffusion separates there), by graded quadrature
and a piece-ratio divergence test.
"""

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, SchemaError
from .quadrature import graded_tail

_PSD_SLACK = 1e-12  # eigenvalues >= -_PSD_SLACK * ||C|| are treated as 0


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
    """Constant symmetric positive-definite matrix field."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T):
            raise ValueError("matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ValueError("matrix must be positive definite")
        self.matrix = 0.5 * (m + m.T)


@dataclass
class Sampled:
    """Matrix field given on a uniform grid over the domain box, bilinear
    interpolation in between.  1D data is an (n,) array of scalars; 2D data
    is (ny, nx, 3) upper-triangular entries (c11, c12, c22)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 3):
            raise ValueError("sampled values must be (n,) in 1D or (ny, nx, 3) in 2D")


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
    """Immutable description of C(x) on a box; epsilon is the viscosity shift
    already applied (evaluations return the base matrix plus epsilon*I)."""

    dimension: int
    family: Family
    domain: tuple
    epsilon: float = 0.0
    gamma_hint: float | None = None
    cut_hint: tuple = ()
    _norm_bound: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        self.domain = _canon_domain(self.dimension, self.domain)
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        fam = self.family
        if isinstance(fam, StronglyElliptic) and fam.matrix.shape[0] != self.dimension:
            raise ValueError("matrix dimension does not match profile dimension")
        if isinstance(fam, SurfaceDegenerate) and self.dimension != 2:
            raise ValueError("surface degeneracy requires dimension 2")
        if isinstance(fam, Sampled):
            want = 1 if self.dimension == 1 else 3
            if self.dimension == 1 and fam.values.ndim != 1:
                raise ValueError("1D sampled profile needs a flat value array")
            if self.dimension == 2 and (fam.values.ndim != 3 or fam.values.shape[2] != want):
                raise ValueError("2D sampled profile needs (ny, nx, 3) upper-tri entries")
            self._project_sampled_psd()

    # -- construction helpers ------------------------------------------------

    def _project_sampled_psd(self):
        """Validate sampled entries and clip eigenvalues in [-tol, 0) to 0."""
        fam = self.family
        if self.dimension == 1:
            scale = float(np.max(np.abs(fam.values))) or 1.0
            bad = fam.values < -_PSD_SLACK * scale
            if np.any(bad):
                raise ValueError("sampled profile has negative entries beyond tolerance")
            fam.values = np.maximum(fam.values, 0.0)
            return
        a, b, c = fam.values[..., 0], fam.values[..., 1], fam.values[..., 2]
        tr2 = 0.5 * (a + c)
        disc = np.sqrt(np.maximum((0.5 * (a - c)) ** 2 + b**2, 0.0))
        lo = tr2 - disc
        scale = float(np.max(tr2 + disc)) or 1.0
        if np.any(lo < -_PSD_SLACK * scale):
            raise ValueError("sampled profile has matrices that are not PSD within tolerance")
        # shift slightly negative smallest eigenvalues to exactly 0
        lift = np.maximum(-lo, 0.0)
        fam.values[..., 0] = a + lift
        fam.values[..., 2] = c + lift

    # -- basic queries ---------------------------------------------------------

    @property
    def is_scalar(self):
        """True when C(x) = c(x) I for a scalar field c."""
        fam = self.family
        if isinstance(fam, (PowerDegenerate, RadialShell, SurfaceDegenerate)):
            return True
        if isinstance(fam, StronglyElliptic):
            m = fam.matrix
            return bool(np.allclose(m, m[0, 0] * np.eye(self.dimension)))
        if isinstance(fam, Sampled) and self.dimension == 1:
            return True
        return False

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
        (Quadrature paths evaluate the normal section at exact offsets and
        never go through here.)
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
        """Vectorized c(x) + epsilon for scalar profiles; pts is (M,) in 1D
        or (M, 2) in 2D."""
        if not self.is_scalar:
            raise ValueError("profile is not scalar")
        pts = self._check_domain(pts)
        fam = self.family
        if isinstance(fam, (PowerDegenerate, RadialShell, SurfaceDegenerate)):
            base = self.shape_scalar(self.rho_values(pts))
        elif isinstance(fam, StronglyElliptic):
            base = np.full(pts.shape[0], fam.matrix[0, 0])
        else:  # 1D sampled
            (a, b), = self.domain
            xs = np.linspace(a, b, fam.values.shape[0])
            base = np.interp(pts[:, 0], xs, fam.values)
        return base + self.epsilon

    def matrix(self, x):
        """The d x d coefficient matrix at a single point."""
        pts = self._check_domain(x)
        fam = self.family
        d = self.dimension
        if isinstance(fam, StronglyElliptic):
            return fam.matrix + self.epsilon * np.eye(d)
        if isinstance(fam, Sampled) and d == 2:
            return self._sampled_matrix(pts[0]) + self.epsilon * np.eye(2)
        c = self.scalar_values(pts)[0]
        return c * np.eye(d)

    def _sampled_matrix(self, p):
        fam = self.family
        ny, nx, _ = fam.values.shape
        (ax, bx), (ay, by) = self.domain
        fx = (p[0] - ax) / (bx - ax) * (nx - 1)
        fy = (p[1] - ay) / (by - ay) * (ny - 1)
        ix = min(int(fx), nx - 2)
        iy = min(int(fy), ny - 2)
        tx, ty = fx - ix, fy - iy
        v = (
            fam.values[iy, ix] * (1 - tx) * (1 - ty)
            + fam.values[iy, ix + 1] * tx * (1 - ty)
            + fam.values[iy + 1, ix] * (1 - tx) * ty
            + fam.values[iy + 1, ix + 1] * tx * ty
        )
        return np.array([[v[0], v[1]], [v[1], v[2]]])

    def smallest_eigenvalues(self, pts):
        """Vectorized mu_m(x) = smallest eigenvalue of C(x) + epsilon I."""
        fam = self.family
        if self.is_scalar:
            return self.scalar_values(pts)
        pts2 = self._check_domain(pts)
        if isinstance(fam, StronglyElliptic):
            lo = float(np.linalg.eigvalsh(fam.matrix).min())
            return np.full(pts2.shape[0], lo + self.epsilon)
        out = np.empty(pts2.shape[0])
        for i, p in enumerate(pts2):
            m = self._sampled_matrix(p)
            tr2 = 0.5 * (m[0, 0] + m[1, 1])
            disc = math.sqrt(max((0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] ** 2, 0.0))
            out[i] = tr2 - disc + self.epsilon
        return out

    @property
    def norm_bound(self):
        """Essential bound ||C|| + epsilon, max spectral norm over a scan."""
        if self._norm_bound is None:
            fam = self.family
            if isinstance(fam, (PowerDegenerate, RadialShell, SurfaceDegenerate)):
                top = 1.0  # canonical shape is bounded by 1
            elif isinstance(fam, StronglyElliptic):
                top = float(np.linalg.eigvalsh(fam.matrix).max())
            elif self.dimension == 1:
                top = float(fam.values.max(initial=0.0))
            else:
                a, b, c = fam.values[..., 0], fam.values[..., 1], fam.values[..., 2]
                top = float(
                    np.max(0.5 * (a + c) + np.sqrt((0.5 * (a - c)) ** 2 + b**2))
                )
            self._norm_bound = top + self.epsilon
        return self._norm_bound

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


# ---------------------------------------------------------------------------
# operations


def viscosity_shift(profile: CoefficientProfile, epsilon: float) -> CoefficientProfile:
    """Profile whose evaluations equal the originals plus epsilon * I."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return CoefficientProfile(
        dimension=profile.dimension,
        family=profile.family,
        domain=profile.domain,
        epsilon=profile.epsilon + epsilon,
        gamma_hint=profile.gamma_hint,
        cut_hint=profile.cut_hint,
    )


class Verdict(str, Enum):
    STRONGLY_ELLIPTIC = "StronglyElliptic"
    CLOSABLE_DEGENERATE = "ClosableDegenerate"
    SEPARATING = "Separating"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class QuadratureConfig:
    scan_points: int = 10_000
    golden_iters: int = 320
    levels: int = 60
    alpha: float = 0.5
    div_threshold: float = 1e3
    ratio_cutoff: float = 0.97
    strong_ellipticity_threshold: float = 1e-8
    merge_tol_frac: float = 1e-3


@dataclass
class Classification:
    verdict: Verdict
    cut_points: list
    mu_lower: float
    integrability_table: list


def _golden_min(f, a, b, iters):
    """Golden-section minimum of a unimodal f on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 0.0:
            break
    return (c, fc) if fc <= fd else (d, fd)


def _locate_zeros(mu, lo, hi, declared, cfg):
    """Minimum search on a fine scan plus golden refinement; returns the
    merged list of near-zero locations and the refined infimum estimate."""
    xs = np.linspace(lo, hi, cfg.scan_points)
    if declared:
        xs = np.sort(np.concatenate([xs, np.asarray(declared, dtype=float)]))
    vals = np.asarray(mu(xs), dtype=float)
    mu_lower = float(vals.min())
    width = hi - lo
    zeros = []

    # scan points already at (numerical) zero, plateau runs compressed
    mask = vals <= cfg.strong_ellipticity_threshold
    if np.any(mask):
        run_start = None
        for i, m in enumerate(np.append(mask, False)):
            if m and run_start is None:
                run_start = i
            elif not m and run_start is not None:
                zeros.append(float(0.5 * (xs[run_start] + xs[i - 1])))
                run_start = None

    # golden refinement of promising strict local minima (undeclared dips)
    strict = np.where((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]))[0] + 1
    promote = 1e-3 * max(float(vals.max()), cfg.strong_ellipticity_threshold)
    cand = [i for i in strict if vals[i] <= promote and not mask[i]]
    imin = int(np.argmin(vals))
    if not mask[imin]:
        cand.append(imin)
    for i in sorted(set(cand)):
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, len(xs) - 1)]
        x_ref, v_ref = _golden_min(
            lambda t: float(np.asarray(mu(np.array([t])), dtype=float)[0]),
            a,
            b,
            cfg.golden_iters,
        )
        if vals[i] < v_ref:
            x_ref, v_ref = float(xs[i]), float(vals[i])
        mu_lower = min(mu_lower, float(v_ref))
        if v_ref <= cfg.strong_ellipticity_threshold:
            zeros.append(float(x_ref))

    zeros.sort()
    merged = []
    for z in zeros:
        if merged and z - merged[-1] < cfg.merge_tol_frac * width:
            continue
        merged.append(z)
    return merged, mu_lower


def classify(profile: CoefficientProfile, cfg: QuadratureConfig | None = None) -> Classification:
    """Decide strong ellipticity, closability, or separation candidacy.

    Works on the 1D axis for 1D profiles and on the signed normal offset for
    declared radial/surface degeneracies.  Quadrature of 1/mu_m is run toward
    each located zero from both sides; a divergent side marks a cut.
    """
    cfg = cfg or QuadratureConfig()
    fam = profile.family

    if profile.dimension == 1:
        (lo, hi), = profile.domain

        def mu(xs):
            return profile.smallest_eigenvalues(np.asarray(xs, float).reshape(-1, 1))

        declared = profile.axis_degeneracies() if isinstance(
            fam, (PowerDegenerate, RadialShell)
        ) else []

        def offset_mu(z0, side):
            sect = None
            if isinstance(fam, (PowerDegenerate, RadialShell)) and any(
                abs(z0 - z) < 1e-12 for z in declared
            ):
                sect = profile.normal_section()
            if sect is not None:
                return lambda rho: sect(side * rho)
            return lambda rho: mu(z0 + side * rho)

    elif isinstance(fam, (RadialShell, SurfaceDegenerate)):
        # classification reduces to the normal section through the degeneracy
        sect = profile.normal_section()
        span = cfg.alpha
        lo, hi = -span, span

        def mu(xs):
            return sect(np.asarray(xs, dtype=float))

        declared = [0.0]

        def offset_mu(z0, side):
            return lambda rho: sect(z0 + side * rho)

    else:
        raise ValueError(
            "classification needs a 1D profile or a declared radial/surface degeneracy"
        )

    zeros, mu_lower = _locate_zeros(mu, lo, hi, declared, cfg)

    if mu_lower > cfg.strong_ellipticity_threshold:
        return Classification(Verdict.STRONGLY_ELLIPTIC, [], mu_lower, [])

    table = []
    cuts = []
    ambiguous = False
    for z0 in zeros:
        gaps = [abs(z0 - z) for z in zeros if z != z0]
        alpha = min(cfg.alpha, hi - z0 if z0 < hi else np.inf, z0 - lo if z0 > lo else np.inf)
        if gaps:
            alpha = min(alpha, 0.5 * min(gaps))
        divergent_here = False
        for side, name in ((1.0, "right"), (-1.0, "left")):
            span = min(alpha, (hi - z0) if side > 0 else (z0 - lo))
            if span <= 0:
                continue
            f = offset_mu(z0, side)
            inv = graded_tail(
                lambda rho: 1.0 / np.maximum(f(rho), 1e-300),
                span,
                levels=cfg.levels,
                div_threshold=cfg.div_threshold,
                ratio_cutoff=cfg.ratio_cutoff,
            )
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


def profile_from_json(doc: dict, base_dir=None) -> CoefficientProfile:
    try:
        dimension = int(doc["dimension"])
        famdoc = doc["family"]
        kind = famdoc["kind"]
        domain = doc["domain"]
    except KeyError as exc:
        raise SchemaError(f"profile document missing field {exc}") from exc
    if kind == "power":
        centers = tuple(
            (c,) if np.isscalar(c) else tuple(c) for c in famdoc.get("centers", [0.0])
        )
        fam = PowerDegenerate(delta=float(famdoc["delta"]), centers=centers)
    elif kind == "radial_shell":
        fam = RadialShell(
            delta=float(famdoc["delta"]),
            radius=float(famdoc["radius"]),
            width=float(famdoc.get("width", 0.0)),
        )
    elif kind == "surface":
        surf = famdoc["surface"]
        fam = SurfaceDegenerate(
            delta=float(famdoc["delta"]),
            y_samples=tuple(surf["y"]),
            phi_samples=tuple(surf["phi"]),
        )
    elif kind == "constant":
        fam = StronglyElliptic(matrix=np.asarray(famdoc["matrix"], dtype=float))
    elif kind == "sampled":
        path = famdoc["file"]
        if base_dir is not None:
            import os

            path = os.path.join(base_dir, path)
        shape = famdoc.get("shape")
        fam = Sampled(values=load_sampled_csv(path, dimension, shape))
    else:
        raise SchemaError(f"unknown profile family kind '{kind}'")
    return CoefficientProfile(
        dimension=dimension,
        family=fam,
        domain=domain,
        epsilon=float(doc.get("epsilon", 0.0)),
        gamma_hint=doc.get("gamma_hint"),
        cut_hint=tuple(doc.get("cut_hint", ())),
    )


def load_sampled_csv(path, dimension, shape=None):
    """Sampled-profile CSV: one row per grid point, columns the
    upper-triangular entries of C (one column in 1D, three in 2D)."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            rows.append([float(v) for v in row])
    data = np.asarray(rows)
    if dimension == 1:
        return data[:, 0]
    if shape is None:
        raise SchemaError("2D sampled profile needs a 'shape' [ny, nx] entry")
    ny, nx = shape
    return data.reshape(ny, nx, 3)
