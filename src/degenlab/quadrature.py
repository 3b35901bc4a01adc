"""Graded quadrature toward point degeneracies.

All integrals of the form  int_{z0}^{z0 + span} f(z) dz  with f blowing up
(or not) at z0 are computed after the grading substitution z = z0 + u**KAPPA,
which turns power singularities (z - z0)**(-p), p < 1, into integrands that a
per-piece Gauss rule resolves to near machine precision.  The same dyadic
pieces double as the divergence detector: the piece-to-piece decay ratio of

    p_k = int over u in [U 2^{-k-1}, U 2^{-k}]

tends to 2**(-KAPPA (1 - p)), so p >= 1 (a divergent integral) shows up as a
ratio >= 1 while every integrable power stays clearly below the cutoff.

Integrands are supplied as functions of the *offset* rho = z - z0 >= 0, never
of z itself, so that offsets as small as 1e-70 survive without cancellation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveIntegralError

# 16-point Gauss-Legendre on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
KAPPA = 4  # grading exponent of z = z0 + u**KAPPA
RATIO_CUTOFF = 0.97  # trailing piece ratio at or above this: divergent
REL_TOL = 1e-10  # geometric tail estimate below this, relative: converged


@dataclass
class TailAnalysis:
    """Outcome of dyadic integration toward a singular endpoint.

    divergent is True/False when the ratio test settled, None when the level
    budget ran out in the ambiguous band.  value is the extrapolated integral
    (math.inf when divergent, nan when ambiguous); levels counts the dyadic
    pieces evaluated.
    """

    divergent: bool | None
    value: float
    levels: int


def dyadic_piece(f_offset, span, k):
    """Integral of f over offsets rho in [ (U 2^{-k-1})^KAPPA, (U 2^{-k})^KAPPA ]
    with U = span**(1/KAPPA), evaluated in the graded variable."""
    U = span ** (1.0 / KAPPA)
    hi = U * 2.0 ** (-k)
    lo = 0.5 * hi
    u = lo + (hi - lo) * _GL_X
    rho = u**KAPPA
    vals = f_offset(rho) * KAPPA * u ** (KAPPA - 1)
    return float((hi - lo) * np.dot(_GL_W, vals))


def graded_tail(f_offset, span, levels=60, div_threshold=1e3, strict=False) -> TailAnalysis:
    """Integrate f from the singular endpoint out to `span`, deciding
    convergence on the fly.

    Early exits: the running partial passing div_threshold declares
    divergence; a trailing ratio below RATIO_CUTOFF with a geometric tail
    estimate under REL_TOL declares convergence.  With `strict` the
    ambiguous outcome raises InconclusiveIntegralError instead of
    returning divergent=None.
    """
    pieces = []
    total = 0.0
    for k in range(levels):
        p = dyadic_piece(f_offset, span, k)
        pieces.append(p)
        total += p
        if total > div_threshold:
            return TailAnalysis(True, np.inf, k + 1)
        if k >= 2:
            ratio = _trail_ratio(pieces)
            if ratio < RATIO_CUTOFF and ratio > 0:
                tail = pieces[-1] * ratio / (1.0 - ratio)
                if tail < REL_TOL * max(total, 1e-300):
                    return TailAnalysis(False, total + tail, k + 1)
    # budget exhausted: settle by the trailing ratio
    ratio = _trail_ratio(pieces)
    last3 = [pieces[-3] / pieces[-4], pieces[-2] / pieces[-3], pieces[-1] / pieces[-2]]
    spread = max(last3) - min(last3)
    if ratio >= RATIO_CUTOFF and spread <= 0.08:
        return TailAnalysis(True, np.inf, levels)
    if ratio < RATIO_CUTOFF and spread <= 0.08:
        tail = pieces[-1] * ratio / (1.0 - ratio) if ratio < 1 else np.inf
        return TailAnalysis(False, total + tail, levels)
    if strict:
        raise InconclusiveIntegralError(
            f"graded tail ambiguous after {levels} levels (trailing ratio {ratio:.4f})"
        )
    return TailAnalysis(None, np.nan, levels)


def _trail_ratio(pieces):
    """Geometric mean of the last three piece-to-piece ratios."""
    if len(pieces) < 4:
        return np.nan
    a = pieces[-4]
    b = pieces[-1]
    if a <= 0 or b <= 0:
        return 0.0
    return float((b / a) ** (1.0 / 3.0))


def integrate_graded(f_offset, span, levels=48):
    """Convergent integral from the singular endpoint out to `span`,
    dyadic pieces plus a geometric closure of the unresolved stub."""
    if span <= 0:
        return 0.0
    pieces = [dyadic_piece(f_offset, span, k) for k in range(levels)]
    total = float(np.sum(pieces))
    if pieces[-1] > 0 and pieces[-2] > 0:
        r = pieces[-1] / pieces[-2]
        if 0 < r < 0.999:
            total += pieces[-1] * r / (1.0 - r)
    return total
