"""Pass/fail/fit diagnostics for assembled operators.

Each check consumes operators, heat fields, and distance fields, and emits a
CheckRecord with a status, a scalar margin, an optional fitted result, and a
table of the numbers behind the verdict (one CSV per check downstream).
Anchors state the inequality or identity being exercised.  Checks are pure
given their seed, so records are reproducible bit for bit.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .evolve import exp_backend, heat_evolve, heat_gram, kernel_column, resolvent_power_apply
from .evolve import sup_kernel, wave_evolve
from .grid import assemble, build_mesh, cut_conductance, markov_check
from .metric import ball_volume, distance_field, fit_loglog

ROW_SUM_TOL = 1e-13  # structure: worst row sum, relative to ||A||_inf
PSD_TOL = 1e-10  # structure: least Rayleigh quotient, relative to lambda_max
REL_TOL = 1e-6  # off-diagonal rows hold when lhs <= bound (1 + REL_TOL) + ABS_TOL
ABS_TOL = 1e-12
EXCITATION = 1e-8  # wave_speed: excited where |u| > EXCITATION * max |phi0|
STABILIZE_TOL = 0.05  # separation_probe: relative change of a stabilized leakage
PROBES = 16  # random data of invariance_defect and form_additivity_defect
OVERSHOOT = 1.10  # smalltime_decay: largest sup_kernel / bound curve that holds
SLOPE_TOL = 0.15  # resolvent_volume: largest |slope + 1| that holds
RATIO_CAP = 3.0  # resolvent_volume: largest max/min of K |B| that holds
MODES = {  # the modes of the checks that take one
    "largetime_floor": ("separated", "elliptic"),
    "ondiagonal_lower": ("uniform", "separated"),
}


class Status(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: Status
    margin: float | None = None
    fitted: dict | None = None
    runtime: float = 0.0
    witness: dict | None = None
    table: list = field(default_factory=list)

    def to_json(self):
        doc = {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status.value,
            "margin": self.margin,
        }
        if self.fitted is not None:
            doc["fitted"] = self.fitted
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class DiagnosticsReport:
    scenario: str
    environment: dict
    records: list

    @property
    def worst_status(self):
        if any(r.status is Status.VIOLATED for r in self.records):
            return Status.VIOLATED
        if any(r.status is Status.INCONCLUSIVE for r in self.records):
            return Status.INCONCLUSIVE
        return Status.HOLDS

    def to_json(self):
        return {
            "scenario": self.scenario,
            "environment": self.environment,
            "records": [r.to_json() for r in self.records],
        }


def _w_norm2(u, vol):
    return float(np.sqrt(np.dot(u, u) * vol))


def nonempty(mask, what):
    """The node mask, or a ValueError naming the set when it selects no
    node: no check may hold on an empty set."""
    if not np.any(mask):
        raise ValueError(f"{what} selects no mesh node")
    return mask


def _components_met(op, masks):
    """(met, labels): met[k, c] is True where node mask k meets component c
    of the operator's graph (DiscreteOperator.components), and labels gives
    each node's component.  e^{-tA} keeps a function on one component on
    that component, so sets in different components exchange no heat."""
    count, labels = op.components()
    met = np.zeros((len(masks), count), dtype=bool)
    for row, mask in zip(met, masks):
        row[labels[np.asarray(mask) != 0]] = True
    return met, labels


# ---------------------------------------------------------------------------
# conservation and structure


def conservation_defect(op, t_grid, tol=1e-9) -> CheckRecord:
    """max_t || e^{-tA} 1 - 1 ||_inf by the operator's exponential backend
    (exp_backend); zero row sums make this solver noise."""
    ts = [float(t) for t in t_grid]
    evolved = heat_evolve(op, np.ones(op.size), ts, backend=exp_backend(op)).values
    worst = 0.0
    worst_t = None
    table = []
    for t, values in zip(ts, evolved):
        defect = float(np.abs(values - 1.0).max())
        table.append({"t": t, "defect": defect})
        if defect > worst:
            worst, worst_t = defect, t
    status = Status.HOLDS if worst < tol else Status.VIOLATED
    witness = None if status is Status.HOLDS else {"t": worst_t, "defect": worst}
    return CheckRecord(
        "conservation",
        "S_t 1 = 1 (mass conservation / stochastic completeness)",
        status,
        margin=worst,
        witness=witness,
        table=table,
    )


def structure_check(op, seed=0) -> CheckRecord:
    """Markov-generator invariants: exact symmetry, nonpositive off-diagonal
    entries, zero row sums, positive semidefiniteness on random probes."""
    A = op.matrix
    sym = float(np.abs(A - A.T).max()) if A.nnz else 0.0
    rep = markov_check(op, seed=seed)
    norm_inf = max(rep["norm_inf"], 1e-300)
    ok = (
        sym == 0.0
        and rep["max_positive_offdiag"] == 0.0
        and rep["max_row_sum"] <= ROW_SUM_TOL * norm_inf
        and rep["min_rayleigh"] >= -PSD_TOL * op.spectral_norm_bound
    )
    table = [
        {"metric": "symmetry_defect", "value": sym},
        {"metric": "max_row_sum", "value": rep["max_row_sum"]},
        {"metric": "max_positive_offdiag", "value": rep["max_positive_offdiag"]},
        {"metric": "min_rayleigh", "value": rep["min_rayleigh"]},
    ]
    return CheckRecord(
        "structure",
        "A = A^T, offdiag <= 0, row sums = 0, A >= 0 (M-matrix generator)",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=rep["max_row_sum"] / norm_inf,
        witness=None if ok else rep,
        table=table,
    )


# ---------------------------------------------------------------------------
# off-diagonal bounds


def _pairwise_bound(name, anchor, op, masks, dist, dist_col, c_norm, t_grid):
    """|(1_i, S_t 1_j)| <= exp(-d_ij^2/(4 c_norm t)) ||1_i||_2 ||1_j||_2 over
    the pairs i < j of node masks, at every t; dist[i][j] is the pair
    distance, reported in column dist_col.  All pairs at all times come
    from one heat_gram call: gram[i, j - 1] = (1_i, S_t 1_j).  Column j is
    mask j on the components it shares with masks 0..j-1 (_components_met);
    elsewhere every mask i < j is 0, so each entry read is bitwise the whole
    mask's.  A column left empty, whose pairs all cross a cut, is not
    evolved, and its entries are exactly 0."""
    vol = op.mesh.cell_volume
    met, labels = _components_met(op, masks)
    earlier = np.logical_or.accumulate(met, axis=0)
    masks = [m.astype(float) for m in masks]
    norms = [_w_norm2(m, vol) for m in masks]
    ts = [float(t) for t in t_grid]
    columns = [masks[j] * (met[j] & earlier[j - 1])[labels] for j in range(1, len(masks))]
    live = [j for j, col in enumerate(columns) if col.any()]
    grams = np.zeros((len(ts), len(masks) - 1, len(masks) - 1))
    if live:
        right = np.column_stack([columns[j] for j in live])
        grams[:, :, live] = heat_gram(op, np.column_stack(masks[:-1]), right, ts)
    table = []
    worst_margin = np.inf
    violations = []
    for t, gram in zip(ts, grams):
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                d = dist[i][j]
                lhs = abs(float(gram[i, j - 1] * vol))
                bound = float(np.exp(-(d**2) / (4.0 * c_norm * t)) * norms[i] * norms[j])
                ok = lhs <= bound * (1.0 + REL_TOL) + ABS_TOL
                log_margin = float(np.log(max(bound + ABS_TOL, 1e-300)) - np.log(max(lhs, 1e-300)))
                worst_margin = min(worst_margin, log_margin)
                table.append(
                    {
                        "t": t,
                        "pair": f"{i}-{j}",
                        dist_col: d,
                        "lhs": lhs,
                        "bound": bound,
                        "log_margin": log_margin,
                        "holds": int(ok),
                    }
                )
                if not ok:
                    violations.append({"t": t, "pair": (i, j), "lhs": lhs, "bound": bound})
    return CheckRecord(
        name,
        anchor,
        Status.HOLDS if not violations else Status.VIOLATED,
        margin=worst_margin,
        witness={"violations": violations[:8]} if violations else None,
        table=table,
    )


def offdiagonal_gaussian_check(op, mesh, balls, t_grid):
    """|(phi_1, S_t phi_2)| <= exp(-d~^2/(4t)) ||phi_1||_2 ||phi_2||_2 with
    d~ = (d_C(x1;x2) - r1 - r2) v 0, for indicator functions of metric balls.

    `balls` is a list of dicts {center, radius, field} whose DistanceField
    was computed at the operator's epsilon.
    """
    masks = [
        nonempty(
            b["field"].values < b["radius"],
            f"offdiagonal_gaussian: ball {i} (center {b['center']}, radius {b['radius']})",
        )
        for i, b in enumerate(balls)
    ]

    def gap(bi, bj):
        d = float(bi["field"].values[mesh.nearest_index(bj["center"])])
        return max(d - bi["radius"] - bj["radius"], 0.0)

    dist = [[gap(bi, bj) for bj in balls] for bi in balls]
    return _pairwise_bound(
        "offdiagonal_gaussian",
        "|(phi1, S_t phi2)| <= exp(-d~_C^2/(4t)) ||phi1||_2 ||phi2||_2",
        op, masks, dist, "d_tilde", 1.0, t_grid,
    )


def _box_gap(box1, box2):
    """Euclidean distance between two axis-aligned boxes."""
    b1 = np.atleast_2d(np.asarray(box1, dtype=float))
    b2 = np.atleast_2d(np.asarray(box2, dtype=float))
    gap = np.maximum(np.maximum(b2[:, 0] - b1[:, 1], b1[:, 0] - b2[:, 1]), 0.0)
    return float(np.sqrt(np.sum(gap * gap)))


def euclidean_offdiagonal_check(op, mesh, boxes, t_grid, c_norm):
    """Euclidean-distance variant for arbitrary box-supported sets:
    |(phi1, S_t phi2)| <= exp(-d_e^2/(4 ||C|| t)) ||phi1||_2 ||phi2||_2."""
    pts = mesh.points()
    spans = [np.atleast_2d(np.asarray(bx, dtype=float)) for bx in boxes]
    masks = [
        nonempty(np.all((pts >= b[:, 0]) & (pts <= b[:, 1]), axis=1),
                 f"euclidean_offdiagonal: box {i} {boxes[i]}")
        for i, b in enumerate(spans)
    ]
    dist = [[_box_gap(bi, bj) for bj in boxes] for bi in boxes]
    return _pairwise_bound(
        "euclidean_offdiagonal",
        "|(phi1, S_t phi2)| <= exp(-d_e^2/(4 ||C|| t)) ||phi1||_2 ||phi2||_2",
        op, masks, dist, "d_e", c_norm, t_grid,
    )


# ---------------------------------------------------------------------------
# finite propagation speed


def smooth_bump(pts, box):
    """C-infinity bump exp(1 - 1/(1 - s^2)) on an axis-aligned box: its high
    wavenumber content sits far below the excitation threshold, so measured
    cone overshoot is the operator's own evanescent smearing, not datum
    ringing."""
    b = np.atleast_2d(np.asarray(box, dtype=float))
    out = np.ones(pts.shape[0])
    for ax in range(pts.shape[1]):
        mid = 0.5 * (b[ax, 0] + b[ax, 1])
        halfw = 0.5 * (b[ax, 1] - b[ax, 0])
        s = (pts[:, ax] - mid) / halfw
        inside = np.abs(s) < 1.0
        vals = np.zeros(pts.shape[0])
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        out *= vals
    return out


def wave_speed_check(
    op,
    profile,
    mesh,
    support_box,
    t_list,
    epsilon=0.0,
    speed_cap=1.05,
    cut_mask=None,
    graph=None,
):
    """cos(t A^{1/2}) phi stays inside the metric cone of radius t around the
    initial support, plus a margin 4h (1 + 0.01 t/h) sized for the
    dispersion of a second-order time stepper, kept as it is since
    re-deriving it moves verdict-bearing cells.  One wave_evolve call serves
    t_list.  With cut_mask given, additionally requires zero excitation on
    the masked side at every t; speed_cap=None skips the speed assertion
    (cut-only probes, where the d_C reach is resolution limited near the
    degeneracy).  graph is metric.metric_graph(profile, mesh, epsilon), when
    the caller holds it."""
    pts = mesh.points()
    phi0 = smooth_bump(pts, support_box)
    sup_mask = nonempty(phi0 > 0, f"wave_speed: support {support_box}")
    dfield = distance_field(
        profile, mesh, None, epsilon, sources=np.nonzero(sup_mask)[0], graph=graph
    )
    h = mesh.h
    table = []
    violations = []
    for t, u in zip(map(float, t_list), wave_evolve(op, phi0, t_list).displacement):
        excited = np.abs(u) > EXCITATION * np.abs(phi0).max()
        margin = 4.0 * h * (1.0 + 0.01 * t / h)
        max_d = float(dfield.values[excited].max(initial=0.0))
        speed = max(max_d - margin, 0.0) / t if t > 0 else 0.0
        crossed = int(np.any(excited & cut_mask)) if cut_mask is not None else 0
        ok = (speed_cap is None or speed <= speed_cap) and not crossed
        table.append(
            {
                "t": t,
                "max_distance": max_d,
                "margin": margin,
                "speed": speed,
                "cut_crossed": crossed,
                "holds": int(ok),
            }
        )
        if not ok:
            violations.append({"t": t, "speed": speed, "cut_crossed": crossed})
    status = Status.HOLDS if not violations else Status.VIOLATED
    worst = max((row["speed"] for row in table), default=0.0)
    return CheckRecord(
        "wave_speed",
        "(phi1, cos(t sqrt(A)) phi2) = 0 for t <= d~_C: unit speed in d_C",
        status,
        margin=worst,
        witness={"violations": violations} if violations else None,
        table=table,
    )


# ---------------------------------------------------------------------------
# separation probes


def probe_mesh(box, h):
    """separation_probe's mesh of the 1D box (lo, hi) at spacing h.  A
    ValueError names h unless h is positive and puts an even number of cells
    on the box, so that its midpoint (where the builtins cut) is a grid
    node; build_mesh raises on a count it cannot mesh."""
    lo, hi = box
    cells = (hi - lo) / h if h > 0 else np.nan
    if not 0.0 < cells < np.inf:
        raise ValueError(f"a spacing is a positive number, not {h!r}")
    n = int(round(cells))
    if n % 2 == 1:
        raise ValueError(
            f"h = {h} puts {n} cells on the probe box [{lo}, {hi}], not an even count"
            " (a node at its midpoint)"
        )
    return build_mesh(1, (lo, hi), n)


def separation_probe(profile, box, t, h_list, cut=0.0, cut_interval=None, bump=None):
    """Leakage-under-refinement probe of the separation dichotomy.

    For each spacing h (degeneracy strictly between faces) a unit-mass bump
    left of the cut is evolved by the degenerate operator's semigroup e^{-tA}
    (eps = 0) on its backend (exp_backend: the hyperbolic contour); the mass
    found right of the cut is the leakage L(h).
    Verdict: stabilization of the last two levels within STABILIZE_TOL is
    NonSeparating; strict monotone decrease with the leakage/conductance
    ratio within [0.1, 10] of its median is Separating.
    """
    lo, hi = box
    if cut_interval is None:
        w = 0.25 * (hi - lo)
        cut_interval = (cut - 0.25 * w, cut + 0.25 * w)
    if bump is None:
        bump = (lo + 0.25 * (cut - lo), cut - 0.25 * (cut - lo))
    table = []
    for h in h_list:
        mesh = probe_mesh(box, h)
        xs = mesh.axis(0)
        in_bump = (xs >= bump[0]) & (xs <= bump[1])
        phi = nonempty(in_bump, f"separation_probe: bump {bump} at h = {h}").astype(float)
        phi /= phi.sum() * mesh.cell_volume
        right = nonempty(xs > cut, f"separation_probe: far side x > {cut} at h = {h}")
        op = assemble(profile, mesh, 0.0)
        f = heat_evolve(op, phi, float(t), backend=exp_backend(op))
        table.append(
            {
                "h": float(h),
                "leakage": float(f.values[right].sum() * mesh.cell_volume),
                "conductance": cut_conductance(profile, mesh, cut_interval, 0.0),
            }
        )
    leaks = [row["leakage"] for row in table]
    verdict = "Inconclusive"
    if len(leaks) >= 2:
        last, prev = leaks[-1], leaks[-2]
        stabilized = last > 0 and abs(last - prev) <= STABILIZE_TOL * max(prev, 1e-300)
        decreasing = all(b < a for a, b in zip(leaks, leaks[1:]))
        ratios = [
            r["leakage"] / r["conductance"]
            for r in table
            if r["conductance"] > 0 and r["leakage"] > 0
        ]
        med = float(np.median(ratios)) if ratios else 0.0
        ratio_bounded = bool(ratios) and all(0.1 * med <= r <= 10.0 * med for r in ratios)
        if stabilized:
            verdict = "NonSeparating"
        elif decreasing and ratio_bounded:
            verdict = "Separating"
    status = Status.INCONCLUSIVE if verdict == "Inconclusive" else Status.HOLDS
    return CheckRecord(
        "separation_probe",
        "int 1/c = infinity across the cut <=> invariant half-lines (leakage -> 0)",
        status,
        margin=leaks[-1] if leaks else None,
        fitted={"verdict": verdict},
        table=table,
    )


def invariance_defect(op, omega_mask, t, seed=0, tol=1e-8) -> CheckRecord:
    """|| 1_{Omega^c} e^{-tA} (phi 1_Omega) ||_2 maximized over seeded random
    phi, unit-normalized on Omega; ~0 certifies S_t L_2(Omega) c L_2(Omega).

    Only the components that meet both Omega and its complement are evolved
    (_components_met): the others add exact zeros to the read-out.  The
    probes are drawn and normalized on all of Omega before they are zeroed
    off those components, so the defect is bitwise that of the whole probes.
    When no component crosses, Omega is a union of components and invariant
    (Ouhabaz, Analysis of Heat Equations on Domains, 2005, Thm 2.2): no
    probe is drawn or evolved, and the defect is exactly 0."""
    rng = np.random.default_rng(seed)
    vol = op.mesh.cell_volume
    omega = np.asarray(omega_mask, dtype=bool)
    (inside, outside), labels = _components_met(op, [omega, ~omega])
    crossing = (inside & outside)[labels]
    probes = []
    if crossing.any():
        for _ in range(PROBES):
            phi = rng.standard_normal(op.size) * omega
            nrm = _w_norm2(phi, vol)
            if nrm != 0:
                probes.append(phi / nrm * crossing)
    worst = 0.0
    if probes:
        out = heat_evolve(op, np.column_stack(probes), float(t), backend=exp_backend(op)).values
        worst = max(_w_norm2(col * (~omega), vol) for col in out.T)
    return CheckRecord(
        "invariance",
        "S_t L2(Omega) contained in L2(Omega) (invariant component)",
        Status.HOLDS if worst < tol else Status.VIOLATED,
        margin=worst,
        table=[{"t": float(t), "defect": worst, "tol": tol}],
    )


def form_additivity_defect(op, omega_mask, seed=0, tol=1e-12) -> CheckRecord:
    """|phi^T A phi - (phi 1_O)^T A (phi 1_O) - (phi 1_Oc)^T A (phi 1_Oc)|
    relative to 1 + phi^T A phi, maximized over seeded random phi; exactly 0
    iff no face crosses the split."""
    rng = np.random.default_rng(seed)
    omega = np.asarray(omega_mask, dtype=bool)
    worst = 0.0
    for _ in range(PROBES):
        phi = rng.standard_normal(op.size)
        full = op.quadratic_form(phi)
        inside = op.quadratic_form(phi * omega)
        outside = op.quadratic_form(phi * (~omega))
        defect = abs(full - inside - outside) / (1.0 + full)
        worst = max(worst, defect)
    return CheckRecord(
        "form_additivity",
        "h(phi) = h(phi 1_Omega) + h(phi 1_Omega^c) for invariant Omega",
        Status.HOLDS if worst < tol else Status.VIOLATED,
        margin=worst,
        table=[{"defect": worst, "tol": tol}],
    )


# ---------------------------------------------------------------------------
# kernel decay and floors


def smalltime_decay_fit(op, mesh, gamma_pred, t_grid, c_norm, boundary_margin=0.0) -> CheckRecord:
    """Upper-bound fit of sup_x K_t(x;x) <= a (mu (t^1))^{-d/(2 gamma)} on
    the mesh-resolved window 10 h^2 ||C|| <= t <= 0.1; faster decay than the
    predicted exponent is compliant, only bound violations fail."""
    d = mesh.dimension
    t_min = 10.0 * mesh.h**2 * c_norm
    ts = np.asarray([t for t in t_grid if t_min <= t <= 0.1], dtype=float)
    if ts.size < 3:
        return CheckRecord(
            "smalltime_decay",
            "sup_x K_t(x;x) <= a (mu (t ^ 1))^{-d/(2 gamma)} for small t",
            Status.INCONCLUSIVE,
            margin=None,
            fitted={"reason": "t grid empty after mesh-resolution filter", "t_min": t_min},
        )
    sups = sup_kernel(op, ts, boundary_margin=boundary_margin).value
    slope, _, stderr, _ = fit_loglog(ts, sups)
    bound_slope = -d / (2.0 * gamma_pred)
    t_ref = ts[-1]
    a_fit = sups[-1] * t_ref ** (d / (2.0 * gamma_pred))
    curve = a_fit * ts**bound_slope
    excess = float((sups / curve).max())
    status = Status.HOLDS if excess <= OVERSHOOT else Status.VIOLATED
    table = [
        {"t": float(t), "sup_kernel": float(s), "bound_curve": float(b)}
        for t, s, b in zip(ts, sups, curve)
    ]
    return CheckRecord(
        "smalltime_decay",
        "sup_x K_t(x;x) <= a (mu (t ^ 1))^{-d/(2 gamma)} for small t",
        status,
        margin=excess,
        fitted={
            "slope": slope,
            "stderr": stderr,
            "predicted_bound_slope": bound_slope,
            "a_fit": a_fit,
        },
        table=table,
    )


def largetime_floor_check(
    op,
    mesh,
    t_grid,
    mode,
    floor=None,
    boundary_margin=0.0,
    band=(0.8, 1.2),
) -> CheckRecord:
    """Separated mode: sup_x K_t(x;x) >= 1/|Omega_0| for all t (trapped mass
    forbids t^{-d/2} decay).  Elliptic control mode: sup * t^{d/2} stays in
    the given band around (4 pi)^{-d/2}."""
    if mode not in MODES["largetime_floor"]:
        raise ValueError(f"unknown mode '{mode}'")
    d = mesh.dimension
    ts = [float(t) for t in t_grid]
    sups = sup_kernel(op, ts, boundary_margin=boundary_margin).value
    table = []
    violations = []
    for t, s in zip(ts, sups.tolist()):
        prod = s * t ** (d / 2.0)
        row = {"t": t, "sup_kernel": s, "sup_times_t_half_d": prod}
        if mode == "separated":
            row["floor"] = floor
            ok = s >= floor * (1.0 - 1e-6)
        else:
            ref = (4.0 * np.pi) ** (-d / 2.0)
            row["band_lo"] = band[0] * ref
            row["band_hi"] = band[1] * ref
            ok = band[0] * ref <= prod <= band[1] * ref
        row["holds"] = int(ok)
        table.append(row)
        if not ok:
            violations.append(row)
    status = Status.HOLDS if not violations else Status.VIOLATED
    growth = table[-1]["sup_times_t_half_d"] / table[0]["sup_times_t_half_d"]
    return CheckRecord(
        "largetime_floor",
        "separated: sup_x K_t(x;x) >= |Omega_0|^{-1}; elliptic: sup ~ (4 pi t)^{-d/2}",
        status,
        margin=min(r["sup_kernel"] for r in table),
        fitted={"product_growth": float(growth)},
        witness={"violations": violations[:8]} if violations else None,
        table=table,
    )


def resolvent_volume_scaling(
    op, profile, mesh, origin, r_grid, m, epsilon=0.0, graph=None
) -> CheckRecord:
    """Diagonal kernel of (I + r^2 A)^{-2m} against the metric ball volume:
    log K vs log |B_C(x;r)| has slope -1 and the product K |B| is pinched
    within a single constant (max/min ratio <= RATIO_CAP).  graph is
    metric.metric_graph(profile, mesh, epsilon), when the caller holds it."""
    if 4 * m <= mesh.dimension:
        raise ValueError("need 4m > d")
    dfield = distance_field(profile, mesh, origin, epsilon, graph=graph)
    idx = mesh.nearest_index(origin)
    vol = mesh.cell_volume
    delta = np.zeros(op.size)
    delta[idx] = 1.0
    volumes = [(float(r), ball_volume(dfield, float(r))) for r in r_grid]
    usable = [(r, volume) for r, volume in volumes if volume > 0 and np.isfinite(volume)]
    us = resolvent_power_apply(op, [r for r, _ in usable], m, delta)
    table = []
    Ks, Vs = [], []
    for (r, volume), u in zip(usable, us):
        K = float(np.dot(u, u) / vol)
        table.append({"r": r, "ball_volume": volume, "K_diag": K, "product": K * volume})
        Ks.append(K)
        Vs.append(volume)
    if len(Ks) < 3:
        return CheckRecord(
            "resolvent_volume",
            "a |B_C(x;r)| >= K_{(I+r^2 A)^{-2m}}(x;x)^{-1}",
            Status.INCONCLUSIVE,
            fitted={"reason": "fewer than 3 usable radii"},
            table=table,
        )
    slope, _, stderr, _ = fit_loglog(np.array(Vs), np.array(Ks))
    products = np.array([row["product"] for row in table])
    ratio = float(products.max() / products.min())
    ok = abs(slope + 1.0) <= SLOPE_TOL and ratio <= RATIO_CAP
    return CheckRecord(
        "resolvent_volume",
        "a |B_C(x;r)| >= K_{(I+r^2 A)^{-2m}}(x;x)^{-1}",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=ratio,
        fitted={"slope": slope, "stderr": stderr, "product_ratio": ratio},
        table=table,
    )


def ondiagonal_lower_check(
    op, mesh, t, diameter, centers, mode="uniform", uniformity=1e-3
) -> CheckRecord:
    """(phi, S_t phi) >= a' ||phi||_1^2 probed with indicator bumps of one
    diameter at several centers.  Uniform mode requires min/max >= the
    uniformity factor; separated mode reports per-center values (all must be
    strictly positive, the square-norm identity)."""
    if mode not in MODES["ondiagonal_lower"]:
        raise ValueError(f"unknown mode '{mode}'")
    pts = mesh.points()
    vol = mesh.cell_volume
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    bumps = [
        nonempty(np.all(np.abs(pts - c) <= diameter / 2.0, axis=1),
                 f"ondiagonal_lower: bump at center {c.tolist()}").astype(float)
        for c in centers
    ]
    block = np.column_stack(bumps)
    self_ip = heat_gram(op, block, block, [float(t)])[0].diagonal()
    values = np.array(
        [float(g * vol) / float(np.abs(phi).sum() * vol) ** 2 for g, phi in zip(self_ip, bumps)]
    )
    table = [{"center": float(c[0]), "value": float(v)} for c, v in zip(centers, values)]
    if mode == "uniform":
        ok = values.min() >= uniformity * values.max()
        margin = float(values.min() / values.max())
    else:
        ok = bool(np.all(values > 0))
        margin = float(values.min())
    return CheckRecord(
        "ondiagonal_lower",
        "(phi, S_t phi) >= a' ||phi||_1^2 for bumps of bounded support",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=margin,
        fitted={"min": float(values.min()), "max": float(values.max())},
        table=table,
    )


def kernel_cut_check(op, mesh, source_index, t, cut_mask, tol=0.0) -> CheckRecord:
    """Kernel column from one side of an exact cut is identically zero on the
    other side (block-diagonal generator; sparse products keep exact zeros)."""
    col = kernel_column(op, source_index, float(t))
    worst = float(np.abs(col.values[cut_mask]).max(initial=0.0))
    ok = worst <= tol
    return CheckRecord(
        "kernel_cut",
        "K_t(x; y) = 0 across an exact zero-conductance cut",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=worst,
        table=[{"t": float(t), "max_abs_across_cut": worst}],
    )
