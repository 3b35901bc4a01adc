"""Builtin scenario catalogue, scenario validation, and the check registry.

A scenario JSON document names a coefficient profile, a mesh, epsilon and
time grids, and a list of checks with parameters.  The registry maps check
names to glue functions that resolve scenario-level specs (ball lists, omega
masks, grids) into the diagnose-module calls; a glue function's keyword-only
parameters are its check's parameter schema.  Execution is deterministic:
every check derives its random seed from the scenario seed and its own index.
"""

import hashlib
import inspect
import threading
import time

import numpy as np

from . import diagnose
from .coeffs import classify, profile_from_json, row_norm
from .diagnose import CheckRecord, Status
from .errors import ResourceLimitError, SchemaError, bind, bind_documents
from .grid import assemble, build_mesh
from .metric import distance_field, holder_fit, metric_graph

# ---------------------------------------------------------------------------
# context


class ScenarioContext:
    """Lazy shared state for one scenario run: profile, mesh, operators and
    metric graphs per epsilon, distance fields per (center, epsilon).  Each
    entry is computed once, under the context's lock, and lives as long as
    the context."""

    def __init__(self, doc, base_dir=None):
        self.doc = doc
        self.name = doc["name"]
        self.seed = int(doc.get("seed", 0))
        self.profile = profile_from_json(doc["profile"], base_dir=base_dir)
        mspec = doc["mesh"]
        self.mesh = build_mesh(int(mspec["dimension"]), mspec["box"], int(mspec["n"]))
        self.epsilons = [float(e) for e in doc.get("epsilons", [0.0])]
        self._ops = {}
        self._graphs = {}
        self._fields = {}
        self._lock = threading.RLock()

    def _memo(self, table, epsilon, build, *key):
        """The entry of table at (*key, eps), with eps resolved from epsilon,
        made by build(eps) on first use; the lock makes each entry compute
        once (re-entrant: a build may ask for another entry)."""
        eps = self.epsilons[0] if epsilon is None else float(epsilon)
        entry = (*key, eps)
        with self._lock:
            if entry not in table:
                table[entry] = build(eps)
            return table[entry]

    def operator(self, epsilon=None):
        return self._memo(self._ops, epsilon, lambda eps: assemble(self.profile, self.mesh, eps))

    def metric_graph(self, epsilon=None):
        return self._memo(self._graphs, epsilon, lambda eps: metric_graph(self.profile, self.mesh, eps))

    def dist_field(self, center, epsilon=None):
        build = lambda eps: distance_field(
            self.metric_graph(eps), self.mesh, [self.mesh.nearest_index(center)]
        )
        return self._memo(self._fields, epsilon, build, tuple(np.atleast_1d(center).tolist()))

    def t_grid(self, spec):
        return _named_grid(self.doc, spec) if isinstance(spec, str) else [float(t) for t in spec]

    def seed_for(self, check_index, check_name):
        digest = hashlib.sha256(f"{self.seed}:{check_index}:{check_name}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def omega_mask(self, spec, mesh=None):
        """Resolve a region spec into a boolean node mask on the given mesh
        (the scenario mesh by default); a region without a node raises."""
        mesh = self.mesh if mesh is None else mesh
        kind, fields = _region_fields(spec, mesh.dimension)
        mask = REGIONS[kind](mesh.points(), self.profile, **fields)
        return diagnose.nonempty(mask, f"region {spec}")


# ---------------------------------------------------------------------------
# region specs
#
# A region spec is {"kind": <kind>, ...}; its other fields are the
# keyword-only parameters of the kind's resolver, which maps mesh points to
# a node mask.  validate_scenario binds them, so an unknown or missing field
# fails before any compute, as a check parameter does.


class Region:
    """Annotation of a glue parameter that takes a region spec."""


class Balls:
    """Annotation of a glue parameter that takes a list of balls, each the
    fields of a euclidean_ball region: {"center": [...], "radius": r}."""


class Box:
    """Annotation of a glue parameter that takes an axis-aligned box: one
    [lo, hi] per mesh axis with finite lo < hi, or a bare [lo, hi] in 1D."""


class Boxes:
    """Annotation of a glue parameter that takes a list of boxes."""


class Point:
    """Annotation of a glue parameter that takes a point: one coordinate per
    mesh axis, or a bare number in 1D."""


class Points:
    """Annotation of a glue parameter that takes a list of points."""


def _halfline(pts, profile, *, x, side):
    return pts[:, 0] < float(x) if side == "left" else pts[:, 0] > float(x)


def _interval(pts, profile, *, lo, hi):
    return (pts[:, 0] > lo) & (pts[:, 0] < hi)


def _euclidean_ball(pts, profile, *, center, radius):
    return row_norm(pts - np.asarray(center, dtype=float)) < float(radius)


def _under_surface(pts, profile):
    return pts[:, 1] < profile.family.phi(pts[:, 0])


REGIONS = {
    "halfline": _halfline,
    "interval": _interval,
    "euclidean_ball": _euclidean_ball,
    "under_surface": _under_surface,
}


def _check_box(box, dimension):
    """SchemaError unless box is `dimension` finite intervals lo < hi."""
    try:
        b = np.array(box, dtype=float)
    except (TypeError, ValueError):
        b = np.empty(0)
    if dimension == 1 and b.shape == (2,):
        b = b.reshape(1, 2)
    if b.shape != (dimension, 2) or not (np.all(np.isfinite(b)) and np.all(b[:, 0] < b[:, 1])):
        raise SchemaError(
            f"a box is {dimension} [lo, hi] interval(s) with finite lo < hi, not {box!r}"
        )


def _check_point(point, dimension):
    """SchemaError unless point is `dimension` finite coordinates; a bare
    number is one."""
    try:
        p = np.array(point, dtype=float)
    except (TypeError, ValueError):
        p = np.empty((0, 0))
    if p.ndim > 1 or p.size != dimension or not np.all(np.isfinite(p)):
        raise SchemaError(f"a point is {dimension} finite coordinate(s), not {point!r}")


def _region_fields(spec, dimension, kind=None):
    """(kind, fields) of a region spec on a mesh of that dimension, its
    fields bound against the kind's resolver and a ball's center checked
    (_check_point).  A ball passes kind="euclidean_ball" and has no "kind"
    field."""
    if not isinstance(spec, dict):
        raise SchemaError(f"a region spec is an object, not {spec!r}")
    fields = dict(spec)
    kind = kind or fields.pop("kind", None)
    if kind not in REGIONS:
        raise SchemaError(f"unknown region kind {kind!r}")
    try:
        bind(inspect.signature(REGIONS[kind]), None, None, **fields)
    except TypeError as exc:
        raise SchemaError(f"{kind}: {exc}") from None
    if kind == "halfline" and fields["side"] not in ("left", "right"):
        raise SchemaError(f"halfline side must be 'left' or 'right', not {fields['side']!r}")
    if kind == "euclidean_ball":
        _check_point(fields["center"], dimension)
    return kind, fields


# ---------------------------------------------------------------------------
# registry glue
#
# A check's parameters are the keyword-only parameters of its glue function:
# a parameter without a default is required.  `epsilon` names the operator
# (None: the scenario's first epsilon); `op.epsilon` is what the metric sees.


def _run_structure(ctx, seed, *, epsilon=None):
    return diagnose.structure_check(ctx.operator(epsilon))


def _run_conservation(ctx, seed, *, t_grid="small", tol=1e-9, epsilon=None):
    ts = sorted(set(ctx.t_grid(t_grid)))
    return diagnose.conservation_defect(ctx.operator(epsilon), ts, tol=tol)


def _run_offdiagonal(ctx, seed, *, balls: Balls, t_grid="small", epsilon=None):
    op = ctx.operator(epsilon)
    balls = [
        {
            "center": b["center"],
            "radius": float(b["radius"]),
            "field": ctx.dist_field(b["center"], op.epsilon),
        }
        for b in balls
    ]
    return diagnose.offdiagonal_gaussian_check(op, balls, ctx.t_grid(t_grid))


def _run_euclidean(ctx, seed, *, boxes: Boxes, t_grid="small", epsilon=None):
    op = ctx.operator(epsilon)
    return diagnose.euclidean_offdiagonal_check(
        op, boxes, ctx.t_grid(t_grid), c_norm=ctx.profile.norm_bound + op.epsilon
    )


def _run_wave_speed(
    ctx, seed, *, support: Box, t_list, cut: Region = None, speed_cap=1.05, epsilon=None
):
    op = ctx.operator(epsilon)
    return diagnose.wave_speed_check(
        op,
        ctx.metric_graph(op.epsilon),
        support,
        [float(t) for t in t_list],
        speed_cap=speed_cap,
        cut_mask=None if cut is None else ctx.omega_mask(cut),
    )


def _run_separation_probe(
    ctx, seed, *, h_list, box: Box = None, t=1.0, cut=0.0, cut_interval: Box = None,
    bump: Box = None,
):
    return diagnose.separation_probe(
        ctx.profile,
        _probe_box(box, ctx.mesh.box),
        float(t),
        [float(h) for h in h_list],
        cut=float(cut),
        cut_interval=None if cut_interval is None else _probe_box(cut_interval, None),
        bump=bump,
    )


def _probe_box(box, mesh_box):
    """(lo, hi) of a 1D box of the probe: box, bare or as [[lo, hi]], or by
    default the mesh's axis-0 box."""
    lo, hi = np.atleast_2d(np.asarray(mesh_box if box is None else box, dtype=float))[0]
    return float(lo), float(hi)


def _split_mask(ctx, spec, mesh=None):
    """omega_mask of a region whose complement the check measures on, which
    must select a node too."""
    mask = ctx.omega_mask(spec, mesh)
    diagnose.nonempty(~mask, f"complement of region {spec}")
    return mask


def _run_invariance(ctx, seed, *, omega: Region, t=0.5, tol=1e-8, epsilon=None):
    return diagnose.invariance_defect(
        ctx.operator(epsilon), _split_mask(ctx, omega), float(t), seed=seed, tol=tol
    )


def _run_invariance_refinement(ctx, seed, *, omega: Region, n_list, t=0.5, epsilon=0.0):
    """Invariance defect across a refinement sequence; Holds iff the defect
    decreases monotonically (curved interfaces separate only in the limit)."""
    rows = []
    for n in n_list:
        mesh = build_mesh(ctx.mesh.dimension, ctx.mesh.box, int(n))
        # the scenario's own level shares its operator and its components
        op = ctx.operator(epsilon) if mesh == ctx.mesh else assemble(ctx.profile, mesh, epsilon)
        rec = diagnose.invariance_defect(
            op, _split_mask(ctx, omega, mesh), float(t), seed=seed, tol=np.inf
        )
        rows.append({"n": int(n), "defect": rec.margin})
    defects = [r["defect"] for r in rows]
    ok = all(b < a for a, b in zip(defects, defects[1:]))
    return CheckRecord(
        "invariance_refinement",
        "S_t L2(Omega) contained in L2(Omega): defect decreasing under refinement",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=defects[-1],
        table=rows,
    )


def _run_form_additivity(ctx, seed, *, omega: Region, tol=1e-12, epsilon=None):
    return diagnose.form_additivity_defect(
        ctx.operator(epsilon), _split_mask(ctx, omega), seed=seed, tol=tol
    )


def _run_smalltime(ctx, seed, *, gamma, t_grid="small", boundary_margin=0.0, epsilon=None):
    op = ctx.operator(epsilon)
    return diagnose.smalltime_decay_fit(
        op, float(gamma), ctx.t_grid(t_grid), c_norm=ctx.profile.norm_bound + op.epsilon,
        boundary_margin=float(boundary_margin),
    )


def _run_largetime(
    ctx, seed, *, mode, t_grid="large", floor=None, boundary_margin=0.0, band=(0.8, 1.2),
    epsilon=None,
):
    return diagnose.largetime_floor_check(
        ctx.operator(epsilon), ctx.t_grid(t_grid), mode=mode, floor=floor,
        boundary_margin=float(boundary_margin), band=tuple(band),
    )


def _run_resolvent_volume(ctx, seed, *, origin: Point, r_grid, m=1, epsilon=None):
    op = ctx.operator(epsilon)
    return diagnose.resolvent_volume_scaling(
        op, ctx.metric_graph(op.epsilon), origin, [float(r) for r in r_grid], int(m)
    )


def _run_ondiagonal(
    ctx, seed, *, diameter, centers: Points, t=1.0, mode="uniform", uniformity=1e-3,
    epsilon=None,
):
    return diagnose.ondiagonal_lower_check(
        ctx.operator(epsilon), float(t), float(diameter), centers, mode=mode, uniformity=uniformity
    )


def _run_kernel_cut(ctx, seed, *, source: Point, across: Region, t=1.0, tol=0.0, epsilon=None):
    return diagnose.kernel_cut_check(
        ctx.operator(epsilon), ctx.mesh.nearest_index(source), float(t), ctx.omega_mask(across),
        tol=tol,
    )


def _run_classify(ctx, seed, *, expect=None):
    cl = classify(ctx.profile)
    ok = expect is None or cl.verdict.value == expect
    return CheckRecord(
        "classify",
        "int 1/mu_m locally finite <=> closable; divergent across a zero <=> separating",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=cl.mu_lower,
        fitted={"verdict": cl.verdict.value, "cut_points": cl.cut_points},
        table=[
            {k: row[k] for k in ("zero", "side", "inv_mu", "inv_mu_divergent", "levels")}
            for row in cl.integrability_table
        ],
    )


def _run_holder(
    ctx, seed, *, range, origin: Point = 0.0, expect_gamma=None, tol=0.02, epsilon=0.0
):
    fit = holder_fit(
        ctx.profile, float(np.ravel(origin)[0]), (float(range[0]), float(range[1])),
        epsilon=epsilon,
    )
    ok = expect_gamma is None or abs(fit.gamma_hat - float(expect_gamma)) <= float(tol)
    return CheckRecord(
        "holder",
        "a1 |x-y| <= d_C(x;y) <= a2 (|x-y|^gamma v |x-y|): comparison exponent fit",
        Status.HOLDS if ok else Status.VIOLATED,
        margin=fit.residual,
        fitted={"gamma_hat": fit.gamma_hat, "a_hat": fit.a_hat, "stderr": fit.stderr},
        table=[{"gamma_hat": fit.gamma_hat, "a_hat": fit.a_hat, "residual": fit.residual}],
    )


CHECKS = {
    "structure": _run_structure,
    "conservation": _run_conservation,
    "offdiagonal_gaussian": _run_offdiagonal,
    "euclidean_offdiagonal": _run_euclidean,
    "wave_speed": _run_wave_speed,
    "separation_probe": _run_separation_probe,
    "invariance": _run_invariance,
    "invariance_refinement": _run_invariance_refinement,
    "form_additivity": _run_form_additivity,
    "smalltime_decay": _run_smalltime,
    "largetime_floor": _run_largetime,
    "resolvent_volume": _run_resolvent_volume,
    "ondiagonal_lower": _run_ondiagonal,
    "kernel_cut": _run_kernel_cut,
    "classify": _run_classify,
    "holder": _run_holder,
}
# taken at import, so a wrapper installed over a CHECKS entry later (such as
# the perfbench tracer's (*args, **kwargs)) does not hide the schema
_SIGNATURES = {name: inspect.signature(fn) for name, fn in CHECKS.items()}
# checks that read a 1D profile: they fail validation on a 2D scenario
ONE_D_CHECKS = ("separation_probe", "holder")
# the fewest entries a list parameter needs for its check to test anything:
# one time or center, two sets for a pairwise bound, two levels for a trend,
# three radii for a slope, and the two ends of a range or band (PAIRS: exactly)
LEAST_ITEMS = {
    "t_grid": 1, "t_list": 1, "centers": 1, "balls": 2, "boxes": 2, "n_list": 2,
    "h_list": 2, "r_grid": 3, "range": 2, "band": 2,
}
PAIRS = ("range", "band")
# parameters that a check reads as times or radii, each (or each entry) a
# finite number > 0: a time of 0 or less has no Gaussian bound to test, and
# an exact cut would skip the evolution that rejects it
POSITIVE = {"t": "time", "t_list": "time", "t_grid": "time", "r_grid": "radius"}


def _scenario_document(
    *, name, profile, mesh, checks, claim=None, seed=0, epsilons=(0.0,), t_small=None,
    t_large=None, out_dir=None,
):
    """Schema of a scenario document."""


def _mesh_document(*, dimension, box, n):
    """Schema of a scenario's mesh."""


def _check_entry(*, check, params=None):
    """Schema of one entry of a scenario's checks."""


def _named_grid(doc, name):
    """The time grid that a t_grid string names: 'small' (the scenario's
    t_small) or 'large' (its t_large)."""
    key = {"small": "t_small", "large": "t_large"}.get(name)
    if doc.get(key) is None:
        raise SchemaError(f"scenario has no time grid '{name}'")
    return [float(t) for t in doc[key]]


def _check_items(doc, key, value, least):
    """The entries of list parameter `key` (a named time grid resolved) and
    how to show them; SchemaError unless there are at least `least` (a pair
    in PAIRS: exactly)."""
    named = key == "t_grid" and isinstance(value, str)
    items = _named_grid(doc, value) if named else value
    shown = f"{value!r} = {items!r}" if named else repr(value)
    exact = key in PAIRS
    if not isinstance(items, (list, tuple)) or len(items) < least or exact and len(items) > least:
        many = "exactly" if exact else "at least"
        raise SchemaError(f"needs a list of {many} {least} entries, not {shown}")
    return items, shown


def _check_positive(value, what, among=""):
    """SchemaError unless value is a finite number > 0."""
    try:
        ok = 0.0 < float(value) < np.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise SchemaError(f"a {what} is a finite number > 0, not {value!r}{among}")


def validate_scenario(doc):
    """Schema validation with field-naming errors; returns the document.

    The document, its mesh and each check entry bind against keyword-only
    schemas, and each check's params against its glue signature, so unknown,
    missing or misplaced fields fail here, before any compute; so do a 1D
    check on a 2D mesh, a t_grid that names a grid the scenario lacks, a
    list parameter shorter than its LEAST_ITEMS (no check holds on an empty
    grid or a lone set), a time or radius (POSITIVE, each entry of a list and
    of a named grid) that is not a finite number > 0, a box (Box, Boxes) or
    a point (Point, Points, a ball's center) without one finite entry per
    mesh axis, a smalltime_decay grid past t = 0.1, and a probe spacing
    that diagnose.probe_mesh refuses on the probe box (by default the mesh's
    axis-0 box) and cut."""
    parts = [("scenario", _scenario_document, (), doc)]
    if isinstance(doc, dict):
        parts.append(("mesh", _mesh_document, (), doc.get("mesh", {})))
        checks = doc.get("checks", [])
        if not isinstance(checks, list):
            raise SchemaError(f"checks is a list, not {checks!r}")
        parts += [(f"checks[{i}]", _check_entry, (), c) for i, c in enumerate(checks)]
    bind_documents(parts)
    mesh = doc["mesh"]
    dimension = int(mesh["dimension"])
    for i, chk in enumerate(doc["checks"]):
        name = chk["check"]
        if name not in CHECKS:
            raise SchemaError(f"checks[{i}].check: unknown check '{name}'")
        try:
            bound = bind(_SIGNATURES[name], None, 0, **chk.get("params", {}))
        except TypeError as exc:
            raise SchemaError(f"checks[{i}].params: {exc}") from None
        bound.apply_defaults()
        args = bound.arguments
        if name in ONE_D_CHECKS and dimension != 1:
            raise SchemaError(f"checks[{i}] ({name}): a 1D check, on a {mesh['dimension']}D mesh")
        for key, param in _SIGNATURES[name].parameters.items():
            kind, value, field = param.annotation, args[key], key
            many = kind in (Balls, Boxes, Points)
            # a set parameter is checked unless it is left at a default of None
            one = kind in (Box, Point, Region) and (value is not None or param.default is not None)
            try:
                if key in LEAST_ITEMS:
                    items, shown = _check_items(doc, key, value, LEAST_ITEMS[key])
                    for j, item in enumerate(items if key in POSITIVE else ()):
                        field = f"{key}[{j}]"
                        _check_positive(item, POSITIVE[key], f", in {shown}")
                    field = key
                    smalltime = name == "smalltime_decay" and key == "t_grid"
                    if smalltime and max(map(float, items)) > 0.1:
                        raise SchemaError(f"smalltime grid must stay <= 0.1, not {shown}")
                elif key in POSITIVE:
                    _check_positive(value, POSITIVE[key])
                for j, spec in enumerate(value if many else [value] if one else []):
                    field = f"{key}[{j}]" if many else key
                    if kind in (Box, Boxes):
                        _check_box(spec, dimension)
                    elif kind in (Point, Points):
                        _check_point(spec, dimension)
                    else:
                        _region_fields(spec, dimension, "euclidean_ball" if kind is Balls else None)
            except SchemaError as exc:
                raise SchemaError(f"checks[{i}].params.{field} ({name}): {exc}") from None
        if name == "separation_probe":
            box = _probe_box(args["box"], mesh["box"])
            field = "cut"
            try:
                cut = float(args["cut"])
                for j, h in enumerate(args["h_list"]):
                    field = f"h_list[{j}]" if box[0] < cut < box[1] else "cut"
                    diagnose.probe_mesh(box, float(h), cut)
            except (TypeError, ValueError, ResourceLimitError) as exc:
                raise SchemaError(f"checks[{i}].params.{field} ({name}): {exc}") from None
        if name == "resolvent_volume" and 4 * int(args["m"]) <= dimension:
            raise SchemaError(f"checks[{i}].params.m: need 4m > d")
        if name in diagnose.MODES and args["mode"] not in diagnose.MODES[name]:
            raise SchemaError(
                f"checks[{i}].params.mode ({name}): unknown mode '{args['mode']}',"
                f" not one of {', '.join(diagnose.MODES[name])}"
            )
        if name == "largetime_floor" and args["mode"] == "separated" and args["floor"] is None:
            raise SchemaError(f"checks[{i}].params.floor: separated mode needs a floor")
    return doc


def run_checks(ctx, threads=1):
    """Execute every check of the scenario; records keep scenario order."""
    jobs = [(i, chk["check"], chk.get("params", {})) for i, chk in enumerate(ctx.doc["checks"])]

    def run_one(job):
        i, name, params = job
        t0 = time.perf_counter()
        rec = CHECKS[name](ctx, ctx.seed_for(i, name), **params)
        rec.runtime = time.perf_counter() - t0
        return i, rec

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(j) for j in jobs]
    results.sort(key=lambda pair: pair[0])
    return [rec for _, rec in results]


# ---------------------------------------------------------------------------
# builtin catalogue


def _logspace(lo, hi, num):
    return [float(v) for v in np.geomspace(lo, hi, num)]


def builtin_scenarios():
    """The shipped scenario set; each entry names the claim it exercises."""
    scenarios = []

    t_small = _logspace(0.01, 1.0, 12)
    balls_1d = [
        {"center": [-2.0], "radius": 0.5},
        {"center": [2.0], "radius": 0.5},
        {"center": [0.0], "radius": 0.5},
        {"center": [-3.5], "radius": 0.25},
        {"center": [3.5], "radius": 0.25},
    ]
    scenarios.append(
        {
            "name": "laplacian1d",
            "claim": "control: S_t 1 = 1, Gaussian kernel, (4 pi t)^{-1/2} sup decay, unit speed",
            "seed": 101,
            "profile": {
                "dimension": 1,
                "family": {"kind": "power", "delta": 0.0, "centers": [0.0]},
                "domain": [-8.0, 8.0],
            },
            "mesh": {"dimension": 1, "box": [-8.0, 8.0], "n": 4096},
            "epsilons": [0.0],
            "t_small": t_small,
            "t_large": [1.0, 2.0, 4.0],
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "small"}},
                {"check": "offdiagonal_gaussian", "params": {"balls": balls_1d}},
                {
                    "check": "euclidean_offdiagonal",
                    "params": {
                        "boxes": [[-3.0, -1.0], [0.0, 0.5], [1.5, 3.0]],
                        "t_grid": "small",
                    },
                },
                {
                    "check": "wave_speed",
                    "params": {"support": [-0.5, 0.5], "t_list": [1.0, 2.0, 3.0]},
                },
                {
                    "check": "smalltime_decay",
                    "params": {"gamma": 1.0, "t_grid": _logspace(0.002, 0.1, 10)},
                },
                {
                    "check": "largetime_floor",
                    "params": {
                        "mode": "elliptic",
                        "t_grid": t_small,
                        "boundary_margin": 2.5,
                        "band": [0.95, 1.05],
                    },
                },
                {
                    "check": "ondiagonal_lower",
                    "params": {
                        "t": 1.0,
                        "diameter": 0.5,
                        "centers": [-3.0, -1.5, 0.0, 1.5, 3.0],
                    },
                },
                {"check": "classify", "params": {"expect": "StronglyElliptic"}},
            ],
        }
    )

    for delta, verdict, probe_verdict, gamma in (
        (0.25, "ClosableDegenerate", "NonSeparating", 0.75),
        (0.5, "Separating", "Separating", 0.5),
    ):
        scenarios.append(
            {
                "name": f"degenerate1d-d{str(delta).replace('.', '')}",
                "claim": f"delta={delta}: int 1/c {'diverges' if delta >= 0.5 else 'converges'}"
                " at 0; metric exponent gamma = 1 - delta",
                "seed": 211 + int(delta * 100),
                "profile": {
                    "dimension": 1,
                    "family": {"kind": "power", "delta": delta, "centers": [0.0]},
                    "domain": [-4.0, 4.0],
                },
                "mesh": {"dimension": 1, "box": [-4.0, 4.0], "n": 2048},
                "epsilons": [0.0],
                "t_small": _logspace(0.01, 0.5, 10),
                "checks": [
                    {"check": "structure"},
                    {"check": "conservation", "params": {"t_grid": "small"}},
                    {"check": "classify", "params": {"expect": verdict}},
                    {
                        "check": "holder",
                        "params": {
                            "origin": 0.0,
                            "range": [1e-3, 1e-1],
                            "expect_gamma": gamma,
                            "tol": 0.02,
                        },
                    },
                    {
                        "check": "separation_probe",
                        "params": {
                            "box": [-2.0, 2.0],
                            "t": 1.0,
                            "h_list": [2.0 ** (-k) for k in range(6, 13)],
                            "cut": 0.0,
                            "cut_interval": [-0.5, 0.5],
                        },
                    },
                    {
                        "check": "offdiagonal_gaussian",
                        "params": {
                            "balls": [
                                {"center": [-1.5], "radius": 0.4},
                                {"center": [1.5], "radius": 0.4},
                                {"center": [0.5], "radius": 0.25},
                            ],
                            "t_grid": "small",
                        },
                    },
                    {
                        "check": "wave_speed",
                        "params": {"support": [-0.3, 0.3], "t_list": [1.0, 2.0]},
                    },
                ],
            }
        )

    # exact zero-conductance cut: n odd puts x = 0 on a face midpoint
    scenarios.append(
        {
            "name": "degenerate1d-d075-cut",
            "claim": "delta=0.75 aligned cut: K_t vanishes across it; invariant half-lines;"
            " h(phi) splits additively",
            "seed": 307,
            "profile": {
                "dimension": 1,
                "family": {"kind": "power", "delta": 0.75, "centers": [0.0]},
                "domain": [-4.0, 4.0],
            },
            "mesh": {"dimension": 1, "box": [-4.0, 4.0], "n": 2047},
            "epsilons": [0.0],
            "t_small": _logspace(0.01, 1.0, 8),
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "small"}},
                {"check": "classify", "params": {"expect": "Separating"}},
                {
                    "check": "kernel_cut",
                    "params": {
                        "source": [-1.0],
                        "t": 1.0,
                        "across": {"kind": "halfline", "x": 0.0, "side": "right"},
                    },
                },
                {
                    "check": "invariance",
                    "params": {
                        "omega": {"kind": "halfline", "x": 0.0, "side": "left"},
                        "t": 1.0,
                        "tol": 1e-10,
                    },
                },
                {
                    "check": "form_additivity",
                    "params": {
                        "omega": {"kind": "halfline", "x": 0.0, "side": "left"},
                        "tol": 1e-12,
                    },
                },
                {
                    "check": "offdiagonal_gaussian",
                    "params": {
                        "balls": [
                            {"center": [-1.0], "radius": 0.4},
                            {"center": [1.0], "radius": 0.4},
                        ],
                        "t_grid": "small",
                    },
                },
                {
                    "check": "wave_speed",
                    "params": {
                        "support": [-1.5, -0.75],
                        "t_list": [0.5, 1.0, 2.0],
                        "cut": {"kind": "halfline", "x": 0.0, "side": "right"},
                        "speed_cap": None,
                    },
                },
                {
                    # center 0.0 straddles the exact cut: its value stays
                    # strictly positive while neighbors see the split kernel,
                    # evidence that the limit kernel is discontinuous there
                    "check": "ondiagonal_lower",
                    "params": {
                        "t": 1.0,
                        "diameter": 0.5,
                        "centers": [-2.0, -1.0, 0.0, 1.0, 2.0],
                        "mode": "separated",
                    },
                },
            ],
        }
    )

    # double zero at +-1 on face midpoints: n = 4 (2p + 1) aligns both
    scenarios.append(
        {
            "name": "double-zero",
            "claim": "||K_t||_inf >= (x2 - x1)^{-1}: trapped middle component forbids"
            " t^{-d/2} decay",
            "seed": 401,
            "profile": {
                "dimension": 1,
                "family": {"kind": "power", "delta": 0.75, "centers": [-1.0, 1.0]},
                "domain": [-4.0, 4.0],
            },
            "mesh": {"dimension": 1, "box": [-4.0, 4.0], "n": 1020},
            "epsilons": [0.0],
            "t_small": _logspace(0.01, 0.1, 6),
            "t_large": _logspace(1.0, 50.0, 10),
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "large"}},
                {"check": "classify", "params": {"expect": "Separating"}},
                {
                    "check": "largetime_floor",
                    "params": {"mode": "separated", "floor": 0.5, "t_grid": "large"},
                },
                {
                    "check": "kernel_cut",
                    "params": {
                        "source": [0.0],
                        "t": 2.0,
                        "across": {"kind": "halfline", "x": 1.0, "side": "right"},
                    },
                },
            ],
        }
    )

    # 2D annular plateau: every crossing face carries an exact zero
    scenarios.append(
        {
            "name": "radial-shell-2d",
            "claim": "S_t L2(B_e(0;1)) contained in itself: radial degeneracy isolates"
            " the unit ball",
            "seed": 503,
            "profile": {
                "dimension": 2,
                "family": {"kind": "radial_shell", "delta": 0.75, "radius": 1.0, "width": 0.125},
                "domain": [-2.0, 2.0],
            },
            "mesh": {"dimension": 2, "box": [-2.0, 2.0], "n": 96},
            "epsilons": [0.0],
            "t_small": [0.1, 0.5],
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "small"}},
                {"check": "classify", "params": {"expect": "Separating"}},
                {
                    "check": "invariance",
                    "params": {
                        "omega": {"kind": "euclidean_ball", "center": [0.0, 0.0], "radius": 1.0},
                        "t": 0.5,
                        "tol": 1e-8,
                    },
                },
            ],
        }
    )

    # curved separating surface: invariance only in the refinement limit
    ys = np.linspace(-2.0, 2.0, 33)
    phis = 0.3 + 0.2 * np.sin(1.5 * ys)
    scenarios.append(
        {
            "name": "surface-2d",
            "claim": "c(z - Phi(y)) separates across z = Phi(y): leakage decreasing"
            " under refinement",
            "seed": 601,
            "profile": {
                "dimension": 2,
                "family": {
                    "kind": "surface",
                    "delta": 0.75,
                    "surface": {"y": ys.tolist(), "phi": phis.tolist()},
                },
                "domain": [-2.0, 2.0],
            },
            "mesh": {"dimension": 2, "box": [-2.0, 2.0], "n": 96},
            "epsilons": [0.0],
            "t_small": [0.1, 0.5],
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "small"}},
                {"check": "classify", "params": {"expect": "Separating"}},
                {
                    "check": "invariance_refinement",
                    "params": {
                        "omega": {"kind": "under_surface"},
                        "t": 0.25,
                        "n_list": [24, 48, 96],
                    },
                },
            ],
        }
    )

    # resolvent powers against metric ball volumes, degenerate and regular origin
    scenarios.append(
        {
            "name": "resolvent-volume",
            "claim": "a |B_C(x;r)| >= K_{(I + r^2 H)^{-2m}}(x;x)^{-1} with product"
            " pinched by one constant",
            "seed": 701,
            "profile": {
                "dimension": 1,
                "family": {"kind": "power", "delta": 0.5, "centers": [0.0]},
                "domain": [-8.0, 8.0],
            },
            "mesh": {"dimension": 1, "box": [-8.0, 8.0], "n": 4096},
            "epsilons": [0.0],
            "t_small": [0.1],
            "checks": [
                {"check": "structure"},
                {
                    "check": "resolvent_volume",
                    "params": {
                        "origin": [0.0],
                        "r_grid": _logspace(0.3, 3.2, 10),
                        "m": 1,
                    },
                },
                {
                    "check": "resolvent_volume",
                    "params": {
                        "origin": [4.0],
                        "r_grid": _logspace(0.05, 3.2, 10),
                        "m": 1,
                    },
                },
            ],
        }
    )

    # elliptic large-time control on a box sized for t <= 8
    scenarios.append(
        {
            "name": "laplacian1d-largetime",
            "claim": "strongly elliptic control: sup_x K_t(x;x) * t^{1/2} -> (4 pi)^{-1/2}",
            "seed": 811,
            "profile": {
                "dimension": 1,
                "family": {"kind": "power", "delta": 0.0, "centers": [0.0]},
                "domain": [-24.0, 24.0],
            },
            "mesh": {"dimension": 1, "box": [-24.0, 24.0], "n": 4096},
            "epsilons": [0.0],
            "t_large": _logspace(1.0, 8.0, 8),
            "checks": [
                {"check": "structure"},
                {"check": "conservation", "params": {"t_grid": "large"}},
                {
                    "check": "largetime_floor",
                    "params": {
                        "mode": "elliptic",
                        "t_grid": "large",
                        "boundary_margin": 8.0,
                        "band": [0.9, 1.1],
                    },
                },
            ],
        }
    )

    return scenarios


def builtin_by_name(name):
    for doc in builtin_scenarios():
        if doc["name"] == name:
            return doc
    raise KeyError(f"no builtin scenario named '{name}'")
