"""Builtin scenario catalogue, scenario validation, and the check registry.

A scenario JSON document names a coefficient profile, a mesh, epsilon and
time grids, and a list of checks with parameters.  The registry maps check
names to glue functions that resolve scenario-level specs (ball lists, omega
masks, grids) into the diagnose-module calls.  Execution is deterministic:
every check derives its random seed from the scenario seed and its own index.
"""

import hashlib
import time

import numpy as np

from . import diagnose
from .coeffs import classify, profile_from_json, viscosity_shift
from .diagnose import CheckRecord, Status
from .errors import SchemaError
from .grid import assemble, build_mesh
from .metric import distance_field, holder_fit

# ---------------------------------------------------------------------------
# context


class ScenarioContext:
    """Lazy shared state for one scenario run: profile, mesh, operators per
    epsilon, distance fields per (center, epsilon)."""

    def __init__(self, doc, base_dir=None):
        self.doc = doc
        self.name = doc["name"]
        self.seed = int(doc.get("seed", 0))
        self.profile = profile_from_json(doc["profile"], base_dir=base_dir)
        mspec = doc["mesh"]
        self.mesh = build_mesh(int(mspec["dimension"]), mspec["box"], int(mspec["n"]))
        self.epsilons = [float(e) for e in doc.get("epsilons", [0.0])]
        self._ops = {}
        self._fields = {}
        import threading

        self._lock = threading.Lock()

    def operator(self, epsilon=None):
        eps = self.epsilons[0] if epsilon is None else float(epsilon)
        with self._lock:
            if eps not in self._ops:
                self._ops[eps] = assemble(self.profile, self.mesh, eps)
            return self._ops[eps]

    def dist_field(self, center, epsilon=None):
        eps = self.epsilons[0] if epsilon is None else float(epsilon)
        key = (tuple(np.atleast_1d(center).tolist()), eps)
        with self._lock:
            if key not in self._fields:
                self._fields[key] = distance_field(self.profile, self.mesh, center, eps)
            return self._fields[key]

    def t_grid(self, spec):
        if isinstance(spec, str):
            key = {"small": "t_small", "large": "t_large"}.get(spec, spec)
            if key not in self.doc:
                raise SchemaError(f"scenario has no time grid '{spec}'")
            return [float(t) for t in self.doc[key]]
        return [float(t) for t in spec]

    def seed_for(self, check_index, check_name):
        digest = hashlib.sha256(f"{self.seed}:{check_index}:{check_name}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def omega_mask(self, spec, mesh=None):
        """Resolve a region spec into a boolean node mask on the given mesh
        (the scenario mesh by default)."""
        mesh = self.mesh if mesh is None else mesh
        pts = mesh.points()
        kind = spec.get("kind")
        if kind == "halfline":
            x0 = float(spec["x"])
            side = spec.get("side", "left")
            return pts[:, 0] < x0 if side == "left" else pts[:, 0] > x0
        if kind == "interval":
            lo, hi = spec["lo"], spec["hi"]
            return (pts[:, 0] > lo) & (pts[:, 0] < hi)
        if kind == "euclidean_ball":
            c = np.asarray(spec.get("center", [0.0] * mesh.dimension), dtype=float)
            return np.linalg.norm(pts - c, axis=1) < float(spec["radius"])
        if kind == "under_surface":
            fam = self.profile.family
            return pts[:, 1] < fam.phi(pts[:, 0])
        raise SchemaError(f"unknown omega kind '{kind}'")


# ---------------------------------------------------------------------------
# registry glue


def _run_structure(ctx, params, seed):
    return diagnose.structure_check(ctx.operator(params.get("epsilon")), seed=seed)


def _run_conservation(ctx, params, seed):
    grids = params.get("t_grid", "small")
    ts = sorted(set(ctx.t_grid(grids)))
    return diagnose.conservation_defect(
        ctx.operator(params.get("epsilon")), ts, tol=params.get("tol", 1e-9)
    )


def _run_offdiagonal(ctx, params, seed):
    eps = params.get("epsilon", ctx.epsilons[0])
    balls = [
        {
            "center": b["center"],
            "radius": float(b["radius"]),
            "field": ctx.dist_field(b["center"], eps),
        }
        for b in params["balls"]
    ]
    return diagnose.offdiagonal_gaussian_check(
        ctx.operator(eps), ctx.mesh, balls, ctx.t_grid(params.get("t_grid", "small"))
    )


def _run_euclidean(ctx, params, seed):
    eps = params.get("epsilon", ctx.epsilons[0])
    return diagnose.euclidean_offdiagonal_check(
        ctx.operator(eps),
        ctx.mesh,
        params["boxes"],
        ctx.t_grid(params.get("t_grid", "small")),
        c_norm=ctx.profile.norm_bound + eps,
    )


def _run_wave_speed(ctx, params, seed):
    eps = params.get("epsilon", ctx.epsilons[0])
    cut_mask = None
    if "cut" in params:
        cut_mask = ctx.omega_mask(params["cut"])
    return diagnose.wave_speed_check(
        ctx.operator(eps),
        viscosity_shift(ctx.profile, eps) if eps else ctx.profile,
        ctx.mesh,
        params["support"],
        [float(t) for t in params["t_list"]],
        epsilon=0.0,
        speed_cap=params.get("speed_cap", 1.05),
        cut_mask=cut_mask,
    )


def _run_separation_probe(ctx, params, seed):
    return diagnose.separation_probe(
        ctx.profile,
        params.get("box", [b for ax in ctx.mesh.box for b in ax][:2]),
        float(params.get("t", 1.0)),
        [float(h) for h in params["h_list"]],
        [float(e) for e in params.get("epsilons", [0.0])],
        cut=float(params.get("cut", 0.0)),
        cut_interval=params.get("cut_interval"),
        bump=params.get("bump"),
    )


def _run_invariance(ctx, params, seed):
    return diagnose.invariance_defect(
        ctx.operator(params.get("epsilon")),
        ctx.omega_mask(params["omega"]),
        float(params.get("t", 0.5)),
        seed=seed,
        tol=params.get("tol", 1e-8),
    )


def _run_invariance_refinement(ctx, params, seed):
    """Invariance defect across a refinement sequence; Holds iff the defect
    decreases monotonically (curved interfaces separate only in the limit)."""
    t = float(params.get("t", 0.5))
    rows = []
    for n in params["n_list"]:
        mesh = build_mesh(ctx.mesh.dimension, ctx.mesh.box, int(n))
        op = assemble(ctx.profile, mesh, params.get("epsilon", 0.0))
        omega = ctx.omega_mask(params["omega"], mesh)
        rec = diagnose.invariance_defect(op, omega, t, seed=seed, tol=np.inf)
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


def _run_form_additivity(ctx, params, seed):
    return diagnose.form_additivity_defect(
        ctx.operator(params.get("epsilon")),
        ctx.omega_mask(params["omega"]),
        seed=seed,
        tol=params.get("tol", 1e-12),
    )


def _run_smalltime(ctx, params, seed):
    eps = params.get("epsilon", ctx.epsilons[0])
    return diagnose.smalltime_decay_fit(
        ctx.operator(eps),
        ctx.mesh,
        float(params["gamma"]),
        ctx.t_grid(params.get("t_grid", "small")),
        c_norm=ctx.profile.norm_bound + eps,
        boundary_margin=float(params.get("boundary_margin", 0.0)),
    )


def _run_largetime(ctx, params, seed):
    return diagnose.largetime_floor_check(
        ctx.operator(params.get("epsilon")),
        ctx.mesh,
        ctx.t_grid(params.get("t_grid", "large")),
        mode=params["mode"],
        floor=params.get("floor"),
        boundary_margin=float(params.get("boundary_margin", 0.0)),
        band=tuple(params.get("band", (0.8, 1.2))),
    )


def _run_resolvent_volume(ctx, params, seed):
    eps = params.get("epsilon", ctx.epsilons[0])
    return diagnose.resolvent_volume_scaling(
        ctx.operator(eps),
        ctx.profile,
        ctx.mesh,
        params["origin"],
        [float(r) for r in params["r_grid"]],
        int(params.get("m", 1)),
        epsilon=eps,
    )


def _run_ondiagonal(ctx, params, seed):
    return diagnose.ondiagonal_lower_check(
        ctx.operator(params.get("epsilon")),
        ctx.mesh,
        float(params.get("t", 1.0)),
        float(params["diameter"]),
        params["centers"],
        mode=params.get("mode", "uniform"),
        uniformity=params.get("uniformity", 1e-3),
    )


def _run_kernel_cut(ctx, params, seed):
    src = ctx.mesh.nearest_index(params["source"])
    return diagnose.kernel_cut_check(
        ctx.operator(params.get("epsilon")),
        ctx.mesh,
        src,
        float(params.get("t", 1.0)),
        ctx.omega_mask(params["across"]),
        tol=params.get("tol", 0.0),
    )


def _run_classify(ctx, params, seed):
    cl = classify(ctx.profile)
    expected = params.get("expect")
    ok = expected is None or cl.verdict.value == expected
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


def _run_holder(ctx, params, seed):
    fit = holder_fit(
        ctx.profile,
        float(params.get("origin", 0.0)),
        (float(params["range"][0]), float(params["range"][1])),
        epsilon=params.get("epsilon", 0.0),
    )
    expect = params.get("expect_gamma")
    tol = float(params.get("tol", 0.02))
    ok = expect is None or abs(fit.gamma_hat - float(expect)) <= tol
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


def validate_scenario(doc):
    """Schema validation with field-naming errors; returns the document."""
    for key in ("name", "profile", "mesh", "checks"):
        if key not in doc:
            raise SchemaError(f"scenario missing required field '{key}'")
    mesh = doc["mesh"]
    for key in ("dimension", "box", "n"):
        if key not in mesh:
            raise SchemaError(f"scenario mesh missing field 'mesh.{key}'")
    for i, chk in enumerate(doc["checks"]):
        if "check" not in chk:
            raise SchemaError(f"checks[{i}] missing field 'check'")
        name = chk["check"]
        if name not in CHECKS:
            raise SchemaError(f"checks[{i}].check: unknown check '{name}'")
        params = chk.get("params", {})
        if name == "smalltime_decay":
            ts = params.get("t_grid", "small")
            if not isinstance(ts, str):
                if max(float(t) for t in ts) > 0.1:
                    raise SchemaError(
                        f"checks[{i}].params.t_grid: smalltime grid must stay <= 0.1"
                    )
        if name == "resolvent_volume":
            m = int(params.get("m", 1))
            if 4 * m <= int(mesh["dimension"]):
                raise SchemaError(f"checks[{i}].params.m: need 4m > d")
        if name == "largetime_floor" and params.get("mode") == "separated":
            if params.get("floor") is None:
                raise SchemaError(f"checks[{i}].params.floor: separated mode needs a floor")
    return doc


def run_checks(ctx, threads=1):
    """Execute every check of the scenario; records keep scenario order."""
    jobs = []
    for i, chk in enumerate(ctx.doc["checks"]):
        name = chk["check"]
        params = chk.get("params", {})
        jobs.append((i, name, params))

    def run_one(job):
        i, name, params = job
        t0 = time.perf_counter()
        rec = CHECKS[name](ctx, params, ctx.seed_for(i, name))
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
                "gamma_hint": 1.0,
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
                    "gamma_hint": gamma,
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
                            "epsilons": [0.0, 1e-2],
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
                "gamma_hint": 0.25,
                "cut_hint": [0.0],
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
                "gamma_hint": 0.25,
                "cut_hint": [-1.0, 1.0],
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
                "gamma_hint": 0.5,
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
                "gamma_hint": 1.0,
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
