"""Layer spans and counters for the benchmark, recorded from outside the package.

`Tracer.install()` rebinds public functions of `degenlab` in every
`degenlab.*` module namespace that holds them (modules import each other's
functions by name), wraps the `scenarios.CHECKS` entries and the
`ScenarioContext` methods, and returns a function that restores the
originals.  Spans are kept in memory; `pass_metrics` turns one pass worth of
spans and counters into the per-layer metrics listed in BENCHMARK.json.

Self time of a span is its duration minus the part of its interval that its
child spans cover (the union of the children's intervals, so children that
ran concurrently on worker threads are not subtracted twice).
"""

import inspect
import sys
import threading
import time
import weakref

import numpy as np

LAYERS = ("cli", "scenarios", "diagnose", "evolve", "metric", "grid", "quadrature", "coeffs")


class Span:
    __slots__ = ("id", "parent", "layer", "key", "t0", "t1")

    def __init__(self, sid, parent, layer, key, t0):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.key = key
        self.t0 = t0
        self.t1 = None


class Tracer:
    """Collects spans (with their causing span) and counters; thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._eig_returned = weakref.WeakSet()
        self.reset()

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = {}

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer, key):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # a worker thread's first span was caused by whatever the main
            # thread has open (run_checks, waiting on its thread pool)
            main = self._main_stack
            parent = main[-1].id if main else None
        with self._lock:
            span = Span(len(self.spans), parent, layer, key, self.clock())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.t1 = self.clock()
        stack = self._stack()
        stack.pop()

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers -------------------------------------------------------

    def timed(self, fn, layer, key, after=None, bind=False):
        """Wrap fn in a span; key is a metric name or key(arguments, result).

        after(arguments, result) records counters once the call returned.
        With bind, arguments is the bound-signature dict (defaults applied),
        otherwise (args, kwargs).
        """
        sig = inspect.signature(fn) if bind else None

        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            else:
                arguments = (args, kwargs)
            span = self.open(layer, key if isinstance(key, str) else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if not isinstance(key, str):
                span.key = key(arguments, result)
            if after is not None:
                after(arguments, result)
            return result

        return wrapper

    def eig_wrapper(self, fn):
        """Span and counts for operator_eig(op, ...).

        A call counts as computed when it started before any earlier call on
        the same operator returned, so duplicate work under threads shows.
        """

        def wrapper(op, *args, **kwargs):
            with self._lock:
                computed = op not in self._eig_returned
            span = self.open("evolve", "evolve.operator_eig_s@self")
            try:
                result = fn(op, *args, **kwargs)
            finally:
                self.close(span)
            with self._lock:
                self._eig_returned.add(op)
            self.count("evolve.operator_eig.calls")
            if computed:
                self.count("evolve.operator_eig.computed")
                self.count("evolve.operator_eig.size", op.size)
            return result

        return wrapper

    def counted(self, fn, name, points):
        """Count-only wrapper (no clock reads) for very hot methods."""

        def wrapper(obj, arg):
            self.count(name + ".calls")
            self.count(name + ".points", points(obj, arg))
            return fn(obj, arg)

        return wrapper

    def install(self):
        """Wrap the degenlab layers; returns a function that unwraps them."""
        return _install(self)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = _union_length(children.get(s.id, ()), s.t0, s.t1)
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def pass_metrics(spans, counts):
    """Per-layer metrics of one traced pass.

    A span key `<metric>@self` adds the span's self time to `<metric>`,
    `<metric>@total` its whole duration; `<layer>.self_s` sums the self time
    of every span of that layer.
    """
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.id]
        if s.key is None:  # the call raised before its key was known
            continue
        name, _, kind = s.key.rpartition("@")
        value = selfs[s.id] if kind == "self" else s.t1 - s.t0
        out[name] = out.get(name, 0.0) + value
    for name, n in counts.items():
        out[name] = out.get(name, 0) + n
    return out


# ---------------------------------------------------------------------------
# what gets wrapped


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every degenlab module namespace."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "degenlab" or modname.startswith("degenlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo


def _points(profile, pts):
    """Number of points in a scalar_values argument (see _as_points)."""
    shape = np.shape(pts)
    if len(shape) == 0:
        return 1
    if len(shape) == 1:
        return shape[0] if profile.dimension == 1 else 1
    return shape[0]


def _install(tr):
    from degenlab import cli, coeffs, evolve, grid, metric, quadrature, scenarios

    undo = []

    def wrap(module, name, layer, key, after=None, bind=False):
        fn = getattr(module, name)
        undo.extend(_rebind(fn, tr.timed(fn, layer, key, after, bind)))

    # evolve
    undo.extend(_rebind(evolve.operator_eig, tr.eig_wrapper(evolve.operator_eig)))

    def heat_after(a, field):
        tr.count("evolve.heat_evolve.calls")
        shape = np.shape(a["phi0"])
        tr.count("evolve.heat_evolve.vectors", shape[1] if len(shape) == 2 else 1)

    wrap(evolve, "heat_evolve", "evolve",
         lambda a, r: f"evolve.heat_evolve.{a['backend']}_s@self", heat_after, bind=True)
    wrap(evolve, "sup_kernel", "evolve",
         lambda a, r: f"evolve.sup_kernel.{r.strategy}_s@self")
    wrap(evolve, "wave_evolve", "evolve", "evolve.wave_evolve_s@self",
         lambda a, w: tr.count("evolve.wave_evolve.steps", round(w.time / w.dt) if w.dt else 0))
    wrap(evolve, "resolvent_power_apply", "evolve",
         lambda a, r: f"evolve.resolvent_power_apply.{a[0][0].mesh.dimension}d_s@self")

    # metric
    def field_after(a, field):
        tr.count("metric.distance_field.calls")
        tr.count("metric.distance_field.nodes", field.values.size)
        tr.count("metric.distance_field.unreachable", int(np.isposinf(field.values).sum()))

    wrap(metric, "distance_field", "metric", "metric.distance_field_s@self", field_after)
    wrap(metric, "distance_1d", "metric", "metric.distance_1d_s@self")
    wrap(metric, "holder_fit", "metric", "metric.holder_fit_s@self")

    # coeffs
    wrap(coeffs, "classify", "coeffs", "coeffs.classify_s@self")
    wrap(coeffs, "profile_from_json", "coeffs", "coeffs.profile_from_json_s@self")
    cls = coeffs.CoefficientProfile
    sv = cls.scalar_values
    cls.scalar_values = tr.counted(sv, "coeffs.scalar_values", _points)
    undo.append((cls, "scalar_values", sv))

    # quadrature
    wrap(quadrature, "graded_tail", "quadrature", "quadrature.graded_tail_s@self",
         lambda a, r: (tr.count("quadrature.graded_tail.calls"),
                       tr.count("quadrature.graded_tail.levels", r.levels)))
    wrap(quadrature, "integrate_graded", "quadrature", "quadrature.integrate_graded_s@self",
         lambda a, r: tr.count("quadrature.integrate_graded.calls"))

    # grid
    wrap(grid, "assemble", "grid", "grid.assemble_s@self",
         lambda a, op: (tr.count("grid.assemble.calls"), tr.count("grid.assemble.nnz", op.matrix.nnz)))
    wrap(grid, "markov_check", "grid", "grid.markov_check_s@self")
    wrap(grid, "cut_conductance", "grid", "grid.cut_conductance_s@self",
         lambda a, r: tr.count("grid.cut_conductance.calls"))

    # scenarios: checks (their self time is the diagnose layer), context, runner
    for name, fn in list(scenarios.CHECKS.items()):
        scenarios.CHECKS[name] = tr.timed(fn, "diagnose", f"scenarios.check_s.{name}@total")
        undo.append((scenarios.CHECKS, name, fn))
    ctx_cls = scenarios.ScenarioContext
    for meth, key in (
        ("operator", "scenarios.operator.wait_s@self"),
        ("dist_field", "scenarios.dist_field.wait_s@self"),
        ("__init__", "scenarios.context_s@total"),
    ):
        fn = ctx_cls.__dict__[meth]
        setattr(ctx_cls, meth, tr.timed(fn, "scenarios", key))
        undo.append((ctx_cls, meth, fn))
    wrap(scenarios, "validate_scenario", "scenarios", "scenarios.validate_s@total")
    wrap(scenarios, "run_checks", "scenarios", "scenarios.run_checks_s@total")

    # cli: the self time of cli.run is report and CSV writing
    wrap(cli, "run", "cli", "cli.report_s@self")

    def restore():
        for target, attr, original in reversed(undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    return restore
