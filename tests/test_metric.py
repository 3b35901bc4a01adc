import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    RadialShell,
    StronglyElliptic,
    ball_volume,
    build_mesh,
    distance_1d,
    distance_field,
    holder_fit,
    profile_from_json,
)
from degenlab import cli, diagnose, metric, scenarios
from degenlab.quadrature import graded_tail

from conftest import BENCH_SCENARIO, bench_scenario, power1d, same_bits, traced_peak


def field_at(profile, mesh, origin, epsilon=0.0):
    """The distance field from the node nearest origin, on its metric graph."""
    graph = metric.metric_graph(profile, mesh, epsilon)
    return distance_field(graph, mesh, [mesh.nearest_index(origin)])


def c_delta_inv_sqrt(delta):
    return lambda z: ((1 + z * z) / (z * z)) ** (delta / 2.0)


class TestDistance1D:
    def test_unit_coefficient(self):
        p = power1d(0.0, domain=(-8.0, 8.0))
        assert distance_1d(p, -1.0, 2.5) == pytest.approx(3.5, rel=1e-12)

    def test_strict_graded_tail_is_finite_or_divergent(self):
        # _graded_or_inf returns the value of a strict graded_tail as it is:
        # +inf when divergent, else finite, on the half segments that
        # _segment_distance integrates for every 1D builtin profile
        for doc in scenarios.builtin_scenarios():
            profile = profile_from_json(doc["profile"])
            if profile.dimension != 1:
                continue
            (lo, hi), = profile.domain
            knots = sorted({lo, *profile.axis_degeneracies(), 0.37 * lo + 0.63 * hi, hi})
            for a, b in zip(knots[:-1], knots[1:]):
                half = 0.5 * (b - a)
                for z0, side in ((a, 1.0), (b, -1.0)):
                    for eps in doc.get("epsilons", [0.0]):
                        f = metric._offset_integrand(profile, z0, side, eps)
                        for span in (1e-9, 1e-3 * half, half):
                            tail = graded_tail(f, span, levels=52, div_threshold=1e15, strict=True)
                            if tail.divergent:
                                assert tail.value == np.inf
                            else:
                                assert tail.divergent is False and np.isfinite(tail.value)

    def test_small_y_model(self):
        # d(0, y) ~ y^{1-delta}/(1-delta) near the degeneracy
        p = power1d(0.5, domain=(-8.0, 8.0))
        d = distance_1d(p, 0.0, 0.01)
        assert d == pytest.approx(2.0 * 0.01**0.5, rel=0.01)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    def test_adaptive_quadrature_oracle(self, delta):
        # independent oracle: scipy adaptive rule on the exact integrand
        p = power1d(delta, domain=(-8.0, 8.0))
        for y in (0.01, 0.3, 1.7):
            oracle, err = quad(c_delta_inv_sqrt(delta), 0.0, y, points=[0.0], limit=400)
            assert distance_1d(p, 0.0, y) == pytest.approx(oracle, rel=1e-7)

    def test_symmetry(self):
        p = power1d(0.6, domain=(-8.0, 8.0))
        assert distance_1d(p, -0.7, 1.3) == distance_1d(p, 1.3, -0.7)

    def test_crossing_the_degeneracy(self):
        p = power1d(0.5, domain=(-8.0, 8.0))
        both = distance_1d(p, -1.0, 1.0)
        halves = distance_1d(p, -1.0, 0.0) + distance_1d(p, 0.0, 1.0)
        assert both == pytest.approx(halves, rel=1e-10)

    def test_epsilon_monotone_nondecreasing(self):
        p = power1d(0.75, domain=(-8.0, 8.0))
        eps = [2.0**-k for k in range(0, 29)]
        vals = [distance_1d(p, -1.0, 1.0, e) for e in eps]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # sup over eps approaches the eps = 0 value from below; the gap
        # closes like eps^{(1-delta)/(2 delta)} = eps^{1/6} here
        v0 = distance_1d(p, -1.0, 1.0, 0.0)
        assert vals[-1] <= v0
        assert v0 - vals[-1] < 0.05 * v0

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_finite_for_all_builtin_deltas(self, delta):
        assert np.isfinite(distance_1d(power1d(delta, domain=(-8.0, 8.0)), -2.0, 2.0))

    def test_infinite_across_plateau(self):
        # annular plateau in 1D: c vanishes identically on an interval
        p = CoefficientProfile(1, RadialShell(0.5, 1.0, width=0.2), (-4.0, 4.0))
        assert distance_1d(p, 0.0, 2.0) == np.inf
        assert np.isfinite(distance_1d(p, -0.5, 0.5))

    def test_lower_euclidean_bound(self):
        p = power1d(0.75, domain=(-8.0, 8.0))
        for a, b in ((-2.0, 1.0), (0.5, 3.0)):
            d = distance_1d(p, a, b)
            assert d >= abs(b - a) / np.sqrt(p.norm_bound) - 1e-10


class TestDistanceField:
    def test_1d_matches_quadrature(self):
        p = power1d(0.5, domain=(-4.0, 4.0))
        mesh = build_mesh(1, (-4.0, 4.0), 1024)
        fld = field_at(p, mesh, (0.0,))
        assert fld.values[mesh.nearest_index((0.0,))] == 0.0
        for target in (0.25, 1.0, -2.5, 3.5):
            i = mesh.nearest_index((target,))
            ref = distance_1d(p, min(0.0, target), max(0.0, target))
            assert abs(fld.values[i] - ref) <= 0.005 * ref

    def test_constant_metric_scaling(self):
        mu = 4.0
        p = CoefficientProfile(1, StronglyElliptic(mu), (-2.0, 2.0))
        mesh = build_mesh(1, (-2.0, 2.0), 256)
        fld = field_at(p, mesh, (0.0,))
        xs = mesh.axis(0)
        assert np.allclose(fld.values, np.abs(xs) / np.sqrt(mu), atol=1e-10)

    def test_octile_bound_2d(self):
        p = CoefficientProfile(2, PowerDegenerate(0.0, ((0.0, 0.0),)), (-2.0, 2.0))
        mesh = build_mesh(2, (-2.0, 2.0), 48)
        fld = field_at(p, mesh, (0.0, 0.0))
        pts = mesh.points()
        eu = np.linalg.norm(pts, axis=1)
        sel = eu > 0.25
        ratio = fld.values[sel] / eu[sel]
        assert ratio.max() <= 1.083
        assert ratio.min() >= 1.0 - 1e-12

    def test_triangle_inequality_sampled(self):
        p = power1d(0.5, domain=(-4.0, 4.0))
        mesh = build_mesh(1, (-4.0, 4.0), 512)
        f0 = field_at(p, mesh, (0.0,))
        f1 = field_at(p, mesh, (1.0,))
        i1 = mesh.nearest_index((1.0,))
        rng = np.random.default_rng(5)
        for j in rng.integers(0, mesh.size, 32):
            lhs = f0.values[j]
            rhs = f0.values[i1] + f1.values[j]
            assert lhs <= rhs + 1e-9

    def test_monotone_in_epsilon(self):
        p = power1d(0.5, domain=(-4.0, 4.0))
        mesh = build_mesh(1, (-4.0, 4.0), 256)
        f_small = field_at(p, mesh, (0.0,), 1e-4)
        f_big = field_at(p, mesh, (0.0,), 1e-1)
        assert np.all(f_small.values >= f_big.values - 1e-12)

    def test_unreachable_is_inf(self):
        # 2D annular plateau: outside is metrically disconnected from inside
        p = CoefficientProfile(2, RadialShell(0.75, 1.0, width=0.3), (-2.0, 2.0))
        mesh = build_mesh(2, (-2.0, 2.0), 32)
        fld = field_at(p, mesh, (0.0, 0.0))
        pts = mesh.points()
        outside = np.linalg.norm(pts, axis=1) > 1.4
        assert np.all(np.isinf(fld.values[outside]))


def shell2d():
    """2D radial shell on N = 100 nodes whose plateau |r - 1| <= 0.15 is an
    exact cut: the inside, the plateau nodes and the outside are disconnected."""
    p = CoefficientProfile(2, RadialShell(0.75, 1.0, width=0.3), (-2.0, 2.0))
    return p, build_mesh(2, (-2.0, 2.0), 9)


SHELL_ORIGINS = ((0.0, 0.0), (1.6, 0.0), (-1.6, 1.6))


def per_edge_gauss(profile, a, b, epsilon):
    """Reference edge weights: one 8-point Gauss rule per edge."""
    out = []
    with np.errstate(divide="ignore"):
        for aa, bb in zip(a, b):
            seg = aa + np.outer(metric._G8_X, bb - aa)
            vals = profile.scalar_values(seg) + epsilon
            out.append(np.linalg.norm(bb - aa) * np.dot(metric._G8_W, 1.0 / np.sqrt(vals)))
    return np.array(out)


class TestGraphEngine:
    def test_multi_source_is_min_of_single_sources(self):
        p, mesh = shell2d()
        sources = [mesh.nearest_index(o) for o in SHELL_ORIGINS]
        graph = metric.metric_graph(p, mesh)
        multi = distance_field(graph, mesh, sources).values
        singles = [distance_field(graph, mesh, [s]).values for s in sources]
        assert np.array_equal(multi, np.minimum.reduce(singles))
        assert np.isinf(multi).any() and np.isfinite(multi).sum() > len(sources)

    def test_matches_all_pairs_reference(self):
        p, mesh = shell2d()
        heads, tails, weights = metric._edge_graph(p, mesh, 0.0)
        # Floyd-Warshall over the whole edge list, cut edges (+inf) included
        D = np.full((mesh.size, mesh.size), np.inf)
        np.fill_diagonal(D, 0.0)
        D[heads, tails] = weights
        D[tails, heads] = weights
        for k in range(mesh.size):
            D = np.minimum(D, D[:, k, None] + D[None, k, :])
        for origin in SHELL_ORIGINS:
            got = field_at(p, mesh, origin).values
            ref = D[mesh.nearest_index(origin)]
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            fin = np.isfinite(ref)
            assert np.allclose(got[fin], ref[fin], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_vectorised_edge_weights_match_per_edge_gauss(self, epsilon):
        p, mesh = shell2d()
        pts = mesh.points()
        heads, tails, _ = metric._edge_graph(p, mesh, epsilon)
        a, b = pts[heads], pts[tails]
        got = metric._edge_weight_quadrature(p, a, b, epsilon)
        ref = per_edge_gauss(p, a, b, epsilon)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        fin = np.isfinite(ref)
        assert fin.sum() > 100
        assert np.all(np.abs(got[fin] - ref[fin]) <= 4 * np.spacing(ref[fin]))

    def test_one_graph_per_scenario_context(self, tmp_path, monkeypatch):
        # the benchmark's 2D scenario makes seven fields (four balls, the
        # wave support, two resolvent origins) on one (mesh, epsilon)
        builds, fields = [], []
        real_graph, real_field = metric._edge_graph, metric.distance_field

        def counting_graph(*args):
            builds.append(args[1].size)
            return real_graph(*args)

        def counting_field(graph, *args):
            fields.append(graph)
            return real_field(graph, *args)

        monkeypatch.setattr(metric, "_edge_graph", counting_graph)
        for module in (scenarios, diagnose):
            monkeypatch.setattr(module, "distance_field", counting_field)
        cli.run(
            str(BENCH_SCENARIO),
            out_dir=str(tmp_path / "out"),
            overrides=["mesh.n=32"],
        )
        assert builds == [33 * 33] and len(fields) == 7
        assert all(graph is fields[0] for graph in fields)

    def test_concurrent_fields_share_one_graph(self, monkeypatch):
        builds = []
        real_graph = metric._edge_graph

        def counting_graph(*args):
            builds.append(args[1].size)
            return real_graph(*args)

        monkeypatch.setattr(metric, "_edge_graph", counting_graph)
        doc = bench_scenario()
        doc["mesh"]["n"] = 16
        ctx = scenarios.ScenarioContext(doc)
        centers = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 1.0)]
        start = threading.Barrier(len(centers))

        def field(center):
            start.wait(timeout=10)
            ctx.dist_field(center)

        threads = [threading.Thread(target=field, args=(c,)) for c in centers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert builds == [17 * 17] and len(ctx._fields) == len(centers)

    def test_1d_center_edges_take_the_graded_integral(self):
        p = power1d(0.75, domain=(-1.0, 1.0))
        mesh = build_mesh(1, (-1.0, 1.0), 15)  # the center 0 is a face midpoint
        pts = mesh.points()
        a, b = pts[:-1], pts[1:]
        got = metric._edge_weight_quadrature(p, a, b, 0.0)
        mid = mesh.n // 2
        assert got[mid] == pytest.approx(distance_1d(p, a[mid, 0], b[mid, 0]), rel=1e-9)
        others = np.arange(mesh.n) != mid
        ref = per_edge_gauss(p, a[others], b[others], 0.0)
        assert np.all(np.abs(got[others] - ref) <= 4 * np.spacing(ref))


def edge_graph_reference(profile, mesh, epsilon):
    """metric._edge_graph as one pass over the whole edge list: the end
    points, midpoints, lengths and coefficient values of every edge at once,
    and the Gauss nodes of every refined edge in one evaluation."""
    pts = mesh.points()
    N = mesh.size
    if mesh.dimension == 1:
        pairs = [(np.arange(N - 1), np.arange(1, N))]
    else:
        grid = np.arange(N).reshape(mesh.points_per_axis, mesh.points_per_axis)
        pairs = [
            (grid[:-1, :].ravel(), grid[1:, :].ravel()),
            (grid[:, :-1].ravel(), grid[:, 1:].ravel()),
            (grid[:-1, :-1].ravel(), grid[1:, 1:].ravel()),
            (grid[1:, :-1].ravel(), grid[:-1, 1:].ravel()),
        ]
    heads = np.concatenate([p[0] for p in pairs])
    tails = np.concatenate([p[1] for p in pairs])
    a = pts[heads]
    b = pts[tails]
    mids = 0.5 * (a + b)
    lengths = metric.row_norm(b - a)
    c_mid = profile.scalar_values(mids) + epsilon
    with np.errstate(divide="ignore"):
        weights = lengths / np.sqrt(c_mid)
    refine = (c_mid < metric.EDGE_FLOOR**2) | metric._near_degenerate_edges(profile, mids, mesh.h)
    if refine.any():
        weights[refine] = metric._edge_weight_quadrature(profile, a[refine], b[refine], epsilon)
    return heads, tails, weights


def graph_from_edges(mesh, heads, tails, weights):
    """The CSR matrix that metric_graph makes of an edge list."""
    finite = np.isfinite(weights)
    return sp.csr_matrix(
        (weights[finite], (heads[finite], tails[finite])), shape=(mesh.size, mesh.size)
    )


def same_graph(got, want):
    return all(same_bits(getattr(got, k), getattr(want, k)) for k in ("indptr", "indices", "data"))


def scenario_geometry(doc):
    ctx = scenarios.ScenarioContext(doc)
    return ctx.profile, ctx.mesh, ctx.epsilons


class TestEdgeBlocks:
    """_edge_graph evaluates its weights EDGE_BLOCK edges at a time, bitwise
    as the one pass over every edge (edge_graph_reference)."""

    def assert_same_as_reference(self, profile, mesh, epsilon):
        got = metric._edge_graph(profile, mesh, epsilon)
        want = edge_graph_reference(profile, mesh, epsilon)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert same_graph(metric.metric_graph(profile, mesh, epsilon), graph_from_edges(mesh, *want))

    @pytest.mark.parametrize("doc", [bench_scenario(), scenarios.builtin_by_name("surface-2d")],
                             ids=lambda doc: doc["name"])
    def test_2d_scenarios(self, doc):
        profile, mesh, epsilons = scenario_geometry(doc)
        assert 4 * mesh.n * (mesh.n + 1) > 2 * metric.EDGE_BLOCK
        for epsilon in epsilons:
            self.assert_same_as_reference(profile, mesh, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_1d_declared_center(self, epsilon):
        # the center 0 is the midpoint of edge 31, which takes the graded
        # integral; its neighbors within 8 h take the Gauss rule
        p = power1d(0.75, domain=(-4.0, 4.0))
        mesh = build_mesh(1, (-4.0, 4.0), 63)
        assert p.axis_degeneracies() == [0.0]
        self.assert_same_as_reference(p, mesh, epsilon)

    @pytest.mark.parametrize("block", [31, 32])
    def test_refined_edges_across_a_block_boundary(self, block, monkeypatch):
        # blocks of 31 edges put the 1D center edge (31) first in its block
        # and blocks of 32 last; refined edges lie on both sides of the
        # boundary.  The 2D shell's refined band crosses many boundaries
        p = power1d(0.75, domain=(-4.0, 4.0))
        mesh = build_mesh(1, (-4.0, 4.0), 63)
        pts = mesh.points()
        refined = np.flatnonzero(metric._near_degenerate_edges(p, 0.5 * (pts[:-1] + pts[1:]), mesh.h))
        assert 31 % block in (0, block - 1)
        assert refined.min() < 31 and refined.max() > 32
        monkeypatch.setattr(metric, "EDGE_BLOCK", block)
        for epsilon in (0.0, 1e-3):
            self.assert_same_as_reference(p, mesh, epsilon)
        doc = bench_scenario()
        doc["mesh"]["n"] = 32
        profile, mesh, _ = scenario_geometry(doc)
        self.assert_same_as_reference(profile, mesh, 0.0)

    def test_graph_peak_is_a_few_graphs(self):
        # tracemalloc sees numpy's buffers.  On the benchmark scenario the
        # blocked build holds the edge list, one block and the CSR build,
        # about 5.5 times the graph's bytes here; one pass over every edge
        # holds about 18 times
        profile, mesh, _ = scenario_geometry(bench_scenario())
        graph = metric.metric_graph(profile, mesh, 0.0)
        size = graph.data.nbytes + graph.indices.nbytes + graph.indptr.nbytes
        assert traced_peak(lambda: metric.metric_graph(profile, mesh, 0.0)) < 8 * size
        reference = lambda: graph_from_edges(mesh, *edge_graph_reference(profile, mesh, 0.0))
        assert traced_peak(reference) > 8 * size


class TestBallVolume:
    def test_r_zero_convention(self):
        p = power1d(0.0, domain=(-1.0, 1.0))
        mesh = build_mesh(1, (-1.0, 1.0), 64)
        fld = field_at(p, mesh, (0.0,))
        assert ball_volume(fld, 0.0) == pytest.approx(mesh.cell_volume)

    def test_interval_length(self):
        p = power1d(0.0, domain=(-1.0, 1.0))
        mesh = build_mesh(1, (-1.0, 1.0), 512)
        fld = field_at(p, mesh, (0.0,))
        for r in (0.1, 0.33, 0.8):
            assert abs(ball_volume(fld, r) - 2 * r) <= 2 * mesh.h

    def test_degenerate_ball_inversion(self):
        # delta = 0.5: d(0, y) ~ 2 sqrt(y) so |B(0; r)| ~ r^2 / 2; radii are
        # restricted to balls at least ~20 cells wide (below that the grid
        # cannot resolve the quadratically shrinking ball)
        p = power1d(0.5, domain=(-1.0, 1.0))
        mesh = build_mesh(1, (-1.0, 1.0), 4096)
        fld = field_at(p, mesh, (0.0,))
        for r in (0.15, 0.25, 0.4):
            assert ball_volume(fld, r) == pytest.approx(r**2 / 2.0, rel=0.05)


class TestHolderFit:
    @pytest.mark.parametrize(
        "delta,expect", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]
    )
    def test_recovers_comparison_exponent(self, delta, expect):
        fit = holder_fit(power1d(delta, domain=(-8.0, 8.0)), 0.0, (1e-3, 1e-1))
        tol = 0.01 if delta == 0.0 else 0.02
        assert abs(fit.gamma_hat - expect) <= tol

    def test_prefactor_for_half(self):
        # d ~ y^{1/2} / (1/2) = 2 sqrt(y)
        fit = holder_fit(power1d(0.5, domain=(-8.0, 8.0)), 0.0, (1e-3, 1e-2))
        assert fit.a_hat == pytest.approx(2.0, rel=0.02)
