import numpy as np
import pytest

import degenlab.diagnose as diagnose_mod
import degenlab.evolve as evolve_mod
from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    assemble,
    build_mesh,
    cut_conductance,
    distance_field,
    heat_evolve,
    sup_kernel,
)
from degenlab.metric import metric_graph
from degenlab.diagnose import (
    Status,
    conservation_defect,
    euclidean_offdiagonal_check,
    form_additivity_defect,
    invariance_defect,
    kernel_cut_check,
    largetime_floor_check,
    ondiagonal_lower_check,
    offdiagonal_gaussian_check,
    resolvent_volume_scaling,
    separation_probe,
    smalltime_decay_fit,
    structure_check,
    wave_speed_check,
)
from degenlab.evolve import exp_backend

from conftest import power1d, same_bits, shell_op


@pytest.fixture(scope="module")
def laplace_small():
    mesh = build_mesh(1, (-8.0, 8.0), 1024)
    p = power1d(0.0, domain=(-8.0, 8.0))
    return p, mesh, assemble(p, mesh, 0.0)


@pytest.fixture(scope="module")
def cut_setup():
    mesh = build_mesh(1, (-4.0, 4.0), 511)
    p = power1d(0.75)
    return p, mesh, assemble(p, mesh, 0.0)


def sabotage_row(op, index=7, amount=1e-3):
    """Copy of the operator with one diagonal entry bumped: breaks the zero
    row sum without touching symmetry of the graph structure."""
    import copy

    bad = copy.copy(op)
    A = op.matrix.tolil(copy=True)
    A[index, index] += amount
    bad.matrix = A.tocsr()
    return bad


def sabotage_offdiag(op, amount=1e-3):
    import copy

    bad = copy.copy(op)
    A = op.matrix.tolil(copy=True)
    A[3, 4] = amount
    A[4, 3] = amount
    bad.matrix = A.tocsr()
    return bad


class TestConservation:
    def test_holds_on_assembled(self, laplace_small):
        _, _, op = laplace_small
        rec = conservation_defect(op, [0.01, 0.1, 1.0])
        assert rec.status is Status.HOLDS
        assert rec.margin < 1e-9

    def test_holds_per_block_on_cut(self, cut_setup):
        _, _, op = cut_setup
        rec = conservation_defect(op, [0.5, 2.0])
        assert rec.status is Status.HOLDS

    def test_sabotaged_row_detected(self, laplace_small):
        _, _, op = laplace_small
        bad = sabotage_row(op, amount=1e-3)
        # first-order oracle: before diffusion smears the defect away
        # (t << h^2), |e^{-tA'} 1 - 1| ~ t * perturbation at the bad row
        t_small = 1e-5
        rec = conservation_defect(bad, [t_small])
        assert rec.status is Status.VIOLATED
        assert rec.margin == pytest.approx(t_small * 1e-3, rel=0.05)
        assert rec.witness is not None
        # still detected after diffusion at order-one times
        rec2 = conservation_defect(bad, [0.125])
        assert rec2.status is Status.VIOLATED


class TestStructure:
    def test_holds_on_assembled(self, laplace_small):
        _, _, op = laplace_small
        assert structure_check(op).status is Status.HOLDS

    def test_positive_offdiagonal_detected(self, laplace_small):
        _, _, op = laplace_small
        rec = structure_check(sabotage_offdiag(op))
        assert rec.status is Status.VIOLATED

    def test_row_sum_sabotage_detected(self, laplace_small):
        _, _, op = laplace_small
        rec = structure_check(sabotage_row(op))
        assert rec.status is Status.VIOLATED

    def test_lowered_diagonal_fails_the_psd_bound(self, laplace_small):
        # a negative row sum: the Gershgorin bound reads it, and cannot
        # certify A >= 0
        _, _, op = laplace_small
        rec = structure_check(sabotage_row(op, amount=-1e-3))
        assert rec.status is Status.VIOLATED
        rows = {r["metric"]: r["value"] for r in rec.table}
        assert rows["gershgorin_lower"] == pytest.approx(-1e-3, rel=1e-6)
        assert rows["gershgorin_lower"] < -1e-10 * op.spectral_norm_bound


class TestOffdiagonalGaussian:
    def _balls(self, p, mesh, specs, eps=0.0):
        return [
            {"center": c, "radius": r,
             "field": distance_field(metric_graph(p, mesh, eps), mesh, [mesh.nearest_index(c)])}
            for c, r in specs
        ]

    def test_control_holds(self, laplace_small):
        p, mesh, op = laplace_small
        balls = self._balls(p, mesh, [((-2.0,), 0.5), ((2.0,), 0.5)])
        rec = offdiagonal_gaussian_check(op, balls, np.geomspace(0.01, 1.0, 8))
        assert rec.status is Status.HOLDS
        assert rec.margin > 0

    def test_overlapping_balls_reduce_to_contraction(self, laplace_small):
        p, mesh, op = laplace_small
        balls = self._balls(p, mesh, [((0.0,), 1.0), ((0.5,), 1.0)])
        rec = offdiagonal_gaussian_check(op, balls, [0.1, 1.0])
        assert rec.status is Status.HOLDS
        assert all(row["d_tilde"] == 0.0 for row in rec.table)

    def test_exact_cut_lhs_zero(self, cut_setup):
        p, mesh, op = cut_setup
        balls = self._balls(p, mesh, [((-1.0,), 0.4), ((1.0,), 0.4)])
        rec = offdiagonal_gaussian_check(op, balls, [0.1, 1.0, 4.0])
        assert rec.status is Status.HOLDS
        assert all(row["lhs"] == 0.0 for row in rec.table)


class TestEuclideanOffdiagonal:
    def test_control_bound(self, laplace_small):
        _, mesh, op = laplace_small
        boxes = [[-3.0, -1.0], [0.0, 1.5]]
        rec = euclidean_offdiagonal_check(op, boxes, [0.05, 0.5], c_norm=1.0)
        assert rec.status is Status.HOLDS

    def test_touching_sets_contraction(self, laplace_small):
        _, mesh, op = laplace_small
        rec = euclidean_offdiagonal_check(
            op, [[-1.0, 0.0], [0.0, 1.0]], [0.1], c_norm=1.0
        )
        assert rec.status is Status.HOLDS
        assert rec.table[0]["d_e"] == 0.0

    def test_degenerate_large_margin(self, cut_setup):
        p, mesh, op = cut_setup
        rec = euclidean_offdiagonal_check(
            op, [[-2.0, -0.5], [0.5, 2.0]], [0.5], c_norm=p.norm_bound
        )
        assert rec.status is Status.HOLDS
        assert rec.margin > 5.0  # lhs = 0 against a finite bound


    def test_too_small_c_norm_is_violated_with_its_witness_rows(self, laplace_small):
        # the Laplacian's ||C|| is 1: a bound on c_norm 100 times smaller
        # fails, and the witness lists the failing rows of the table
        _, _, op = laplace_small
        boxes = [[-1.0, -0.25], [0.25, 1.0], [2.0, 3.0]]
        ts = [0.05, 0.1, 0.5]
        control = euclidean_offdiagonal_check(op, boxes, ts, c_norm=1.0)
        rec = euclidean_offdiagonal_check(op, boxes, ts, c_norm=0.01)
        assert control.status is Status.HOLDS and control.witness is None
        assert rec.status is Status.VIOLATED and rec.margin < 0.0
        assert [row["lhs"] for row in rec.table] == [row["lhs"] for row in control.table]
        failing = [row for row in rec.table if not row["holds"]]
        assert len(failing) > 1 and all(row["lhs"] > row["bound"] for row in failing)
        assert rec.witness["violations"] == [
            {"t": row["t"], "pair": tuple(int(k) for k in row["pair"].split("-")),
             "lhs": row["lhs"], "bound": row["bound"]}
            for row in failing
        ][:8]

    def test_2d_lhs_is_the_chebyshev_per_pair_dot(self):
        # off the eig path the Gram entries are the dot products of the
        # masks with their tol=1e-13 Chebyshev evolutions, bit for bit
        mesh = build_mesh(2, (-1.0, 1.0), 24)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        boxes = [[[-0.9, -0.4], [-0.5, 0.5]], [[0.3, 0.8], [-0.2, 0.6]]]
        ts = [0.02, 0.2]
        rec = euclidean_offdiagonal_check(op, boxes, ts, c_norm=p.norm_bound)
        pts = mesh.points()
        masks = [np.all((pts >= np.array(b)[:, 0]) & (pts <= np.array(b)[:, 1]), axis=1)
                 for b in boxes]
        masks = [m.astype(float) for m in masks]
        evolved = heat_evolve(op, np.column_stack(masks), ts, tol=1e-13)
        for row, block in zip(rec.table, evolved):
            column = np.ascontiguousarray(block.T)[1]
            assert row["lhs"] == abs(float(np.dot(masks[0], column) * mesh.cell_volume))


class TestWaveSpeed:
    def test_unit_speed_control(self):
        p = power1d(0.0, domain=(-2.0, 2.0))
        mesh = build_mesh(1, (-2.0, 2.0), 1024)
        op = assemble(p, mesh, 0.0)
        rec = wave_speed_check(op, metric_graph(p, mesh), [-0.25, 0.25], [0.75, 1.0, 1.25])
        assert rec.status is Status.HOLDS
        for row in rec.table:
            assert row["speed"] <= 1.05

    def test_cone_respects_exact_cut(self, cut_setup):
        p, mesh, op = cut_setup
        cut_mask = mesh.points()[:, 0] > 0
        rec = wave_speed_check(
            op, metric_graph(p, mesh), [-1.5, -0.75], [0.5, 1.0, 2.0], cut_mask=cut_mask, speed_cap=None
        )
        assert rec.status is Status.HOLDS
        assert all(row["cut_crossed"] == 0 for row in rec.table)


class TestSeparationProbe:
    @staticmethod
    def leakage(p, h, eps):
        """Cut conductance over [-0.5, 0.5] and leakage right of 0 at t = 1
        of the unit bump on [-1.5, -0.5], evolved directly on the box
        [-2, 2]: the probe's defaults for that box."""
        mesh = build_mesh(1, (-2.0, 2.0), int(round(4.0 / h)))
        xs, vol = mesh.axis(0), mesh.cell_volume
        phi = ((xs >= -1.5) & (xs <= -0.5)).astype(float)
        phi /= phi.sum() * vol
        op = assemble(p, mesh, eps)
        f = heat_evolve(op, phi, 1.0, backend=exp_backend(op))
        cond = cut_conductance(p, mesh, (-0.5, 0.5), eps)
        return cond, float(f[xs > 0.0].sum() * vol)

    def test_supercritical_separates(self):
        p = power1d(0.75, domain=(-2.0, 2.0))
        rec = separation_probe(
            p, (-2.0, 2.0), 1.0, [2.0**-k for k in range(6, 11)], cut_interval=(-0.5, 0.5)
        )
        assert rec.fitted["verdict"] == "Separating"
        leaks = [r["leakage"] for r in rec.table]
        assert all(b < a for a, b in zip(leaks, leaks[1:]))

    def test_subcritical_stabilizes(self):
        p = power1d(0.25, domain=(-2.0, 2.0))
        rec = separation_probe(
            p, (-2.0, 2.0), 1.0, [2.0**-k for k in range(6, 11)], cut_interval=(-0.5, 0.5)
        )
        assert rec.fitted["verdict"] == "NonSeparating"

    def test_leakage_is_the_semigroup_leakage(self):
        # the probe measures e^{-tA}: a dense eigh evolution gives the same
        # leakage within the contour's tol (1e-12 ||phi||_2 on each vector)
        p = power1d(0.75, domain=(-2.0, 2.0))
        rec = separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6], cut_interval=(-0.5, 0.5))
        mesh = build_mesh(1, (-2.0, 2.0), 256)
        xs, vol = mesh.axis(0), mesh.cell_volume
        phi = ((xs >= -1.5) & (xs <= -0.5)).astype(float)
        phi /= phi.sum() * vol
        right = xs > 0.0
        bound = np.sqrt(right.sum()) * 1e-12 * np.linalg.norm(phi) * vol
        lam, V = np.linalg.eigh(assemble(p, mesh, 0.0).matrix.toarray())
        ref = float((V @ (np.exp(-lam) * (V.T @ phi)))[right].sum() * vol)
        [row] = rec.table
        assert abs(row["leakage"] - ref) <= bound

    def test_rows_are_the_degenerate_evaluation(self):
        # one row per level, bitwise the eps = 0 operator's leakage and cut
        # conductance evaluated directly
        p = power1d(0.5, domain=(-2.0, 2.0))
        hs = [2.0**-6, 2.0**-7]
        rec = separation_probe(p, (-2.0, 2.0), 1.0, hs, cut_interval=(-0.5, 0.5))
        direct = []
        for h in hs:
            cond, leak = self.leakage(p, h, 0.0)
            direct.append({"h": h, "leakage": leak, "conductance": cond})
        assert rec.table == direct
        assert rec.margin == direct[-1]["leakage"]

    def test_viscous_approximant_never_separates(self):
        # with eps > 0 the operator is uniformly elliptic: mass crosses the
        # degeneracy at every level
        p = power1d(0.75, domain=(-2.0, 2.0))
        for k in range(6, 10):
            _, leak = self.leakage(p, 2.0**-k, 1e-2)
            assert leak > 1e-3, (k, leak)

    def test_odd_cell_count_raises_naming_h(self):
        # 13 cells on [-2, 2] put the cut 0 at 6.5 cells: between two nodes
        p = power1d(0.75, domain=(-2.0, 2.0))
        match = (r"h = 0\.307692307692\d* puts the cut 0\.0 6\.5 cells from the probe box's"
                 r" low end -2\.0, not a whole number")
        with pytest.raises(ValueError, match=match):
            separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6, 4.0 / 13])

    @pytest.mark.parametrize("h, cells", [(0.3, r"13\.3333"), (0.33, r"12\.1212")],
                             ids=["0.3", "0.33"])
    def test_spacing_that_does_not_divide_the_box_raises_naming_h(self, h, cells):
        # 0.33 would round to 12 cells of spacing 1/3, reported as 0.33
        p = power1d(0.75, domain=(-2.0, 2.0))
        match = rf"h = {h} puts {cells} cells on the probe box \[-2\.0, 2\.0\], not a whole"
        with pytest.raises(ValueError, match=match):
            separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6, h])

    def test_cut_off_the_grid_raises_naming_h(self):
        # the cut 0.3 lies 147.2 cells of 2^-6 from -2: no node on it
        p = power1d(0.5, domain=(-2.0, 2.0))
        match = r"h = 0\.015625 puts the cut 0\.3 147\.2 cells from the probe box's low end"
        with pytest.raises(ValueError, match=match):
            separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6, 2.0**-7], cut=0.3,
                             cut_interval=(-0.5, 0.5))

    @pytest.mark.parametrize("where, what", [({"bump": (3.0, 3.5)}, "bump")])
    def test_empty_set_raises(self, where, what):
        # a bump outside the box selects no node
        p = power1d(0.75, domain=(-2.0, 2.0))
        with pytest.raises(ValueError, match=f"separation_probe: {what} .* at h = 0.015625"):
            separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6], **where)

    @pytest.mark.parametrize("cut", [-2.0, 2.0, 2.5], ids=["low-end", "high-end", "past"])
    def test_probe_mesh_refuses_a_cut_not_inside_the_box(self, cut):
        # a cut on the box's end is a node with no far side: both sides of
        # the cut must hold a node, whatever h is
        match = rf"the cut {cut} is not strictly inside the probe box \[-2\.0, 2\.0\]"
        for h in (2.0**-6, 0.3):
            with pytest.raises(ValueError, match=match):
                diagnose_mod.probe_mesh((-2.0, 2.0), h, cut)
        p = power1d(0.75, domain=(-2.0, 2.0))
        with pytest.raises(ValueError, match=match):
            separation_probe(p, (-2.0, 2.0), 1.0, [2.0**-6, 2.0**-7], cut=cut)


class TestInvarianceAndForm:
    def test_exact_cut_invariant(self, cut_setup):
        _, mesh, op = cut_setup
        omega = mesh.points()[:, 0] < 0
        rec = invariance_defect(op, omega, 1.0, seed=3, tol=1e-10)
        assert rec.status is Status.HOLDS

    def test_laplacian_not_invariant(self, laplace_small):
        _, mesh, op = laplace_small
        omega = mesh.points()[:, 0] < 0
        rec = invariance_defect(op, omega, 1.0, seed=3, tol=1e-10)
        assert rec.status is Status.VIOLATED
        assert rec.margin > 0.01

    def test_form_additivity_exact_cut(self, cut_setup):
        _, mesh, op = cut_setup
        omega = mesh.points()[:, 0] < 0
        rec = form_additivity_defect(op, omega, seed=4, tol=1e-12)
        assert rec.status is Status.HOLDS

    def test_form_additivity_control_fails(self, laplace_small):
        _, mesh, op = laplace_small
        omega = mesh.points()[:, 0] < 0
        rec = form_additivity_defect(op, omega, seed=4, tol=1e-12)
        assert rec.status is Status.VIOLATED
        assert rec.margin > 1e-6
        # a bump straddling the cut sees an order-one defect: the cross
        # energy 2 g phi(0-) phi(0+) dominates its own Dirichlet energy
        xs = mesh.axis(0)
        bump = np.exp(-(xs**2) * 4)
        full = op.quadratic_form(bump)
        split = op.quadratic_form(bump * omega) + op.quadratic_form(bump * ~omega)
        assert abs(full - split) / (1.0 + full) > 0.01

    def test_defect_equals_cross_energy(self):
        # identity: defect * (1 + phi^T A phi) = |2 sum_cross A_ij phi_i phi_j|
        mesh = build_mesh(1, (-1.0, 1.0), 8)
        p = power1d(0.3, domain=(-1.0, 1.0))
        op = assemble(p, mesh, 0.1)
        A = op.matrix.toarray()
        omega = mesh.axis(0) < 0
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(mesh.size)
        full = phi @ A @ phi
        split = (phi * omega) @ A @ (phi * omega) + (phi * ~omega) @ A @ (phi * ~omega)
        cross = 2.0 * (phi * omega) @ A @ (phi * ~omega)
        assert full - split == pytest.approx(cross, rel=1e-12)


def double_zero_op():
    """Zeros at -1 and 1 on face midpoints (n = 4 (2p + 1)): three
    components, left of -1, between, and right of 1."""
    p = power1d(0.75, centers=((-1.0,), (1.0,)))
    return assemble(p, build_mesh(1, (-4.0, 4.0), 4 * 63), 0.0)


def record_calls(monkeypatch, module, name):
    """The positional arguments of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def as_one_component(monkeypatch, op):
    """Label every node of op as one component, as if no cut split its graph:
    the checks then evolve every row of every set, and so does the
    recurrence (bitwise the same, TestComponents in test_evolve.py)."""
    monkeypatch.setattr(op, "components", lambda: (1, np.zeros(op.size, dtype=np.intp)))


class TestCrossingComponents:
    """invariance_defect and the pairwise bounds evolve only the components
    of the operator's graph that their read-out can see, with the numbers
    of the whole evolution, bit for bit."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_exact_cut_invariance_evolves_nothing(self, dimension, cut_setup, monkeypatch):
        if dimension == 1:
            op = cut_setup[2]
            omega = op.mesh.axis(0) < 0.0
        else:
            op = shell_op()
            omega = np.linalg.norm(op.mesh.points(), axis=1) < 1.0

        def never(*args, **kwargs):
            raise AssertionError("heat_evolve ran")

        monkeypatch.setattr(diagnose_mod, "heat_evolve", never)
        rec = invariance_defect(op, omega, 0.5, seed=3, tol=1e-10)
        assert rec.status is Status.HOLDS
        assert same_bits(rec.margin, 0.0) and same_bits(rec.table[0]["defect"], 0.0)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_invariance_evolves_only_the_crossing_component(self, dimension, monkeypatch):
        # Omega holds one whole component (the disc; the middle interval)
        # and part of another (the outer region; the right half-line)
        if dimension == 1:
            op = double_zero_op()
            x = op.mesh.axis(0)
            contained, partial = np.abs(x) < 1.0, x > 2.0
        else:
            op = shell_op()
            pts = op.mesh.points()
            contained, partial = np.linalg.norm(pts, axis=1) < 1.0, pts[:, 0] > 1.5
        omega = contained | partial
        _, labels = op.components()
        crossing = np.isin(labels, labels[partial])
        assert crossing.any() and not np.any(crossing & contained)
        evolved = record_calls(monkeypatch, diagnose_mod, "heat_evolve")
        matrices = []
        real = evolve_mod._cheb_sums
        monkeypatch.setattr(evolve_mod, "CPUS", 1)
        monkeypatch.setattr(
            evolve_mod, "_cheb_sums", lambda B, *args: matrices.append(B) or real(B, *args)
        )
        rec = invariance_defect(op, omega, 0.5, seed=5, tol=1e-10)
        (block,) = [args[1] for args in evolved]
        assert np.array_equal(np.any(block != 0.0, axis=1), crossing & omega)
        if dimension == 2:
            assert [B.shape[0] for B in matrices] == [crossing.sum()]
        as_one_component(monkeypatch, op)
        whole = invariance_defect(op, omega, 0.5, seed=5, tol=1e-10)
        assert np.array_equal(np.any(evolved[1][1] != 0.0, axis=1), omega)
        assert rec.status is Status.VIOLATED and rec.margin > 1e-3
        assert same_bits(rec.margin, whole.margin)

    @pytest.mark.parametrize(
        "dimension, boxes, evolved",
        [
            # the second box shares no component with the first: its
            # column drops, and the third still pairs with it
            (1, [[-3.0, -2.0], [1.0, 2.0], [2.5, 3.0]], [1]),
            # each pair crosses the cut: no evolution
            (1, [[-2.0, -0.5], [0.5, 2.0]], []),
            # the disc, then three boxes of the outer region
            (2, [[[-0.3, 0.3], [-0.3, 0.3]], [[1.4, 1.8], [-0.2, 0.2]],
                 [[-1.8, -1.4], [-0.2, 0.2]], [[-0.2, 0.2], [1.4, 1.8]]], [2]),
        ],
        ids=["1d-three-boxes", "1d-two-boxes", "2d-four-boxes"],
    )
    def test_cut_crossing_column_is_not_evolved(
        self, dimension, boxes, evolved, cut_setup, monkeypatch
    ):
        op = cut_setup[2] if dimension == 1 else shell_op()
        ts = [0.05, 0.5]
        grams = record_calls(monkeypatch, diagnose_mod, "heat_gram")
        rec = euclidean_offdiagonal_check(op, boxes, ts, c_norm=1.0)
        assert [args[2].shape[1] for args in grams] == evolved
        as_one_component(monkeypatch, op)
        whole = euclidean_offdiagonal_check(op, boxes, ts, c_norm=1.0)
        assert grams[-1][2].shape[1] == len(boxes) - 1
        assert [row["pair"] for row in rec.table] == [row["pair"] for row in whole.table]
        for key in ("lhs", "log_margin"):
            assert same_bits([row[key] for row in rec.table], [row[key] for row in whole.table])
        assert rec.table == whole.table
        assert any(row["lhs"] > 0.0 for row in rec.table) == bool(evolved)


class TestDecayAndFloors:
    def test_control_slope(self, laplace_small):
        _, mesh, op = laplace_small
        rec = smalltime_decay_fit(
            op, 1.0, np.geomspace(0.004, 0.1, 8), c_norm=1.0, boundary_margin=1.0
        )
        assert rec.status is Status.HOLDS
        assert rec.fitted["slope"] == pytest.approx(-0.5, abs=0.03)

    def test_degenerate_bound_not_violated(self):
        mesh = build_mesh(1, (-4.0, 4.0), 1024)
        p = power1d(0.25)
        op = assemble(p, mesh, 0.0)
        rec = smalltime_decay_fit(
            op, 0.75, np.geomspace(0.002, 0.1, 8), c_norm=1.0, boundary_margin=0.5
        )
        assert rec.status is Status.HOLDS

    def test_empty_window_inconclusive(self, laplace_small):
        _, mesh, op = laplace_small
        rec = smalltime_decay_fit(op, 1.0, [1e-9], c_norm=1.0)
        assert rec.status is Status.INCONCLUSIVE

    def test_double_zero_floor_and_growth(self):
        mesh = build_mesh(1, (-4.0, 4.0), 252)
        p = power1d(0.75, centers=((-1.0,), (1.0,)))
        op = assemble(p, mesh, 0.0)
        rec = largetime_floor_check(
            op, np.geomspace(1.0, 50.0, 8), mode="separated", floor=0.5
        )
        assert rec.status is Status.HOLDS
        # sup * sqrt(t) cannot stay bounded: once the sup saturates at the
        # trapped-mass floor the product grows like sqrt(t)
        prods = [row["sup_times_t_half_d"] for row in rec.table]
        assert prods[-1] > 2.0 * min(prods)

    def test_separated_floor_violated_without_trapped_mass(self):
        # the Laplacian on [-4, 4] traps no mass: its sup (at a wall, twice
        # the free kernel) decays towards 1/8, below the floor 0.5 of a
        # trapped component of length 2
        mesh = build_mesh(1, (-4.0, 4.0), 252)
        op = assemble(power1d(0.0), mesh, 0.0)
        rec = largetime_floor_check(op, np.geomspace(1.0, 50.0, 8), mode="separated", floor=0.5)
        assert rec.status is Status.VIOLATED
        failing = [row for row in rec.table if row["sup_kernel"] < 0.5 * (1.0 - 1e-6)]
        assert failing[-1] is rec.table[-1] and len(failing) >= 6
        assert [row["holds"] for row in rec.table] == [int(row not in failing) for row in rec.table]
        assert rec.witness["violations"] == failing
        assert rec.margin == min(row["sup_kernel"] for row in rec.table)

    def test_elliptic_control_band(self):
        mesh = build_mesh(1, (-12.0, 12.0), 1024)
        p = power1d(0.0, domain=(-12.0, 12.0))
        op = assemble(p, mesh, 0.0)
        rec = largetime_floor_check(
            op,
            [1.0, 2.0, 4.0],
            mode="elliptic",
            boundary_margin=4.5,
            band=(0.9, 1.1),
        )
        assert rec.status is Status.HOLDS


class TestResolventVolume:
    def test_regular_origin_slope(self):
        mesh = build_mesh(1, (-8.0, 8.0), 2048)
        p = power1d(0.0, domain=(-8.0, 8.0))
        op = assemble(p, mesh, 0.0)
        rec = resolvent_volume_scaling(
            op, metric_graph(p, mesh), (0.0,), np.geomspace(0.05, 1.6, 8), m=1
        )
        assert rec.status is Status.HOLDS
        assert rec.fitted["slope"] == pytest.approx(-1.0, abs=0.1)
        # continuum oracle: K |B| = (1/(4r)) * 2r = 1/2 for the free resolvent
        prods = [row["product"] for row in rec.table]
        assert np.median(prods) == pytest.approx(0.5, rel=0.2)

    def test_degenerate_origin(self):
        mesh = build_mesh(1, (-8.0, 8.0), 2048)
        p = power1d(0.5, domain=(-8.0, 8.0))
        op = assemble(p, mesh, 0.0)
        r_lo = 2.0 * np.sqrt(4.0 * mesh.h)  # d_C-resolution at the degeneracy
        rec = resolvent_volume_scaling(
            op, metric_graph(p, mesh), (0.0,), np.geomspace(r_lo, 3.2, 8), m=1
        )
        assert rec.status is Status.HOLDS
        assert abs(rec.fitted["slope"] + 1.0) <= 0.15
        assert rec.fitted["product_ratio"] <= 3.0

    def test_fewer_than_three_radii_inconclusive(self, laplace_small):
        p, mesh, op = laplace_small
        rec = resolvent_volume_scaling(op, metric_graph(p, mesh), (0.0,), [0.5, 1.0], m=1)
        assert rec.status is Status.INCONCLUSIVE and rec.margin is None
        assert rec.fitted == {"reason": "fewer than 3 usable radii"}
        assert [row["r"] for row in rec.table] == [0.5, 1.0]

    def test_m_hypothesis_enforced(self, laplace_small):
        p, mesh, op = laplace_small
        with pytest.raises(ValueError):
            resolvent_volume_scaling(op, metric_graph(p, mesh), (0.0,), [0.1], m=0)


class TestOndiagonalLower:
    def test_uniform_on_control(self, laplace_small):
        _, mesh, op = laplace_small
        rec = ondiagonal_lower_check(
            op, 1.0, 0.5, [-3.0, -1.5, 0.0, 1.5, 3.0], mode="uniform"
        )
        assert rec.status is Status.HOLDS
        assert rec.margin >= 0.9  # translation invariance away from walls

    def test_value_is_the_exact_square_norm(self, laplace_small):
        # (phi, S_t phi) = ||S_{t/2} phi||^2, here from the analytic
        # eigenbasis of the 1025-point Laplacian: cos(pi k (i + 1/2) / N),
        # the DCT-II, with eigenvalues 4 sin^2(pi k / (2N)) / h^2
        from scipy.fft import dct

        _, mesh, op = laplace_small
        centers = [-3.0, 0.0, 1.5]
        rec = ondiagonal_lower_check(op, 1.0, 0.5, centers)
        vol = mesh.cell_volume
        N = op.size
        lam = 4.0 * np.sin(np.pi * np.arange(N) / (2 * N)) ** 2 / mesh.h**2
        for c, row in zip(centers, rec.table):
            phi = (np.abs(mesh.points()[:, 0] - c) <= 0.25).astype(float)
            half = np.exp(-0.5 * lam) * dct(phi, type=2, norm="ortho")
            ref = np.dot(half, half) * vol / (phi.sum() * vol) ** 2
            assert abs(row["value"] - ref) <= 1e-13 * ref

    def test_separated_positive_per_component(self, cut_setup):
        _, mesh, op = cut_setup
        rec = ondiagonal_lower_check(
            op, 1.0, 0.5, [-2.0, -1.0, 1.0, 2.0], mode="separated"
        )
        assert rec.status is Status.HOLDS
        assert rec.margin > 0.0


class TestKernelCut:
    def test_exact_zero(self, cut_setup):
        _, mesh, op = cut_setup
        src = mesh.nearest_index((-1.0,))
        rec = kernel_cut_check(op, src, 1.0, mesh.points()[:, 0] > 0)
        assert rec.status is Status.HOLDS
        assert rec.margin == 0.0

    def test_connected_control_fails(self, laplace_small):
        _, mesh, op = laplace_small
        src = mesh.nearest_index((-1.0,))
        rec = kernel_cut_check(op, src, 1.0, mesh.points()[:, 0] > 0)
        assert rec.status is Status.VIOLATED
