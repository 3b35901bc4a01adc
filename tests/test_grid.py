import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import eigh

import degenlab.coeffs as coeffs_mod
from degenlab import (
    CoefficientProfile,
    PowerDegenerate,
    RadialShell,
    Sampled,
    assemble,
    build_mesh,
    cut_conductance,
    markov_check,
    sup_kernel,
)
from degenlab import metric, scenarios
from degenlab.errors import ResourceLimitError

from conftest import bench_scenario, power1d, same_bits, traced_peak


class TestBuildMesh:
    def test_1d_arithmetic(self):
        m = build_mesh(1, (-1.0, 1.0), 8)
        assert m.h == 0.25
        assert m.size == 9

    def test_2d_point_count(self):
        m = build_mesh(2, (-1.0, 1.0), 16)
        assert m.size == 289

    def test_fine_spacing(self):
        m = build_mesh(1, (-4.0, 4.0), 4096)
        assert m.h == 8.0 / 4096

    def test_point_cap(self):
        with pytest.raises(ResourceLimitError):
            build_mesh(2, (-1.0, 1.0), 4096)

    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            build_mesh(1, (0.0, 1.0), 4)


class TestBoxMask:
    def test_closed_box_per_axis(self):
        m = build_mesh(1, (-1.0, 1.0), 8)
        want = np.isin(m.axis(0), [-0.5, -0.25, 0.0, 0.25])
        assert np.array_equal(m.box_mask([-0.5, 0.25]), want)
        assert np.array_equal(m.box_mask([[-0.5, 0.25]]), want)
        m2 = build_mesh(2, (-1.0, 1.0), 8)
        pts = m2.points()
        got = m2.box_mask([[-0.5, 0.25], [0.0, 1.0]])
        assert np.array_equal(got, (pts[:, 0] >= -0.5) & (pts[:, 0] <= 0.25) & (pts[:, 1] >= 0.0))
        assert got.sum() == 4 * 5

    @pytest.mark.parametrize("box, n, centers", [
        ((-8.0, 8.0), 4096, [-3.0, -1.5, 0.0, 1.5, 3.0]),
        ((-4.0, 4.0), 2047, [-2.0, -1.0, 0.0, 1.0, 2.0]),
    ], ids=["laplacian1d", "d075-cut"])
    def test_box_of_a_bump_is_its_centred_cube(self, box, n, centers):
        # the ondiagonal_lower bumps of the builtins, diameter 0.5
        m = build_mesh(1, box, n)
        pts = m.points()
        for c in centers:
            cube = np.all(np.abs(pts - c) <= 0.25, axis=1)
            assert np.array_equal(m.box_mask([c - 0.25, c + 0.25]), cube)

    def test_last_node_may_round_past_the_box(self):
        # on (0.1, 0.4) at n = 19, a + n h rounds to 0.40000000000000013: the
        # closed box drops that node, and sup_kernel at boundary_margin 0
        # still samples it
        m = build_mesh(1, (0.1, 0.4), 19)
        assert m.axis(0)[-1] > 0.4
        assert np.flatnonzero(~m.box_mask(m.box)).tolist() == [m.n]
        op = assemble(power1d(0.0, domain=(0.1, 0.4)), m, 0.0)
        last = sup_kernel(op, 0.01, sample_indices=[m.n]).value
        assert last > 0.0 and last <= sup_kernel(op, 0.01).value


class TestAssemble:
    def test_neumann_laplacian_stencil(self):
        mesh = build_mesh(1, (0.0, 1.0), 8)
        op = assemble(power1d(0.0, domain=(0.0, 1.0)), mesh, 0.0)
        A = op.matrix.toarray() * mesh.h**2
        for i in range(1, 8):
            assert A[i, i] == pytest.approx(2.0)
            assert A[i, i - 1] == pytest.approx(-1.0)
        assert A[0, 0] == pytest.approx(1.0)

    def test_zero_profile_zero_operator(self):
        mesh = build_mesh(1, (-1.0, 1.0), 16)
        p = CoefficientProfile(1, Sampled(np.zeros(33)), (-1.0, 1.0))
        op = assemble(p, mesh, 0.0)
        assert op.matrix.nnz == 0 or np.abs(op.matrix.data).max() == 0.0

    def test_face_on_center_gets_epsilon_only(self):
        # n odd puts x = 0 on a face midpoint; that conductance is eps/h^2
        mesh = build_mesh(1, (-2.0, 2.0), 15)
        eps = 0.3
        op = assemble(power1d(0.5, domain=(-2.0, 2.0)), mesh, eps)
        xs = mesh.axis(0)
        mid = 0.5 * (xs[:-1] + xs[1:])
        k = int(np.argmin(np.abs(mid)))
        assert abs(mid[k]) < 1e-14
        g = -op.matrix[k, k + 1]
        assert g == pytest.approx(eps / mesh.h**2, rel=1e-14)

    def test_exact_symmetry_and_row_sums(self):
        for delta, dim, n in ((0.5, 1, 128), (0.75, 2, 24)):
            dom = (-2.0, 2.0)
            fam = PowerDegenerate(delta, ((0.0,),) if dim == 1 else ((0.0, 0.0),))
            p = CoefficientProfile(dim, fam, dom)
            mesh = build_mesh(dim, dom, n)
            op = assemble(p, mesh, 1e-3)
            A = op.matrix
            assert np.abs(A - A.T).max() == 0.0
            row_sums = np.abs(np.asarray(A.sum(axis=1)).ravel())
            assert row_sums.max() <= 1e-13 * np.abs(A).sum(axis=1).max()

    def test_2d_needs_scalar(self):
        # an anisotropic matrix never reaches the 5-point stencil: the
        # profile is rejected when it is built
        from degenlab import profile_from_json

        doc = {"dimension": 2, "domain": [-1.0, 1.0],
               "family": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 3.0]]}}
        with pytest.raises(ValueError, match="the assembly is scalar"):
            profile_from_json(doc)

    def test_form_monotone_in_epsilon(self):
        mesh = build_mesh(1, (-2.0, 2.0), 128)
        p = power1d(0.5, domain=(-2.0, 2.0))
        op1 = assemble(p, mesh, 1e-3)
        op2 = assemble(p, mesh, 1e-1)
        rng = np.random.default_rng(3)
        for _ in range(8):
            phi = rng.standard_normal(mesh.size)
            assert op1.quadratic_form(phi) <= op2.quadratic_form(phi) + 1e-12

    def test_exact_block_split(self):
        # face midpoint on the degeneracy, eps = 0: form splits additively
        mesh = build_mesh(1, (-2.0, 2.0), 15)
        op = assemble(power1d(0.75, domain=(-2.0, 2.0)), mesh, 0.0)
        xs = mesh.axis(0)
        left = xs < 0
        rng = np.random.default_rng(4)
        for _ in range(8):
            phi = rng.standard_normal(mesh.size)
            full = op.quadratic_form(phi)
            split = op.quadratic_form(phi * left) + op.quadratic_form(phi * ~left)
            assert abs(full - split) <= 1e-14 * (1 + abs(full))


class TestCutConductance:
    def test_uniform_resistor_chain(self):
        mesh = build_mesh(1, (-1.0, 1.0), 256)
        p = power1d(0.0, domain=(-1.0, 1.0))
        # faces with midpoints in [-0.5, 0.5]: exactly length-1 chain
        g = cut_conductance(p, mesh, (-0.5, 0.5), 0.0)
        assert g == pytest.approx(1.0, rel=1e-12)

    def test_divergent_integral_drives_conductance_to_zero(self):
        p = power1d(0.75, domain=(-1.0, 1.0))
        vals = []
        for k in range(6, 13):
            mesh = build_mesh(1, (-1.0, 1.0), 2**k)
            vals.append(cut_conductance(p, mesh, (-0.5, 0.5), 0.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # quadrature oracle: partial integrals of 1/c explode
        partial, _ = quad(
            lambda z: ((1 + z * z) / (z * z)) ** 0.75, 2.0**-12, 0.5, limit=200
        )
        assert partial > 1.0 / vals[-1] * 0.1

    def test_convergent_integral_duality(self):
        p = power1d(0.25, domain=(-1.0, 1.0))
        oracle, _ = quad(
            lambda z: ((1 + z * z) / (z * z)) ** 0.25, 0.0, 0.5, points=[0.0], limit=200
        )
        oracle *= 2.0  # both sides of the degeneracy
        g_fine = []
        for k in (11, 12):
            mesh = build_mesh(1, (-1.0, 1.0), 2**k)
            g_fine.append(cut_conductance(p, mesh, (-0.5, 0.5), 0.0))
        assert g_fine[-1] == pytest.approx(1.0 / oracle, rel=0.02)
        assert g_fine[-2] == pytest.approx(g_fine[-1], rel=0.02)

    def test_empty_face_set_rejected(self):
        mesh = build_mesh(1, (-1.0, 1.0), 16)
        with pytest.raises(ValueError):
            cut_conductance(power1d(0.0, domain=(-1.0, 1.0)), mesh, (0.001, 0.002), 0.0)


class TestMarkovCheck:
    def test_no_positive_offdiagonals(self):
        mesh = build_mesh(1, (-2.0, 2.0), 64)
        rep = markov_check(assemble(power1d(0.5, domain=(-2.0, 2.0)), mesh, 0.0))
        assert rep["max_positive_offdiag"] == 0.0

    def test_row_sums_telescope(self):
        mesh = build_mesh(2, (-2.0, 2.0), 16)
        p = CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-2.0, 2.0))
        rep = markov_check(assemble(p, mesh, 0.0))
        assert rep["max_row_sum"] <= 1e-13 * rep["norm_inf"]

    @pytest.mark.parametrize("profile, mesh", [
        (power1d(0.0, domain=(-1.0, 1.0)), build_mesh(1, (-1.0, 1.0), 64)),
        (power1d(0.5, domain=(-2.0, 2.0)), build_mesh(1, (-2.0, 2.0), 63)),
        (CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0),)), (-2.0, 2.0)),
         build_mesh(2, (-2.0, 2.0), 16)),
    ], ids=["laplacian-1d", "degenerate-1d", "degenerate-2d"])
    def test_gershgorin_bound_below_dense_eig(self, profile, mesh):
        op = assemble(profile, mesh, 0.0)
        lam = eigh(op.matrix.toarray(), eigvals_only=True)
        assert lam.min() >= -1e-10 * op.spectral_norm_bound
        rep = markov_check(op)
        assert rep["gershgorin_lower"] <= lam.min() + 1e-10
        assert rep["gershgorin_lower"] >= -1e-10 * op.spectral_norm_bound


def numpy_norm(v):
    return np.linalg.norm(v, axis=1)


def rho_reference(profile, pts):
    """rho_values in numpy's row reductions: np.linalg.norm and max(axis=1)."""
    fam = profile.family
    if isinstance(fam, PowerDegenerate):
        d = np.min([numpy_norm(pts - np.asarray(c)) for c in fam.centers], axis=0)
    else:
        r = numpy_norm(pts) if profile.dimension == 2 else np.abs(pts[:, 0])
        d = np.maximum(np.abs(r - fam.radius) - 0.5 * fam.width, 0.0)
    snap = 1e-13 * (1.0 + np.abs(pts).max(axis=1))
    return np.where(d <= snap, 0.0, d)


GEOMETRY_PROFILES = [
    CoefficientProfile(1, PowerDegenerate(0.5, ((0.0,), (1.25,))), (-2.0, 2.0)),
    CoefficientProfile(1, RadialShell(0.75, 1.0), (-2.0, 2.0)),
    CoefficientProfile(2, PowerDegenerate(0.5, ((0.0, 0.0), (0.5, -1.0))), (-2.0, 2.0)),
    CoefficientProfile(2, RadialShell(0.75, 1.0, width=0.125), (-2.0, 2.0)),
]
GEOMETRY_IDS = ["power-1d", "shell-1d", "power-2d", "shell-2d"]


class TestPerAxisGeometry:
    """The point geometry works one axis at a time; every value is bitwise
    numpy's row reduction (np.linalg.norm, max and all over axis 1)."""

    @pytest.mark.parametrize("profile", GEOMETRY_PROFILES, ids=GEOMETRY_IDS)
    def test_rho_values(self, profile):
        rng = np.random.default_rng(7)
        d, fam = profile.dimension, profile.family
        # random points, face midpoints, and points within a few 1e-13 of the
        # degeneracy set, where the snap to 0 decides
        mesh = build_mesh(d, (-2.0, 2.0), 48)
        if isinstance(fam, PowerDegenerate):
            near = np.repeat(np.asarray(fam.centers), 500, axis=0)
        else:
            edge = fam.radius + 0.5 * fam.width * rng.choice([-1.0, 1.0], 1000)
            angle = rng.uniform(0.0, 2.0 * np.pi, 1000)
            unit = np.stack([np.cos(angle), np.sin(angle)], axis=1) if d == 2 else np.ones((1000, 1))
            near = edge[:, None] * unit
        near = near + rng.uniform(-4e-13, 4e-13, near.shape)
        pts = np.vstack([rng.uniform(-2.0, 2.0, (5000, d)), mesh.points() + 0.5 * mesh.h, near])
        rho = profile.rho_values(pts)
        assert same_bits(rho, rho_reference(profile, pts))
        assert 0 < np.count_nonzero(rho[-near.shape[0]:] == 0.0) < near.shape[0]

    @pytest.mark.parametrize("profile", GEOMETRY_PROFILES, ids=GEOMETRY_IDS)
    def test_metric_graph_weights(self, profile, monkeypatch):
        mesh = build_mesh(profile.dimension, (-2.0, 2.0), 40)
        got = metric.metric_graph(profile, mesh, 1e-3)
        monkeypatch.setattr(metric, "row_norm", numpy_norm)
        monkeypatch.setattr(coeffs_mod, "row_norm", numpy_norm)
        want = metric.metric_graph(profile, mesh, 1e-3)
        assert same_bits(got.indptr, want.indptr) and same_bits(got.indices, want.indices)
        assert same_bits(got.data, want.data)

    @pytest.mark.parametrize("d", [1, 2])
    def test_box_mask(self, d):
        rng = np.random.default_rng(11)
        mesh = build_mesh(d, (-2.0, 2.0), 37)
        pts = mesh.points()
        for _ in range(20):
            b = np.sort(rng.uniform(-2.5, 2.5, (d, 2)), axis=1)
            want = np.all((pts >= b[:, 0]) & (pts <= b[:, 1]), axis=1)
            assert same_bits(mesh.box_mask(b), want)
        # a node on the box's edge is inside
        assert same_bits(mesh.box_mask(mesh.box), np.ones(mesh.size, dtype=bool))

    @pytest.mark.parametrize("d", [1, 2])
    def test_euclidean_ball(self, d):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2.0, 2.0, (5000, d))
        for _ in range(20):
            center, radius = rng.uniform(-1.0, 1.0, d), rng.uniform(0.1, 2.0)
            want = numpy_norm(pts - center) < radius
            got = scenarios._euclidean_ball(pts, None, center=list(center), radius=radius)
            assert same_bits(got, want)


def assemble_reference(profile, mesh, epsilon):
    """The CSR matrix of grid.assemble as COO triplets, four per face
    ((i, i), (j, j), (i, j), (j, i) for the faces i -- j, x faces before y
    faces), converted by scipy with duplicates summed: each diagonal adds the
    faces where the node is the lower end and then those where it is the
    upper end."""
    h, npa = mesh.h, mesh.points_per_axis
    if mesh.dimension == 1:
        xs = mesh.axis(0)
        g = (profile.scalar_values(0.5 * (xs[:-1] + xs[1:])) + epsilon) / h**2
        rows_i = np.arange(mesh.n)
        rows_j = rows_i + 1
    else:
        xs, ys = mesh.axis(0), mesh.axis(1)
        IX, IY = [a.ravel() for a in np.meshgrid(np.arange(mesh.n), np.arange(npa), indexing="ij")]
        gx = (profile.scalar_values(np.column_stack([0.5 * (xs[IX] + xs[IX + 1]), ys[IY]])) + epsilon) / h**2
        JX, JY = [a.ravel() for a in np.meshgrid(np.arange(npa), np.arange(mesh.n), indexing="ij")]
        gy = (profile.scalar_values(np.column_stack([xs[JX], 0.5 * (ys[JY] + ys[JY + 1])])) + epsilon) / h**2
        g = np.concatenate([gx, gy])
        rows_i = np.concatenate([IX * npa + IY, JX * npa + JY])
        rows_j = np.concatenate([(IX + 1) * npa + IY, JX * npa + JY + 1])
    N = mesh.size
    rows = np.concatenate([rows_i, rows_j, rows_i, rows_j])
    cols = np.concatenate([rows_i, rows_j, rows_j, rows_i])
    A = sp.coo_matrix((np.concatenate([g, g, -g, -g]), (rows, cols)), shape=(N, N)).tocsr()
    A.sum_duplicates()
    return A


def same_csr(a, b):
    return a.shape == b.shape and all(
        same_bits(x, y) for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))
    )


def scenario_at(doc, n=None):
    """The profile, mesh and epsilons of a scenario document, at n cells per
    axis when n is given."""
    if n is not None:
        doc["mesh"]["n"] = n
    ctx = scenarios.ScenarioContext(doc)
    return ctx.profile, ctx.mesh, ctx.epsilons


def explicit_negative_zeros(A):
    return int(np.count_nonzero(np.signbit(A.data) & (A.data == 0.0)))


class TestDirectCsr:
    """grid.assemble writes the CSR arrays directly, bitwise the COO
    conversion of assemble_reference: data, int32 indices and indptr."""

    @pytest.mark.parametrize("name, n, cut", [
        ("laplacian1d", 512, False),
        ("degenerate1d-d025", 256, False),
        ("degenerate1d-d05", 256, False),
        ("degenerate1d-d075-cut", 255, True),
        ("double-zero", 340, True),
        ("resolvent-volume", 512, False),
        ("laplacian1d-largetime", 512, False),
        ("radial-shell-2d", 48, True),
        ("surface-2d", 48, False),
    ])
    def test_builtins_at_reduced_n(self, name, n, cut):
        # cut: exact zero conductances, written as explicit -0.0 couplings
        profile, mesh, epsilons = scenario_at(scenarios.builtin_by_name(name), n)
        for epsilon in list(epsilons) + [1e-3]:
            A = assemble(profile, mesh, epsilon).matrix
            assert same_csr(A, assemble_reference(profile, mesh, epsilon))
            assert A.indices.dtype == A.indptr.dtype == np.int32 and A.data.dtype == np.float64
            assert explicit_negative_zeros(A) > 0 if cut and epsilon == 0.0 else explicit_negative_zeros(A) == 0

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_benchmark_scenario(self, epsilon):
        profile, mesh, _ = scenario_at(bench_scenario())
        A = assemble(profile, mesh, epsilon).matrix
        assert same_csr(A, assemble_reference(profile, mesh, epsilon))

    def test_assembly_peak_is_a_few_matrices(self):
        # tracemalloc sees numpy's buffers.  At n = 256 the direct build
        # holds the face conductances, an (N, 5) slot array of values, its
        # mask and columns, and the CSR arrays: about 2.6 times the matrix's
        # bytes here.  The COO conversion holds about 8 times
        profile, mesh, _ = scenario_at(bench_scenario(), 256)
        A = assemble(profile, mesh, 0.0).matrix
        size = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        assert traced_peak(lambda: assemble(profile, mesh, 0.0)) < 4 * size
        assert traced_peak(lambda: assemble_reference(profile, mesh, 0.0)) > 4 * size
