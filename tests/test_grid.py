import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compactness_lab.grid import (DirichletEigenbasis, Grid, RasterDomain,
                                  ScalarField, StaggeredVectorField,
                                  _check_order, dirichlet_factor,
                                  dirichlet_laplacian, divergence, face_masks,
                                  gradient, h_minus_m_norm, inner, lp_norm,
                                  neumann_laplacian, read_grid_file,
                                  staggered_inner, staggered_l2,
                                  write_grid_file)
from compactness_lab.movedom import make_domain


def h_m_norm_dual_weight(phi, m, factor):
    """Oracle: (vol phi^T (I+L)^m phi)^{1/2} = (sum_k (1+lambda_k)^m |<phi,e_k>|^2)^{1/2},
    the dual side of the H^{-m} pairing bound, by matrix-vector products with
    the matrix of the raster's `dirichlet_factor`."""
    _check_order(m)
    A = factor.matrix
    w = phi.values[factor.inside]
    for _ in range(m // 2):
        w = A @ w
    s = w @ (A @ w) if m % 2 else w @ w
    return float(np.sqrt(s * factor.grid.cell_volume))


def test_grid_invariants():
    g = Grid((64, 32), (2.0, 1.0))
    assert g.dim == 2
    assert g.spacing == (2.0 / 64, 1.0 / 32)
    assert g.n_cells == 64 * 32
    with pytest.raises(ValueError):
        Grid((0,), (1.0,))
    with pytest.raises(ValueError):
        Grid((8, 8), (1.0, -1.0))


def test_lp_norm_zero_field():
    g = Grid((32, 32), (1.0, 1.0))
    assert lp_norm(ScalarField.constant(g, 0.0), 2) == 0.0


def test_lp_norm_unit_constant_unit_square():
    g = Grid((64, 64), (1.0, 1.0))
    assert lp_norm(ScalarField.constant(g, 1.0), 2) == pytest.approx(1.0, abs=1e-14)


def test_lp_norm_sine_analytic():
    # integral of sin^2 over [0,1] is 1/2; midpoint rule is exact enough at 1024
    for cells in (512, 1024):
        g = Grid((cells,), (1.0,))
        f = ScalarField.from_function(g, lambda p: np.sin(2 * np.pi * p[:, 0]))
        assert lp_norm(f, 2) == pytest.approx(1 / np.sqrt(2), abs=1e-4)


def test_lp_norm_rejects_bad_exponent():
    g = Grid((8,), (1.0,))
    with pytest.raises(ValueError):
        lp_norm(ScalarField.constant(g, 1.0), 0.5)


def test_lp_norm_inf():
    g = Grid((16,), (1.0,))
    f = ScalarField(g, np.linspace(-3.0, 2.0, 16))
    assert lp_norm(f, np.inf) == 3.0


def test_quadrature_consistency_on_raster():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    mu = disk.measure
    for p in (1, 2, 3):
        f = ScalarField.constant(g, -2.5, mask=disk)
        assert lp_norm(f, p) == pytest.approx(2.5 * mu ** (1.0 / p), rel=1e-12)


def test_gradient_of_constant_vanishes():
    g = Grid((32, 32), (1.0, 1.0))
    grad = gradient(ScalarField.constant(g, 4.2))
    assert all(np.max(np.abs(c)) == 0.0 for c in grad.components)


def test_divergence_of_constant_field():
    g = Grid((32, 32), (1.0, 1.0))
    u = StaggeredVectorField.constant(g, (1.0, 0.0))
    assert np.max(np.abs(divergence(u).values)) == 0.0


def test_gradient_linear_exact():
    g = Grid((32, 32), (1.0, 1.0))
    f = ScalarField.from_function(g, lambda p: p[:, 0])
    grad = gradient(f)
    assert np.allclose(grad.components[0][1:-1, :], 1.0, atol=1e-13)
    assert np.max(np.abs(grad.components[1])) < 1e-13


def test_gradient_divergence_skew_adjoint():
    # <div u, f> = -<u, grad f> exactly for zero-boundary face data
    g = Grid((24, 40), (1.0, 2.0))
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.normal(size=g.shape))
    ux = rng.normal(size=(25, 40))
    uy = rng.normal(size=(24, 41))
    ux[0, :] = ux[-1, :] = 0.0
    uy[:, 0] = uy[:, -1] = 0.0
    u = StaggeredVectorField(g, (ux, uy))
    lhs = inner(divergence(u), f)
    rhs = -staggered_inner(u, gradient(f))
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gradient_divergence_skew_adjoint_on_random_rasters(data):
    # summation by parts on the MAC grid (Harlow & Welch, Phys. Fluids 8, 1965):
    # <grad p, u> = -<p, div u> for any p when u has zero normal trace on the
    # raster, i.e. vanishes on every face that does not join two inside cells
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 12)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    inside = data.draw(hnp.arrays(bool, shape))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = Grid(shape, extent)
    d = RasterDomain(g, inside)
    p = ScalarField(g, rng.normal(size=shape))
    u = StaggeredVectorField(g, tuple(np.where(interior, rng.normal(size=interior.shape), 0.0)
                                      for interior, _, _ in d.face_masks))
    grad, div = gradient(p), divergence(u)
    lhs = staggered_inner(grad, u)
    rhs = -inner(p, div)
    scale = g.cell_volume * (sum(np.sum(np.abs(a * b)) for a, b in zip(grad.components, u.components))
                             + np.sum(np.abs(p.values * div.values)))
    assert abs(lhs - rhs) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_neumann_laplacian_is_minus_div_grad(data):
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    inside = data.draw(hnp.arrays(bool, shape).filter(np.any))
    vals = data.draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    g = Grid(shape, extent)
    d = RasterDomain(g, inside)
    v = ScalarField(g, vals, mask=d)
    L = neumann_laplacian(d)
    lhs = -(L @ v.values[inside])
    rhs = divergence(gradient(v)).values[inside]
    scale = float(np.max(abs(L) @ np.abs(v.values[inside])))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def _float_face_masks(inside):
    # oracle: (interior, boundary) as floats from the cells on either side of
    # each face, the grid edges padded as outside
    out = []
    for a in range(inside.ndim):
        pad = np.pad(inside.astype(float), [(int(b == a),) * 2 for b in range(inside.ndim)])
        low, high = np.delete(pad, -1, axis=a), np.delete(pad, 0, axis=a)
        out.append((low * high, np.abs(low - high)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_face_masks_are_built_once_read_only_and_exact(data):
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    inside = data.draw(hnp.arrays(bool, shape))
    g = Grid(shape, extent)
    d = RasterDomain(g, inside)
    for owner, cells in ((d, inside), (g, np.ones(shape, dtype=bool))):
        cached = owner.face_masks
        assert owner.face_masks is cached
        for got, fresh in zip(cached, face_masks(cells), strict=True):
            for a, b in zip(got, fresh, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert not a.flags.writeable
    faces = [shape[:a] + (shape[a] + 1,) + shape[a + 1:] for a in range(dim)]
    draw = [tuple(data.draw(hnp.arrays(float, fs, elements=st.floats(-1e3, 1e3))) for fs in faces)
            for _ in range(2)]
    vol = g.cell_volume
    for mask, cells in ((d, inside), (None, np.ones(shape, dtype=bool))):
        u, v = (StaggeredVectorField(g, comps, mask=mask) for comps in draw)
        w = [interior * vol + boundary * (vol / 2) for interior, boundary in _float_face_masks(cells)]
        l2 = float(np.sqrt(sum(np.sum(wa * c ** 2) for wa, c in zip(w, u.components))))
        pair = float(sum(np.sum(wa * a * b) for wa, a, b in zip(w, u.components, v.components)))
        assert staggered_l2(u) == l2
        assert staggered_inner(u, v) == pair


def test_gradient_never_crosses_mask():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    f = ScalarField.constant(g, 1.0, mask=disk)
    grad = gradient(f)
    # inside the mask f is constant, so every face value must vanish: faces
    # crossing the boundary would otherwise see the 1 -> 0 jump
    assert all(np.max(np.abs(c)) == 0.0 for c in grad.components)


def _arrays(field):
    return [field.values] if isinstance(field, ScalarField) else list(field.components)


def _on_raster(field, inside):
    """Per array of `field`, where it lies on the raster `inside`: the inside
    cells, or the faces next to an inside cell (from the float oracle)."""
    if isinstance(field, ScalarField):
        return [inside]
    return [interior + boundary > 0 for interior, boundary in _float_face_masks(inside)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_masked_cells_hold_exact_zero(data):
    # one mask rule for cell and face fields: a field with a mask holds exact 0
    # on every cell outside its raster and on every face next to no inside
    # cell, whichever operation made it, and `restricted` only re-masks; a sum
    # or difference of fields on two rasters carries no mask and is exact
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    g = Grid(shape, tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim)))
    d, other = (RasterDomain(g, data.draw(hnp.arrays(bool, shape))) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    faces = [shape[:a] + (shape[a] + 1,) + shape[a + 1:] for a in range(dim)]
    s = data.draw(st.floats(-1e3, 1e3))

    def scalar(mask=None):
        return ScalarField(g, rng.normal(size=shape), mask=mask)

    def vector(mask=None):
        return StaggeredVectorField(g, tuple(rng.normal(size=fs) for fs in faces), mask=mask)

    foreign = RasterDomain.full(Grid(tuple(n + 1 for n in shape), g.extent))
    f = scalar(d)
    made = [(gradient(f), d)]
    for field, unmasked in ((f, scalar()), (vector(d), vector())):
        made += [(field, d), (field.restricted(other), other)]
        made += [(x, d) for x in (field - unmasked, field + unmasked,
                                  field - unmasked.restricted(d), field * s, s * field)]
        on_other = unmasked.restricted(other)
        for mixed, op in ((field - on_other, np.subtract), (field + on_other, np.add)):
            assert mixed.mask is None
            for got, a, b in zip(_arrays(mixed), _arrays(field), _arrays(on_other)):
                assert got.tobytes() == op(a, b).tobytes()
        once = field.restricted(other)
        for got, twice, was, on in zip(_arrays(once), _arrays(once.restricted(other)),
                                       _arrays(field), _on_raster(field, other.inside)):
            assert got.tobytes() == twice.tobytes() == np.where(on, was, 0.0).tobytes()
        with pytest.raises(ValueError, match="mask grid"):
            field.restricted(foreign)
    for field, domain in made:
        assert field.mask is domain
        for values, on in zip(_arrays(field), _on_raster(field, domain.inside)):
            assert np.all(values[~on] == 0.0)


def test_h_minus_m_zero_field():
    g = Grid((64,), (1.0,))
    d = RasterDomain.full(g)
    assert h_minus_m_norm(ScalarField.constant(g, 0.0), 2, dirichlet_factor(d)) == 0.0


def test_h_minus_m_m0_equals_l2():
    g = Grid((48, 48), (1.0, 1.0))
    d = make_domain("disk:0.35", g)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.normal(size=g.shape), mask=d)
    assert h_minus_m_norm(f, 0, dirichlet_factor(d)) == pytest.approx(lp_norm(f, 2), rel=1e-10)


def test_h_minus_m_first_eigenfunction():
    # oracle: dense eigensolve on a small grid, run before trusting the library path
    g = Grid((256,), (1.0,))
    d = RasterDomain.full(g)
    L = dirichlet_laplacian(d)
    lam, vec = scipy.linalg.eigh(L.toarray())
    vol = g.cell_volume
    e1 = vec[:, 0] / np.sqrt(vol)
    f = ScalarField(g, e1)
    expected = lp_norm(f, 2) / np.sqrt(1.0 + lam[0])
    factor = dirichlet_factor(d)
    assert h_minus_m_norm(f, 1, factor) == pytest.approx(expected, rel=1e-10)
    # the analytic eigenfunction sin(pi x) against the analytic eigenvalue pi^2
    f_sin = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    target = lp_norm(f_sin, 2) / np.sqrt(1.0 + np.pi ** 2)
    assert h_minus_m_norm(f_sin, 1, factor) == pytest.approx(target, rel=0.01)


def test_h_minus_m_monotone_in_m():
    g = Grid((40, 40), (1.0, 1.0))
    d = make_domain("disk:0.4", g)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.normal(size=g.shape), mask=d)
    factor = dirichlet_factor(d)
    vals = [h_minus_m_norm(f, m, factor) for m in range(4)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:]))


def test_h_minus_m_duality_bound():
    g = Grid((32, 32), (1.0, 1.0))
    d = make_domain("disk:0.4", g)
    factor = dirichlet_factor(d)
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = ScalarField(g, rng.normal(size=g.shape), mask=d)
        phi = ScalarField(g, rng.normal(size=g.shape), mask=d)
        lhs = abs(inner(f, phi))
        m = 2
        rhs = h_minus_m_norm(f, m, factor) * h_m_norm_dual_weight(phi, m, factor)
        assert rhs - lhs >= -1e-9 * (rhs + 1.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_h_minus_m_norm_matches_dense_eigenbasis(data):
    # oracle: the spectral sums over every pair of a dense eigensolve
    dim = data.draw(st.integers(1, 2))
    shape = ((data.draw(st.integers(1, 400)),) if dim == 1
             else tuple(data.draw(st.integers(1, 20)) for _ in range(2)))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    inside = data.draw(hnp.arrays(bool, shape).filter(np.any))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    g = Grid(shape, extent)
    d = RasterDomain(g, inside)
    rng = np.random.default_rng(seed)
    f = ScalarField(g, rng.normal(size=shape), mask=d)
    phi = ScalarField(g, rng.normal(size=shape), mask=d)
    basis = DirichletEigenbasis(d)
    factor = dirichlet_factor(d)
    shifted = 1.0 + basis.eigenvalues
    cf, cphi = basis.coefficients(f), basis.coefficients(phi)
    for m in range(4):
        norm, weight = h_minus_m_norm(f, m, factor), h_m_norm_dual_weight(phi, m, factor)
        assert norm == pytest.approx(np.sqrt(np.sum(shifted ** -m * cf ** 2)), rel=1e-10)
        assert weight == pytest.approx(np.sqrt(np.sum(shifted ** m * cphi ** 2)), rel=1e-10)
        assert abs(inner(f, phi)) <= norm * weight * (1 + 1e-12)


@pytest.mark.parametrize("norm", [h_minus_m_norm, h_m_norm_dual_weight])
def test_h_minus_m_rejects_bad_order_and_empty_domain(norm):
    g = Grid((8, 8), (1.0, 1.0))
    factor = dirichlet_factor(RasterDomain.full(g))
    f = ScalarField.constant(g, 1.0)
    for m in (1.5, -1):
        with pytest.raises(ValueError, match="integer"):
            norm(f, m, factor)
    empty = RasterDomain(g, np.zeros(g.shape, dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        norm(f, 1, dirichlet_factor(empty))


def test_grid_file_roundtrip(tmp_path):
    g = Grid((16, 8), (2.0, 1.0))
    rng = np.random.default_rng(6)
    f = ScalarField(g, rng.normal(size=g.shape))
    path = tmp_path / "field.grid"
    write_grid_file(path, f)
    back = read_grid_file(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_grid_reader_names_wrong_value_count(tmp_path):
    g = Grid((4, 3), (2.0, 1.0))
    path = tmp_path / "field.grid"
    write_grid_file(path, ScalarField.constant(g, 1.5))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2]))
    with pytest.raises(ValueError, match="field.grid: expected 12 values.*found 10"):
        read_grid_file(path)
    path.write_text("".join(lines) + "2.5\n")
    with pytest.raises(ValueError, match="field.grid: expected 12 values.*found 13"):
        read_grid_file(path)
