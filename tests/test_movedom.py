import numpy as np
import pytest
import scipy.linalg

from compactness_lab.grid import (Grid, RasterDomain, ScalarField, gradient,
                                  lp_norm, neumann_laplacian, staggered_l2)
from compactness_lab.movedom import (NonCylindricalDomain, bilipschitz,
                                     eps_exterior, eps_interior, framing_check,
                                     grad_sup_norm, jacobian_bounds,
                                     make_domain, make_family,
                                     measure_sobolev_constant, peel_measure,
                                     poincare_constant,
                                     sobolev_embedding_exponent,
                                     sobolev_transport_constant,
                                     transported_poincare,
                                     uniform_poincare_sweep)
from compactness_lab.synth import generator, mean_zero, random_smooth_field


GRID_256 = Grid((256, 256), (1.0, 1.0))


def test_eps_interior_disk_matches_analytic():
    disk = make_domain("disk:0.4", GRID_256)
    eroded = eps_interior(disk, 0.1)
    target = make_domain("disk:0.3", GRID_256)
    sym = eroded.inside ^ target.inside
    if np.any(sym):
        assert np.max(np.abs(target.signed_distance[sym])) <= 2.0 / 256


def test_eps_interior_zero_is_identity():
    disk = make_domain("disk:0.4", GRID_256)
    assert eps_interior(disk, 0.0) is disk


def test_eps_interior_empty_when_eps_exceeds_inradius():
    disk = make_domain("disk:0.4", GRID_256)
    assert eps_interior(disk, 0.5).n_inside == 0


def test_eps_semigroup_one_cell_band():
    disk = make_domain("disk:0.4", GRID_256)
    chained = eps_interior(eps_interior(disk, 0.05), 0.05)
    direct = eps_interior(disk, 0.1)
    sym = chained.inside ^ direct.inside
    band = 2.0 * max(GRID_256.spacing)
    off_band = np.count_nonzero(sym & (np.abs(disk.signed_distance - 0.1) > band))
    assert off_band == 0


def test_erosion_monotone():
    disk = make_domain("disk:0.4", GRID_256)
    a = eps_interior(disk, 0.02)
    b = eps_interior(disk, 0.08)
    assert not np.any(b.inside & ~a.inside)


def test_duality_band_closing_contains():
    disk = make_domain("disk:0.35", GRID_256)
    closed = eps_interior(eps_exterior(disk, 0.07), 0.07)
    assert not np.any(disk.inside & ~closed.inside)


def test_jacobian_bounds_identity_and_rotation():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    for fam in (make_family("identity", (0.0, 1.0)),
                make_family("rotation", (0.0, 1.0), omega=2.0, center=(0.5, 0.5))):
        jb = jacobian_bounds(fam, disk)
        assert jb.raw_min == pytest.approx(1.0, abs=1e-12)
        assert jb.raw_max == pytest.approx(1.0, abs=1e-12)


def test_jacobian_bounds_dilation_closed_form():
    # det = (1 + 0.25 sin t)^2 over a full period
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    jb = jacobian_bounds(fam, disk)
    assert jb.raw_min == pytest.approx(0.75 ** 2, rel=1e-3)
    assert jb.raw_max == pytest.approx(1.25 ** 2, rel=1e-3)
    assert jb.alpha <= jb.raw_min and jb.beta >= jb.raw_max


def test_bilipschitz_presets():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    assert bilipschitz(make_family("identity", (0.0, 1.0)), disk).K == pytest.approx(1.0, abs=1e-12)
    assert bilipschitz(make_family("translation", (0.0, 1.0), velocity=(0.3, 0.1)),
                       disk).K == pytest.approx(1.0, abs=1e-12)
    info = bilipschitz(make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25,
                                   center=(0.5, 0.5)), disk)
    assert info.K == pytest.approx(4.0 / 3.0, rel=1e-2)
    assert info.eta == pytest.approx(1.0 / info.K)


def test_family_inverse_and_continuity():
    g = Grid((32, 32), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    pts = g.cell_centers().reshape(-1, 2)[disk.inside.reshape(-1)][::7]
    for name, kwargs in (("rotation", dict(omega=1.5, center=(0.5, 0.5))),
                         ("dilation", dict(amplitude=0.2, center=(0.5, 0.5))),
                         ("shear", dict(amplitude=0.3))):
        fam = make_family(name, (0.0, 1.0), **kwargs)
        assert fam.check_inverse(pts) <= 1e-9
        coarse, fine = fam.grad_continuity_modulus(pts)
        assert fine <= coarse * 0.75 + 1e-12


def test_framing_identity_is_equality():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    rep = framing_check(make_family("identity", (0.0, 1.0)), disk, 0.1, n_slices=4)
    assert rep.inner_violations == 0 and rep.outer_violations == 0


def test_framing_translation_and_dilation():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    tra = make_family("translation", (0.0, 1.0), velocity=(0.05, 0.02))
    rep = framing_check(tra, disk, 0.1, n_slices=8)
    assert rep.ok
    dil = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    rep2 = framing_check(dil, make_domain("disk:0.25", g), 0.05, n_slices=8)
    assert rep2.ok


def test_peel_measure_zero_eps():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    nc = NonCylindricalDomain(make_family("identity", (0.0, 1.0)), disk, 4)
    assert peel_measure(nc, 0.0).measured_sup == 0.0


def test_peel_measure_identity_annulus():
    disk = make_domain("disk:0.4", GRID_256)
    nc = NonCylindricalDomain(make_family("identity", (0.0, 1.0)), disk, 4)
    rep = peel_measure(nc, 0.1)
    assert rep.measured_sup == pytest.approx(np.pi * (0.4 ** 2 - 0.3 ** 2), rel=0.02)
    assert rep.ok


def test_peel_measure_dilation_bound_sweep():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.25", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    nc = NonCylindricalDomain(fam, disk, 16)
    jb = jacobian_bounds(fam, disk)
    for eps in (0.03, 0.06, 0.12):
        rep = peel_measure(nc, eps, jb=jb)
        assert rep.measured_sup <= rep.bound * 1.02


def test_poincare_unit_square_analytic():
    g = Grid((128, 128), (1.0, 1.0))
    c = poincare_constant(make_domain("square:1.0", g))
    assert c == pytest.approx(1.0 / np.pi, rel=0.01)


def test_poincare_dense_cross_check_32():
    # oracle: dense eigensolve of the same Neumann matrix at 32x32
    g = Grid((32, 32), (1.0, 1.0))
    d = make_domain("square:1.0", g)
    L, _ = neumann_laplacian(d)
    lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)
    lam1 = lam[1]
    assert poincare_constant(d) == pytest.approx(1.0 / np.sqrt(lam1), rel=1e-9)


def test_poincare_unit_interval():
    g = Grid((1024,), (1.0,))
    c = poincare_constant(RasterDomain.full(g))
    assert c == pytest.approx(1.0 / np.pi, rel=0.01)


def test_poincare_disconnected_raises():
    g = Grid((8,), (1.0,))
    mem = np.zeros(8, bool)
    mem[1] = mem[6] = True
    with pytest.raises(ValueError):
        poincare_constant(RasterDomain.from_membership(g, mem))


def test_poincare_inequality_random_fields():
    g = Grid((48, 48), (1.0, 1.0))
    d = eps_interior(make_domain("disk:0.4", g), 0.05)
    c = poincare_constant(d)
    rng = generator(9)
    for _ in range(50):
        v = mean_zero(random_smooth_field(g, rng, modes=4, mask=d))
        grad_norm = staggered_l2(gradient(v))
        assert lp_norm(v, 2) <= c * grad_norm * (1 + 1e-6)


def test_uniform_poincare_sweep_square():
    g = Grid((96, 96), (1.0, 1.0))
    sq = make_domain("square:1.0", g)
    sweep = uniform_poincare_sweep(sq, (0.0, 0.05, 0.1))
    spread = (max(sweep.constants) - min(sweep.constants)) / max(sweep.constants)
    assert spread <= 0.25
    assert sweep.c_max == max(sweep.constants)


def test_transported_poincare_identity():
    g = Grid((64, 64), (1.0, 1.0))
    sq = make_domain("square:0.8", g)
    fam = make_family("identity", (0.0, 1.0))
    sweep = uniform_poincare_sweep(sq, (0.0, 0.05, 0.1))
    assert transported_poincare(fam, sq, 0.2, eps_list=(0.0, 0.05, 0.1)) == pytest.approx(
        sweep.c_max, rel=1e-9)


def test_transported_poincare_dilation_formula():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    sweep = uniform_poincare_sweep(disk, (0.0, 0.05))
    jb = jacobian_bounds(fam, disk)
    got = transported_poincare(fam, disk, 0.1, eps_list=(0.0, 0.05), jb=jb)
    expected = np.sqrt(jb.raw_max / jb.raw_min) * sweep.c_max * grad_sup_norm(fam, disk)
    assert got == pytest.approx(expected, rel=1e-9)
    # closed form: sup scale 1.25, alpha ~ 0.75^2, beta ~ 1.25^2 up to safety factors
    assert grad_sup_norm(fam, disk) == pytest.approx(1.25, rel=1e-3)


def test_sobolev_exponents():
    assert sobolev_embedding_exponent(1, 2) == pytest.approx(2.0)
    assert sobolev_embedding_exponent(1.5, 2) == pytest.approx(6.0)
    # at and above the critical exponent: the p+1 surrogate
    assert sobolev_embedding_exponent(2, 2) == pytest.approx(3.0)
    assert sobolev_embedding_exponent(3, 2) == pytest.approx(4.0)


def test_sobolev_transport_identity_and_dilation():
    g = Grid((48, 48), (1.0, 1.0))
    sq = make_domain("square:0.9", g)
    fam_id = make_family("identity", (0.0, 1.0))
    s_ref = measure_sobolev_constant(sq, 2, n_fields=10)
    assert sobolev_transport_constant(2, fam_id, sq, s_ref=s_ref) == pytest.approx(s_ref, rel=1e-12)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    jb = jacobian_bounds(fam, sq)
    # p=1 in 2D: K_1 = S beta^{1/2} alpha^{-1}
    got = sobolev_transport_constant(1, fam, sq, s_ref=s_ref, jb=jb)
    assert got == pytest.approx(s_ref * jb.raw_max ** 0.5 / jb.raw_min, rel=1e-12)


def test_change_of_variable_norm_transport():
    # ||u||^2_{L2(Omega_t)} within [alpha, beta] of ||u o A_t||^2_{L2(Omega)} (2% quadrature)
    g = Grid((256, 256), (1.0, 1.0))
    disk = make_domain("disk:0.25", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.2, center=(0.5, 0.5))
    jb = jacobian_bounds(fam, disk)
    nc = NonCylindricalDomain(fam, disk, 6)
    rng = generator(21)

    def u_fn(pts):
        return (np.sin(3 * pts[:, 0] + 1.0) * np.cos(2 * pts[:, 1])
                + 0.5 * np.cos(5 * pts[:, 0] * pts[:, 1]))

    centers = g.cell_centers().reshape(-1, 2)
    for k in (0, 3, 5):
        t = nc.slice_times()[k]
        slice_r = nc.slice_raster(k)
        vals_t = u_fn(centers).reshape(g.shape)
        norm_t = lp_norm(ScalarField(g, vals_t, mask=slice_r), 2) ** 2
        pulled = ScalarField(g, u_fn(fam.forward(t, centers)).reshape(g.shape), mask=disk)
        norm_ref = lp_norm(pulled, 2) ** 2
        assert jb.alpha * norm_ref * 0.98 <= norm_t <= jb.beta * norm_ref * 1.02


def test_nc_domain_slice_consistency():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("translation", (0.0, 1.0), velocity=(0.1, 0.0))
    nc = NonCylindricalDomain(fam, disk, 8)
    # slice measure stays within a band of the reference measure (isometry)
    for k in (0, 4, 7):
        assert nc.slice_raster(k).measure == pytest.approx(disk.measure, rel=0.02)


def test_domain_preset_errors():
    g = Grid((32, 32), (1.0, 1.0))
    with pytest.raises(ValueError):
        make_domain("pentagon:1", g)
    with pytest.raises(ValueError):
        make_family("warp", (0.0, 1.0))
