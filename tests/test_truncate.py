import numpy as np
import pytest

from compactness_lab.grid import Grid, ScalarField
from compactness_lab.truncate import (Nonlinearity, build_beta,
                                      chain_gradient_check,
                                      nonlinearity_preset)
from conftest import IDENTITY


def validate(phi, span=(-3.0, 3.0)):
    """Check the declared critical set: dphi vanishes at the declared points
    and nowhere between them, and psi' = phi by central differences (1e-6
    relative)."""
    for z in phi.critical_points:
        if abs(phi.dphi(np.array([z]))[0]) > 1e-10:
            raise ValueError(f"declared critical point {z} has dphi != 0")
    knots = [span[0], *phi.critical_points, span[1]]
    for a, b in zip(knots[:-1], knots[1:]):
        zz = np.linspace(a, b, 64)[1:-1]
        if b - a >= 1e-12 and np.any(np.abs(phi.dphi(zz)) < 1e-14):
            raise ValueError(f"dphi vanishes between declared critical points in ({a}, {b})")
    zz = np.linspace(span[0], span[1], 2001)
    h = 1e-5
    fd = (phi.psi(zz + h) - phi.psi(zz - h)) / (2 * h)
    scale = np.max(np.abs(phi.phi(zz))) + 1.0
    if np.max(np.abs(fd - phi.phi(zz))) / scale > 1e-6:
        raise ValueError("psi is not an anti-derivative of phi (finite-difference check)")


def two_well():
    # dphi = z^2 (z - 0.3)^2, critical points at 0 and 0.3
    def phi(z):
        z = np.asarray(z, dtype=float)
        return z ** 5 / 5 - 0.15 * z ** 4 + 0.03 * z ** 3

    def dphi(z):
        z = np.asarray(z, dtype=float)
        return (z * (z - 0.3)) ** 2

    def psi(z):
        z = np.asarray(z, dtype=float)
        return z ** 6 / 30 - 0.03 * z ** 5 + 0.0075 * z ** 4

    return Nonlinearity(phi, dphi, psi, (0.0, 0.3))


def test_presets_validate():
    validate(IDENTITY)
    for name in ("cubic", "porous:2", "porous:1.5"):
        validate(nonlinearity_preset(name))


def test_preset_errors():
    with pytest.raises(ValueError):
        nonlinearity_preset("porous:1")
    with pytest.raises(ValueError):
        nonlinearity_preset("unknown")


def test_declared_critical_point_checked():
    bad = Nonlinearity(lambda z: np.asarray(z, float),
                       lambda z: np.ones_like(np.asarray(z, float)),
                       lambda z: np.asarray(z, float) ** 2 / 2,
                       (0.0,))
    with pytest.raises(ValueError):
        validate(bad)


def test_beta_graft_zone_cubic():
    beta = build_beta(nonlinearity_preset("cubic"), 0.2)
    assert beta(0.05) == pytest.approx(0.05 ** 3, rel=1e-14)
    assert beta(-0.08) == pytest.approx((-0.08) ** 3, rel=1e-14)


def test_beta_identity_zone_bitwise():
    beta = build_beta(nonlinearity_preset("cubic"), 0.2)
    z = np.array([0.5, -1.3, 7.0, 0.2000000001])
    assert np.array_equal(beta(z), z)
    assert beta(0.5) == 0.5


def test_beta_junction_smoothness():
    for name in ("cubic", "porous:2"):
        for eps in (0.2, 0.1, 0.05):
            beta = build_beta(nonlinearity_preset(name), eps)
            jv, jd = beta.junction_mismatch()
            assert jv <= 1e-10 and jd <= 1e-10


def test_beta_deviation_constant_stable():
    # sup|beta - Id| <= C eps with one C across the eps sweep (within 20%)
    for name in ("cubic", "porous:2"):
        phi = nonlinearity_preset(name)
        consts = [build_beta(phi, eps).deviation_constant for eps in (0.2, 0.1, 0.05)]
        assert max(consts) / min(consts) <= 1.2


def test_beta_deviation_against_dense_oracle():
    beta = build_beta(nonlinearity_preset("cubic"), 0.2)
    zz = np.linspace(-0.25, 0.25, 100001)
    sup = np.max(np.abs(beta(zz) - zz))
    assert sup <= beta.deviation_constant * 0.2 * (1 + 1e-12)
    assert sup >= beta.deviation_constant * 0.2 * (1 - 1e-3)


def test_beta_monotone_on_blend():
    beta = build_beta(nonlinearity_preset("cubic"), 0.2)
    zz = np.linspace(0.1, 0.2, 20001)
    assert np.all(np.diff(beta(zz)) >= -1e-14)


def test_beta_bounded_derivative():
    beta = build_beta(nonlinearity_preset("porous:2"), 0.1)
    zz = np.linspace(-2.0, 2.0, 40001)
    _, derivative = beta._pieces(zz, want_derivative=True)
    assert np.max(np.abs(derivative)) <= beta.sup_slope + 1e-9


def test_beta_rejects_bad_eps():
    phi = nonlinearity_preset("cubic")
    with pytest.raises(ValueError):
        build_beta(phi, 0.0)
    with pytest.raises(ValueError):
        build_beta(phi, -0.1)


def test_beta_rejects_overlapping_intervals():
    phi = two_well()
    validate(phi, span=(-1.0, 1.0))
    with pytest.raises(ValueError):
        build_beta(phi, 0.2)
    build_beta(phi, 0.1)  # disjoint intervals are fine


def test_chain_gradient_constant_field():
    g = Grid((64,), (1.0,))
    phi = nonlinearity_preset("cubic")
    beta = build_beta(phi, 0.2)
    rep = chain_gradient_check(ScalarField.constant(g, 0.7), beta, phi)
    assert rep.outer_violations == 0
    assert rep.inner_max_abs_err == 0.0


def test_chain_gradient_linear_field_zones():
    # u(x) = x on [0,1] with eps = 0.2: the graft zone is u < 0.1
    g = Grid((512,), (1.0,))
    phi = nonlinearity_preset("cubic")
    beta = build_beta(phi, 0.2)
    u = ScalarField.from_function(g, lambda p: p[:, 0])
    rep = chain_gradient_check(u, beta, phi)
    assert rep.inner_max_abs_err <= 1e-12
    assert rep.outer_violations == 0
    # zone sizes: ~51 cells below 0.1, ~409 above 0.2 (graft/identity bands)
    assert 45 <= rep.n_inner_faces <= 56
    assert rep.n_outer_faces >= 380


def test_chain_gradient_random_smooth():
    g = Grid((512,), (1.0,))
    phi = nonlinearity_preset("cubic")
    beta = build_beta(phi, 0.2)
    u = ScalarField.from_function(
        g, lambda p: 0.8 * np.sin(2 * np.pi * p[:, 0]) + 0.3 * np.cos(6 * np.pi * p[:, 0]))
    rep = chain_gradient_check(u, beta, phi)
    assert rep.outer_violations == 0
