import numpy as np
import pytest
import scipy.linalg
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compactness_lab.grid import (Grid, RasterDomain, ScalarField, gradient,
                                  lp_norm, neumann_laplacian,
                                  signed_distance_transform, staggered_l2)
from compactness_lab import movedom
from compactness_lab.movedom import (DiffeoFamily, FramingReport,
                                     NonCylindricalDomain, bilipschitz,
                                     eps_exterior, eps_interior, framing_check,
                                     grad_sup_norm, jacobian_bounds,
                                     make_domain, make_family, peel_measure,
                                     poincare_constant, transported_poincare)
from compactness_lab.synth import generator, random_smooth_field
from conftest import sobolev_embedding_exponent


GRID_256 = Grid((256, 256), (1.0, 1.0))


# test-side oracles: the forward map A_t, two hypotheses the non-cylindrical
# theorem makes of the family, and two motions no run uses, a rotation (volume
# preserving) and a shear (non-normal gradient)

def forward(fam, t, pts):
    c = fam.center
    return c + (np.asarray(pts, dtype=float) - c) @ fam.mat(t).T + t * fam.velocity


def check_inverse(fam, pts):
    """sup_t |A_t(A_t^{-1}(x)) - x| over `pts`: each A_t is a diffeomorphism."""
    return max(float(np.max(np.linalg.norm(forward(fam, t, fam.inverse(t, pts)) - pts, axis=1)))
               for t in fam.times())


def grad_continuity_modulus(fam):
    """Sampled sup |M(t+dt) - M(t)| at 32 and 64 time steps; both shrink for a
    family continuous in time."""
    out = []
    for n in (32, 64):
        mats = np.array([fam.mat(t) for t in np.linspace(*fam.interval, n + 1)])
        out.append(float(np.max(np.abs(np.diff(mats, axis=0)))))
    return tuple(out)


def sampled_bilipschitz(fam, domain):
    """max(hi, 1/lo) of |A_t p - A_t q| / |p - q| over 400 seeded pairs among at
    most 4096 cell centres of `domain`: a sample, so it can only read low."""
    rng = np.random.default_rng(np.random.Philox(7))
    pts = domain.grid.cell_centers()[domain.inside]
    if len(pts) > 4096:
        pts = pts[::int(np.ceil(len(pts) / 4096))]
    idx = rng.integers(0, len(pts), size=(400, 2))
    keep = idx[:, 0] != idx[:, 1]
    p, q = pts[idx[keep, 0]], pts[idx[keep, 1]]
    base = np.linalg.norm(p - q, axis=1)
    hi, lo = 1.0, 1.0
    for t in fam.times():
        ratio = np.linalg.norm(forward(fam, t, p) - forward(fam, t, q), axis=1) / base
        hi = max(hi, float(ratio.max()))
        lo = min(lo, float(ratio.min()))
    return max(hi, 1.0 / lo)


def rotation(interval, omega, center):
    def rot(t):
        th = omega * t
        return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])

    return DiffeoFamily(interval, rot, lambda t: rot(t).T,
                        np.asarray(center, dtype=float), np.zeros(2))


def shear(interval, amplitude):
    def mat(t):
        return np.array([[1.0, amplitude * np.sin(t)], [0.0, 1.0]])

    return DiffeoFamily(interval, mat, lambda t: mat(-t), np.zeros(2), np.zeros(2))


def mean_zero(f):
    inside = f.mask.inside if f.mask is not None else np.ones(f.grid.shape, bool)
    m = float(f.values[inside].mean()) if inside.any() else 0.0
    vals = np.where(inside, f.values - m, 0.0)
    return ScalarField(f.grid, vals, mask=f.mask)


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


def whole_distance_transform(g, inside):
    """Oracle: the two-sided signed distance of a membership raster, from
    scipy's EDT of the cells and of their complement, less half the shortest
    cell side (positive inside); every cell inside reads its distance to the
    box, none inside reads minus the largest extent."""
    inside = np.asarray(inside, dtype=bool)
    if inside.all():
        c = g.cell_centers()
        return np.minimum.reduce([np.minimum(c[..., a], g.extent[a] - c[..., a])
                                  for a in range(g.dim)])
    if not inside.any():
        return np.full(g.shape, -float(max(g.extent)))
    half = 0.5 * min(g.spacing)
    edt_in = scipy.ndimage.distance_transform_edt(inside, sampling=g.spacing)
    edt_out = scipy.ndimage.distance_transform_edt(~inside, sampling=g.spacing)
    return np.where(inside, edt_in - half, -(edt_out - half))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eps_offsets_of_membership_rasters_match_fresh_transforms(data):
    # oracle: thresholds of a fresh distance transform on random, all-inside and
    # all-outside 1D/2D masks; radii equal to a cell's distance test strictness
    shape = tuple(data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=2)))
    g = Grid(shape, tuple(data.draw(st.floats(0.25, 4.0)) for _ in shape))
    inside = data.draw(st.one_of(st.booleans().map(lambda b: np.full(shape, b)),
                                 hnp.arrays(bool, shape)))
    d, sd = RasterDomain(g, inside), whole_distance_transform(g, inside)
    eps = data.draw(st.one_of(st.floats(0.0, 8.0).map(lambda x: x * max(g.spacing)),
                              st.sampled_from(np.abs(sd).ravel().tolist())))
    for got, member in ((eps_interior(d, eps), sd > eps), (eps_exterior(d, eps), sd >= -eps)):
        want = d if eps == 0.0 else RasterDomain(g, member)
        assert np.array_equal(got.inside, want.inside)
        assert np.array_equal(got.signed_distance, want.signed_distance)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distance_transform_sides_are_halves_of_the_whole(data):
    # oracle: the two-sided transform from scipy's EDT on random, all-inside
    # and all-outside 1D/2D masks with non-square cells; off its own cells a
    # side reads exactly -h/2 (inside) or +h/2 (outside), the all-False EDT of
    # an empty raster's inside side and a full raster's outside side included
    shape = tuple(data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=2)))
    g = Grid(shape, tuple(data.draw(st.floats(0.25, 4.0)) for _ in shape))
    inside = data.draw(st.one_of(st.booleans().map(lambda b: np.full(shape, b)),
                                 hnp.arrays(bool, shape)))
    whole = whole_distance_transform(g, inside)
    d = RasterDomain(g, inside)
    assert "edt_inside" not in vars(d) and "edt_outside" not in vars(d)
    half = 0.5 * min(g.spacing)
    for side, cells, off in (("inside", inside, -half), ("outside", ~inside, half)):
        alone = signed_distance_transform(g, inside, side=side)
        assert np.array_equal(alone[cells], whole[cells])
        assert np.all(alone[~cells] == off)
        assert np.array_equal(alone > 0, inside)
        assert np.array_equal(getattr(d, "edt_" + side), alone)
    assert np.array_equal(d.signed_distance, whole)
    # an eps-offset computes the one side it thresholds, on a membership or
    # an analytic base
    eps = data.draw(st.floats(0.01, 8.0)) * max(g.spacing)
    for offset, read, unread in ((eps_interior, "edt_inside", "edt_outside"),
                                 (eps_exterior, "edt_outside", "edt_inside")):
        for base in (RasterDomain(g, inside),
                     make_domain(f"disk:{0.3 * min(g.extent)!r}", g)):
            offset(base, eps)
            assert read in vars(base) and unread not in vars(base)


def test_duality_band_closing_contains():
    disk = make_domain("disk:0.35", GRID_256)
    closed = eps_interior(eps_exterior(disk, 0.07), 0.07)
    assert not np.any(disk.inside & ~closed.inside)


def test_jacobian_bounds_identity_and_rotation():
    for fam in (make_family("identity", (0.0, 1.0)),
                rotation((0.0, 1.0), omega=2.0, center=(0.5, 0.5))):
        jb = jacobian_bounds(fam)
        assert jb.raw_min == pytest.approx(1.0, abs=1e-12)
        assert jb.raw_max == pytest.approx(1.0, abs=1e-12)


def test_jacobian_bounds_dilation_closed_form():
    # det = (1 + 0.25 sin t)^2 over a full period
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    jb = jacobian_bounds(fam)
    assert jb.raw_min == pytest.approx(0.75 ** 2, rel=1e-3)
    assert jb.raw_max == pytest.approx(1.25 ** 2, rel=1e-3)
    assert jb.alpha <= jb.raw_min and jb.beta >= jb.raw_max


def _five_families(interval):
    return {"identity": make_family("identity", interval),
            "translation": make_family("translation", interval, velocity=(0.3, 0.1)),
            "dilation": make_family("dilation", interval, amplitude=0.25, center=(0.5, 0.5)),
            "rotation": rotation(interval, omega=1.5, center=(0.5, 0.5)),
            "shear": shear(interval, amplitude=0.2)}


def test_bilipschitz_presets():
    # oracle: a dense SVD of M(t) per time sample; the old pair sampler can
    # only read below the exact constant
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fams = _five_families((0.0, 2 * np.pi))
    for name, fam in fams.items():
        per_t = [np.linalg.svd(fam.mat(t), compute_uv=False) for t in fam.times()]
        K = bilipschitz(fam)
        assert K == max(max(s[0], 1.0 / s[-1]) for s in per_t), name
        assert sampled_bilipschitz(fam, disk) <= K * (1 + 1e-12), name
    for name in ("identity", "translation"):
        assert bilipschitz(fams[name]) == 1.0
    assert bilipschitz(fams["rotation"]) == pytest.approx(1.0, abs=1e-14)
    assert bilipschitz(fams["dilation"]) == pytest.approx(4.0 / 3.0, rel=1e-4)
    # the shear's largest singular value, at |a sin t| = a
    a = 0.2
    assert bilipschitz(fams["shear"]) == pytest.approx((a + np.sqrt(a * a + 4)) / 2, rel=1e-4)


def test_batched_constants_match_per_t_loops():
    # oracle: one determinant and one spectral norm of M(t) per time sample
    for name, fam in _five_families((0.0, 2 * np.pi)).items():
        dets = [abs(float(np.linalg.det(fam.mat(t)))) for t in fam.times()]
        jb = jacobian_bounds(fam)
        assert (jb.raw_min, jb.raw_max) == (min(dets), max(dets)), name
        assert grad_sup_norm(fam) == max(float(np.linalg.norm(fam.mat(t), 2))
                                         for t in fam.times()), name


def test_family_inverse_and_continuity():
    # M(t) = grad A_t against a central-difference Jacobian of the forward
    # map, column j from the step h along axis j
    g = Grid((32, 32), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    pts = g.cell_centers().reshape(-1, 2)[disk.inside.reshape(-1)][::7]
    h = 1e-6
    for name, fam in _five_families((0.0, 1.0)).items():
        assert check_inverse(fam, pts) <= 1e-9
        coarse, fine = grad_continuity_modulus(fam)
        assert fine <= coarse * 0.75 + 1e-12
        for t in (0.0, 0.37, 1.0):
            fd = np.stack([(forward(fam, t, pts + h * e) - forward(fam, t, pts - h * e)) / (2 * h)
                           for e in np.eye(2)], axis=-1)
            assert np.max(np.abs(fam.mat(t) - fd)) <= 1e-8, name
        assert np.array_equal(fam.mats(), [fam.mat(t) for t in fam.times()])


def test_framing_identity_is_equality():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    rep = framing_check(NonCylindricalDomain(make_family("identity", (0.0, 1.0)), disk, 4), 0.1)
    assert rep.inner_violations == 0 and rep.outer_violations == 0


def test_framing_translation_and_dilation():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    tra = make_family("translation", (0.0, 1.0), velocity=(0.05, 0.02))
    rep = framing_check(NonCylindricalDomain(tra, disk, 8), 0.1)
    assert rep.ok
    dil = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    rep2 = framing_check(NonCylindricalDomain(dil, make_domain("disk:0.25", g), 8), 0.05)
    assert rep2.ok


def test_framing_shared_nc_matches_explicit_transforms(monkeypatch):
    # oracle: the distance transforms recomputed from the memberships; eta = 1
    # for a dilation breaks the inclusions, and half a cell of band keeps
    # banded violations to count
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    eps, eta, band = 0.08, 1.0, 0.5 * max(g.spacing)
    monkeypatch.setattr(movedom, "bilipschitz", lambda family: 1.0)
    nc = NonCylindricalDomain(fam, disk, 6)
    rep = framing_check(nc, eps, band_cells=0.5)
    assert rep.eta == eta
    counts = np.zeros(4, int)
    oracle = NonCylindricalDomain(fam, disk, 6)
    for k in range(6):
        slice_r, mid = oracle.slice_raster(k), oracle.transported(k, eps)
        inner = eps_interior(slice_r, eps / eta)
        outer = eps_interior(slice_r, eta * eps)
        sd_mid = whole_distance_transform(g, mid.inside)
        sd_out = whole_distance_transform(g, outer.inside)
        viol1, viol2 = inner.inside & ~mid.inside, mid.inside & ~outer.inside
        counts += [np.count_nonzero(viol1), np.count_nonzero(viol2),
                   np.count_nonzero(viol1 & (sd_mid < -band)),
                   np.count_nonzero(viol2 & (sd_out < -band))]
    assert counts[2] > 0 and counts[3] > 0
    assert (rep.inner_violations, rep.outer_violations, rep.inner_violations_banded,
            rep.outer_violations_banded) == tuple(counts)
    cached = set(nc._rasters)
    peel_measure(nc, eps)
    assert set(nc._rasters) == cached


def test_framing_erosions_come_from_the_memo():
    # oracle: the translation family's framing recomputed from fresh erosions
    # of fresh slices; eta is exactly 1, so both erosions of a slice are one
    # cached raster
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("translation", (0.0, 1.0), velocity=(0.05, 0.0))
    eps, band = 0.1, 1.5 * max(g.spacing)
    nc = NonCylindricalDomain(fam, disk, 8)
    assert bilipschitz(fam) == 1.0
    rep = framing_check(nc, eps)
    fresh = NonCylindricalDomain(fam, disk, 8)
    counts = []
    for k in range(8):
        slice_r, mid = fresh.slice_raster(k), fresh.transported(k, eps)
        inner = outer = eps_interior(slice_r, eps)
        assert nc.slice_eroded(k, eps / rep.eta) is nc.slice_eroded(k, rep.eta * eps)
        assert np.array_equal(nc.slice_eroded(k, eps).inside, inner.inside)
        viol1, viol2 = inner.inside & ~mid.inside, mid.inside & ~outer.inside
        counts.append([np.count_nonzero(viol1), np.count_nonzero(viol2),
                       np.count_nonzero(viol1 & (mid.signed_distance < -band)),
                       np.count_nonzero(viol2 & (outer.signed_distance < -band))])
    assert rep == FramingReport(1.0, eps, *(int(c) for c in np.sum(counts, axis=0)))


def _transform_sides_of_run(experiment, tmp_path, monkeypatch):
    """The `side` of every distance transform a default run makes."""
    from compactness_lab import cli, grid, probe
    sides = []
    real = grid.signed_distance_transform

    def counted(g, inside, side):
        sides.append(side)
        return real(g, inside, side)

    for module in (grid, probe):
        monkeypatch.setattr(module, "signed_distance_transform", counted)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert cli.run(experiment, str(cfg), str(tmp_path / "out"), seed=0) == 0
    return sides


def test_run_movedom_distance_transform_count(tmp_path, monkeypatch):
    # every transform is one-sided: erosions read the inside side and the
    # framing bands the outside side, each computed once per raster
    sides = _transform_sides_of_run("movedom", tmp_path, monkeypatch)
    assert set(sides) <= {"inside", "outside"}
    assert len(sides) == 103


def test_run_nsprobe_distance_transform_count(tmp_path, monkeypatch):
    sides = _transform_sides_of_run("nsprobe", tmp_path, monkeypatch)
    assert set(sides) <= {"inside", "outside"}
    assert len(sides) == 50


def test_run_nsprobe_makes_no_poincare_solve(tmp_path, monkeypatch):
    # ns_probe's Step-1 verdict reads the measured chain constant only; the
    # literal transported Poincare constant is not computed
    from compactness_lab import cli, movedom
    calls = []
    real = movedom.poincare_constant

    def counted(domain):
        calls.append(domain)
        return real(domain)

    monkeypatch.setattr(movedom, "poincare_constant", counted)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert cli.run("nsprobe", str(cfg), str(tmp_path / "out"), seed=0) == 0
    assert len(calls) == 0


def test_peel_measure_zero_eps():
    # nothing is peeled at eps = 0, and the bound is beta * 0 (beta != 1 for
    # the dilation)
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    for fam in (make_family("identity", (0.0, 1.0)),
                make_family("dilation", (0.0, 1.0), amplitude=0.25, center=(0.5, 0.5))):
        rep = peel_measure(NonCylindricalDomain(fam, disk, 4), 0.0)
        assert (rep.measured_sup, rep.bound) == (0.0, 0.0) and rep.ok


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
    for eps in (0.03, 0.06, 0.12):
        rep = peel_measure(nc, eps)
        assert rep.measured_sup <= rep.bound * 1.02


def test_poincare_unit_square_analytic():
    g = Grid((128, 128), (1.0, 1.0))
    c = poincare_constant(make_domain("square:1.0", g))
    assert c == pytest.approx(1.0 / np.pi, rel=0.01)


def filled_box(inside):
    """Cells per axis of the bounding box of the inside cells when they fill
    it, else None."""
    cells = np.argwhere(inside)
    box = inside[tuple(slice(lo, hi + 1) for lo, hi in zip(cells.min(axis=0), cells.max(axis=0)))]
    return box.shape if box.all() else None


def test_poincare_dense_cross_check_32():
    # oracle: dense eigensolve of the same Neumann matrix on a 32x32 disk, a
    # raster that does not fill its bounding box, so shift-invert Lanczos runs
    g = Grid((32, 32), (1.0, 1.0))
    d = make_domain("disk:0.4", g)
    assert filled_box(d.inside) is None
    L = neumann_laplacian(d)
    lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)
    lam1 = lam[1]
    assert poincare_constant(d) == pytest.approx(1.0 / np.sqrt(lam1), rel=1e-9)


@pytest.mark.parametrize("shape, extent, box", [
    ((12, 7), (1.0, 3.0), (slice(0, 12), slice(0, 7))),    # the whole grid, hx != hy
    ((12, 7), (1.0, 3.0), (slice(3, 9), slice(1, 5))),     # off-centre in its grid
    ((20, 9), (0.5, 2.0), (slice(11, 20), slice(4, 5))),   # one cell wide
    ((30,), (2.0,), (slice(0, 30),)),
    ((30,), (2.0,), (slice(7, 19),)),
])
def test_poincare_closed_form_on_boxes_matches_dense_eigh(monkeypatch, shape, extent, box):
    # oracle: dense eigensolve of the Neumann matrix of a raster that fills its
    # bounding box; the closed form builds no matrix and no factor
    g = Grid(shape, extent)
    inside = np.zeros(shape, bool)
    inside[box] = True
    d = RasterDomain(g, inside)
    L = neumann_laplacian(d)
    lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)

    def refuse(*args):
        raise AssertionError("the closed form needs no matrix")

    monkeypatch.setattr(movedom, "neumann_laplacian", refuse)
    assert poincare_constant(d) == pytest.approx(1.0 / np.sqrt(lam[1]), rel=1e-12)


@pytest.mark.parametrize("experiment, builds", [("movedom", 0), ("divfree", 1), ("nsprobe", 32)])
def test_default_run_raster_factor_builds(tmp_path, monkeypatch, experiment, builds):
    # every Poincare constant of a default run is on a raster that fills its
    # box: movedom factors nothing, divfree only its Neumann factor, and
    # nsprobe one Neumann factor per slice and radius (16 x 2), shared by its
    # four members
    from compactness_lab import cli, grid
    calls = []
    real = grid.RasterFactor.__init__

    def counted(self, domain, matrix):
        calls.append(domain)
        real(self, domain, matrix)

    monkeypatch.setattr(grid.RasterFactor, "__init__", counted)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert cli.run(experiment, str(cfg), str(tmp_path / "out"), seed=0) == 0
    assert len(calls) == builds


def test_movedom_poincare_rows_from_the_closed_form(default_runs):
    # oracle: the first nonzero Neumann eigenvalue of an m x m box of cells of
    # side h = 1/128 is lambda_1 = (4/h^2) sin^2(pi/(2m)); the unit square and
    # its 0.05- and 0.1-interiors are such boxes
    out, codes = default_runs
    assert codes["movedom"] == 0
    g = Grid((128, 128), (1.0, 1.0))
    square = make_domain("square:1.0", g)
    constants = []
    for eps in (0.0, 0.05, 0.1):
        m, m_y = filled_box(eps_interior(square, eps).inside)
        assert m == m_y
        constants.append(1.0 / np.sqrt(4.0 * 128 ** 2 * np.sin(np.pi / (2 * m)) ** 2))
    report = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in
              (out / "movedom" / "report.csv").read_text().splitlines()[1:]}
    assert report["poincare", "unit_square"] == pytest.approx(constants[0], rel=1e-12)
    spread = (max(constants) - min(constants)) / max(constants)
    assert report["poincare_sweep", "square_spread"] == pytest.approx(spread, rel=1e-12)


def test_movedom_jacobian_rows_and_peel_bounds_recomputed(default_runs):
    # oracle: det M(t) is 1 for the translation and (1 + 0.25 sin t)^2 for the
    # dilation at the 65 sample times on [0, 1]; the peel bound is
    # 1.02 * 1.01 * max det * mu(disk minus its 0.1-erosion), the erosion
    # counted from scipy's EDT of the disk's cells
    out, codes = default_runs
    assert codes["movedom"] == 0
    g = Grid((128, 128), (1.0, 1.0))
    h = 1.0 / 128
    dets = {"translation": np.ones(65),
            "dilation": (1.0 + 0.25 * np.sin(np.linspace(0.0, 1.0, 65))) ** 2}
    disk = make_domain("disk:0.4", g).inside
    depth = scipy.ndimage.distance_transform_edt(disk, sampling=(h, h)) - h / 2
    peeled = np.count_nonzero(disk) - np.count_nonzero(depth > 0.1)
    rows = [line.split(",") for line in
            (out / "movedom" / "report.csv").read_text().splitlines()[1:]]
    values = {(c, n): (float(v), float(b)) for c, n, v, b, _ in rows if c in ("jacobian", "peel")}
    for name, det in dets.items():
        assert values["jacobian", name] == pytest.approx((det.min(), det.max()), rel=1e-12)
        bound = 1.02 * 1.01 * det.max() * peeled * h ** 2
        assert values["peel", name][1] == pytest.approx(bound, rel=1e-12)


def _grown_mask(shape, size, rng):
    """A face-connected mask of `size` cells grown from a random seed cell."""
    inside = np.zeros(shape, bool)
    start = tuple(int(rng.integers(n)) for n in shape)
    inside[start] = True
    frontier = [start]
    while inside.sum() < size:
        cell = frontier[int(rng.integers(len(frontier)))]
        axis = int(rng.integers(len(shape)))
        step = list(cell)
        step[axis] += 1 if rng.random() < 0.5 else -1
        step = tuple(step)
        if 0 <= step[axis] < shape[axis] and not inside[step]:
            inside[step] = True
            frontier.append(step)
    return inside


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poincare_matches_dense_eigh_on_random_masks(data):
    # oracle: the first nonzero eigenvalue of a dense eigensolve of the same
    # Neumann matrix, on random connected masks (2-4 cells take the dense
    # fallback) with non-square cells
    dim = data.draw(st.integers(1, 2))
    shape = ((data.draw(st.integers(2, 400)),) if dim == 1
             else tuple(data.draw(st.integers(2, 20)) for _ in range(2)))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    n_cells = int(np.prod(shape))
    size = data.draw(st.one_of(st.integers(2, min(5, n_cells)), st.integers(2, n_cells)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = Grid(shape, extent)
    inside = _grown_mask(shape, size, rng)
    d = RasterDomain(g, inside)
    L = neumann_laplacian(d)
    lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)
    assert poincare_constant(d) == pytest.approx(1.0 / np.sqrt(lam[1]), rel=1e-9)
    # one more cell with no face neighbour in the mask disconnects it
    padded = np.pad(inside, 1)
    touched = scipy.ndimage.binary_dilation(padded)[(slice(1, -1),) * dim]
    free = np.argwhere(~touched)
    if len(free):
        inside[tuple(free[int(rng.integers(len(free)))])] = True
        with pytest.raises(ValueError, match="disconnected"):
            poincare_constant(RasterDomain(g, inside))


def test_poincare_unit_interval():
    g = Grid((1024,), (1.0,))
    c = poincare_constant(RasterDomain.full(g))
    assert c == pytest.approx(1.0 / np.pi, rel=0.01)


def test_poincare_disconnected_raises():
    g = Grid((8,), (1.0,))
    mem = np.zeros(8, bool)
    mem[1] = mem[6] = True
    with pytest.raises(ValueError):
        poincare_constant(RasterDomain(g, mem))


def test_poincare_inequality_random_fields():
    g = Grid((48, 48), (1.0, 1.0))
    d = eps_interior(make_domain("disk:0.4", g), 0.05)
    c = poincare_constant(d)
    rng = generator(9)
    for _ in range(50):
        v = mean_zero(random_smooth_field(g, rng, modes=4).restricted(d))
        grad_norm = staggered_l2(gradient(v))
        assert lp_norm(v, 2) <= c * grad_norm * (1 + 1e-6)


def poincare_sweep(domain, eps_list):
    """Poincare constants of the eps-interiors, one per eps; their max is the
    empirical common constant over the sweep."""
    return tuple(poincare_constant(eps_interior(domain, e)) for e in eps_list)


def test_uniform_poincare_sweep_square():
    g = Grid((96, 96), (1.0, 1.0))
    sq = make_domain("square:1.0", g)
    sweep = poincare_sweep(sq, (0.0, 0.05, 0.1))
    assert len(sweep) == 3
    assert (max(sweep) - min(sweep)) / max(sweep) <= 0.25


def test_transported_poincare_identity():
    g = Grid((64, 64), (1.0, 1.0))
    sq = make_domain("square:0.8", g)
    fam = make_family("identity", (0.0, 1.0))
    sweep = poincare_sweep(sq, (0.0, 0.05, 0.1))
    assert transported_poincare(fam, sq, (0.0, 0.05, 0.1)) == pytest.approx(
        max(sweep), rel=1e-9)


def test_transported_poincare_dilation_formula():
    g = Grid((64, 64), (1.0, 1.0))
    disk = make_domain("disk:0.3", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    sweep = poincare_sweep(disk, (0.0, 0.05))
    jb = jacobian_bounds(fam)
    got = transported_poincare(fam, disk, (0.0, 0.05))
    expected = np.sqrt(jb.raw_max / jb.raw_min) * max(sweep) * grad_sup_norm(fam)
    assert got == pytest.approx(expected, rel=1e-9)
    # closed form: sup scale 1.25, alpha ~ 0.75^2, beta ~ 1.25^2 up to safety factors
    assert grad_sup_norm(fam) == pytest.approx(1.25, rel=1e-3)


def test_sobolev_exponents():
    assert sobolev_embedding_exponent(1, 2) == pytest.approx(2.0)
    assert sobolev_embedding_exponent(1.5, 2) == pytest.approx(6.0)
    # at and above the critical exponent: the p+1 surrogate
    assert sobolev_embedding_exponent(2, 2) == pytest.approx(3.0)
    assert sobolev_embedding_exponent(3, 2) == pytest.approx(4.0)


# the Sobolev inequality that the local-to-global step transports by A_t,
# which no run uses: the reference constant S_Omega by a Rayleigh quotient,
# and K_p = S_Omega beta^{1/p*} alpha^{-1/p}

def measure_sobolev_constant(domain, p, n_fields):
    """sup ||v||_{p*} / ||v||_{W^{1,p}} over a seeded random smooth family."""
    rng = np.random.default_rng(np.random.Philox(11))
    g = domain.grid
    ps = sobolev_embedding_exponent(p, g.dim)
    best = 0.0
    for _ in range(n_fields):
        f = random_smooth_field(g, rng).restricted(domain)
        gp = sum(np.sum(np.abs(c) ** p) for c in gradient(f).components) * g.cell_volume
        w1p = (lp_norm(f, p) ** p + gp) ** (1.0 / p)
        if w1p > 0:
            best = max(best, lp_norm(f, ps) / w1p)
    return best


def sobolev_transport_constant(p, family, s_ref):
    """K_p on a 2D domain, from the raw Jacobian extremes of the family."""
    jb = jacobian_bounds(family)
    ps = sobolev_embedding_exponent(p, 2)
    return float(s_ref * jb.raw_max ** (1.0 / ps) * jb.raw_min ** (-1.0 / p))


def test_sobolev_transport_identity_and_dilation():
    g = Grid((48, 48), (1.0, 1.0))
    sq = make_domain("square:0.9", g)
    fam_id = make_family("identity", (0.0, 1.0))
    s_ref = measure_sobolev_constant(sq, 2, n_fields=10)
    assert s_ref > 0
    assert sobolev_transport_constant(2, fam_id, s_ref) == pytest.approx(s_ref, rel=1e-12)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.25, center=(0.5, 0.5))
    jb = jacobian_bounds(fam)
    # p=1 in 2D: K_1 = S beta^{1/2} alpha^{-1}
    got = sobolev_transport_constant(1, fam, s_ref)
    assert got == pytest.approx(s_ref * jb.raw_max ** 0.5 / jb.raw_min, rel=1e-12)


def test_change_of_variable_norm_transport():
    # ||u||^2_{L2(Omega_t)} within [alpha, beta] of ||u o A_t||^2_{L2(Omega)} (2% quadrature)
    g = Grid((256, 256), (1.0, 1.0))
    disk = make_domain("disk:0.25", g)
    fam = make_family("dilation", (0.0, 2 * np.pi), amplitude=0.2, center=(0.5, 0.5))
    jb = jacobian_bounds(fam)
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
        pulled = ScalarField(g, u_fn(forward(fam, t, centers)).reshape(g.shape), mask=disk)
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
        assert nc.slice_raster(k) is nc.transported(k, 0.0)


def test_domain_preset_errors():
    g = Grid((32, 32), (1.0, 1.0))
    with pytest.raises(ValueError):
        make_domain("pentagon:1", g)
    with pytest.raises(ValueError):
        make_family("warp", (0.0, 1.0))
