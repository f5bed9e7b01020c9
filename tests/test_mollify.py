import numpy as np
import pytest
import scipy.ndimage

from compactness_lab import cli, mollify
from compactness_lab.grid import Grid, ScalarField, StaggeredVectorField, inner, lp_norm
from compactness_lab.mollify import (commutator, convolve_space, convolve_staggered,
                                     make_mollifier, separable_commutator_l1, shift_space)
from compactness_lab.parabolic import StepTimeSeries, constant_series
from compactness_lab.grid import divergence
from compactness_lab.synth import (generator, oscillation_coefficients,
                                   random_stream_velocity)


def discrete_integral(mol):
    return float(np.sum(mol.weights) * mol.grid.cell_volume)


def support_cells(mol):
    return int(np.count_nonzero(mol.weights))


def commutator_integral_form(fa, fb, mol):
    """Single-slice commutator assembled from the shifted-difference kernel
    representation sum_y [a(x) - a(x-y)] b(x-y) phi(y) h^d; equals the direct
    formula up to rounding (test oracle)."""
    g = fa.grid
    w = mol.weights
    vol = g.cell_volume
    out = np.zeros(g.shape)
    it = np.ndindex(w.shape)
    center = tuple(s // 2 for s in w.shape)
    for off in it:
        wt = w[off]
        if wt == 0.0:
            continue
        cells = tuple(o - c for o, c in zip(off, center))
        h_vec = [cells[a] * g.spacing[a] for a in range(g.dim)]
        shifted_a = shift_space(fa, h_vec).values
        shifted_b = shift_space(fb, h_vec).values
        out += (fa.values - shifted_a) * shifted_b * wt * vol
    return ScalarField(g, out)


def test_kernel_normalization_and_symmetry():
    g = Grid((256,), (1.0,))
    mol = make_mollifier(8, g)
    assert discrete_integral(mol) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(mol.weights, mol.weights[::-1])
    assert np.all(mol.weights >= 0.0)


def test_kernel_support_radius():
    # support width 2/k: 63 cells carry weight at k=8, h=1/256 (offset 32 sits
    # exactly on the support edge where the bump vanishes)
    g = Grid((256,), (1.0,))
    mol = make_mollifier(8, g)
    assert support_cells(mol) in (63, 64)
    nz = np.nonzero(mol.weights)[0]
    half = (len(mol.weights) - 1) // 2
    assert (nz.max() - half) * g.spacing[0] < 1.0 / 8


def test_kernel_under_resolved_rejected():
    g = Grid((16,), (1.0,))
    with pytest.raises(ValueError):
        make_mollifier(16, g)


def test_convolution_preserves_constants():
    g = Grid((128,), (1.0,))
    f = ScalarField.constant(g, 3.0)
    conv = convolve_space(f, make_mollifier(8, g))
    interior = slice(40, -40)
    assert np.max(np.abs(conv.values[interior] - 3.0)) < 1e-12


def test_convolution_of_point_mass_reproduces_kernel():
    g = Grid((256,), (1.0,))
    mol = make_mollifier(16, g)
    vals = np.zeros(256)
    vals[128] = 1.0 / g.cell_volume  # discrete delta of unit mass
    conv = convolve_space(ScalarField(g, vals), mol)
    half = (len(mol.weights) - 1) // 2
    window = conv.values[128 - half:128 + half + 1]
    assert np.allclose(window, mol.weights, rtol=1e-12)


def test_convolution_smoothing_modulus():
    # ||f - f*phi_k||_2 <= (2 pi / k) ||f||_2 for f = sin(2 pi x)
    g = Grid((1024,), (1.0,))
    f = ScalarField.from_function(g, lambda p: np.sin(2 * np.pi * p[:, 0]))
    conv = convolve_space(f, make_mollifier(16, g))
    err = lp_norm(f - conv, 2)
    assert err <= (2 * np.pi / 16) * lp_norm(f, 2)


def test_shift_space_identity_and_zero_fill():
    g = Grid((64,), (1.0,))
    f = ScalarField(g, np.arange(64.0))
    assert np.array_equal(shift_space(f, [0.0]).values, f.values)
    h = g.spacing[0]
    fwd = shift_space(shift_space(f, [3 * h]), [-3 * h])
    assert np.array_equal(fwd.values[:-3], f.values[:-3])
    assert np.all(fwd.values[-3:] == 0.0)
    for cells in (64, -70):  # shifted out of the box
        assert np.array_equal(shift_space(f, [cells * h]).values, np.zeros(64))


def test_shift_space_rejects_non_lattice():
    g = Grid((64,), (1.0,))
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        shift_space(f, [0.4 * g.spacing[0]])


def test_shift_space_translation_modulus():
    # ||tau_h f - f||_2 <= |h| ||grad f||_2 for a smooth rasterized profile
    from compactness_lab.grid import gradient, staggered_l2

    g = Grid((512,), (1.0,))
    f = ScalarField.from_function(g, lambda p: np.sin(2 * np.pi * p[:, 0]))
    grad_norm = staggered_l2(gradient(f))
    h = 8 * g.spacing[0]
    moved = shift_space(f, [h])
    # ignore the zero-filled band
    diff = (moved.values - f.values)[8:]
    err = np.sqrt(np.sum(diff ** 2) * g.cell_volume)
    assert err <= abs(h) * grad_norm * (1 + 1e-10)


def test_commutator_constant_a_vanishes():
    g = Grid((512,), (1.0,))
    x = g.axis_centers(0)
    a = constant_series(ScalarField.constant(g, 2.0), (0.0, 1.0), 2)
    b = constant_series(ScalarField(g, np.sign(np.sin(4 * np.pi * x))), (0.0, 1.0), 2)
    _, l1 = commutator(a, b, make_mollifier(16, g))
    assert l1 == 0.0


def test_commutator_linear_a_interior():
    # even kernel kills the first moment: x - x*phi vanishes away from the boundary
    g = Grid((512,), (1.0,))
    a = constant_series(ScalarField(g, g.axis_centers(0)), (0.0, 1.0), 1)
    b = constant_series(ScalarField.constant(g, 1.0), (0.0, 1.0), 1)
    S, _ = commutator(a, b, make_mollifier(16, g))
    assert np.max(np.abs(S.fields[0].values[64:-64])) < 1e-12


def test_commutator_matches_integral_form():
    g = Grid((256,), (1.0,))
    x = g.axis_centers(0)
    fa = ScalarField(g, np.sin(2 * np.pi * x) + 0.3 * np.cos(10 * np.pi * x))
    fb = ScalarField(g, np.sign(np.sin(6 * np.pi * x)))
    mol = make_mollifier(16, g)
    direct, _ = commutator(constant_series(fa, (0.0, 1.0), 1),
                           constant_series(fb, (0.0, 1.0), 1), mol)
    shifted = commutator_integral_form(fa, fb, mol)
    assert np.max(np.abs(direct.fields[0].values - shifted.values)) < 1e-13


def test_commutator_report_recomputed_from_integral_form(tmp_path):
    # oracle: the `commutator` run's sup_l1 column, the max over the family of
    # delta sum_slices sum_x |S| h with S from the shifted-difference form
    cells, n_slices = 64, 4
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[commutator]\ncells = {cells}\nmembers = 3\nn_slices = {n_slices}\n"
                   "k_list = 4,8,16\ndecay_factor = 1.0\n")
    assert cli.run("commutator", str(cfg), str(tmp_path / "out"), seed=0) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]]
    g = Grid((cells,), (1.0,))
    x = g.axis_centers(0)
    a_sp = ScalarField(g, np.sin(2 * np.pi * x))
    b_sp = ScalarField(g, np.sign(np.sin(4 * np.pi * x)))
    mids = (np.arange(n_slices) + 0.5) / n_slices

    def slice_l1(c, mol):  # the slice of member n where both factors carry c
        s = commutator_integral_form(a_sp * c, b_sp * c, mol)
        return float(np.sum(np.abs(s.values))) * g.cell_volume

    assert [int(k) for k, _ in rows] == [4, 8, 16]
    for k, sup_l1 in rows:
        mol = make_mollifier(int(k), g)
        want = max(sum(slice_l1(float(c), mol) for c in np.sin(2 * np.pi * n * mids)) / n_slices
                   for n in range(1, 4))
        assert float(sup_l1) == pytest.approx(want, rel=1e-12)


def run_factors(cells):
    """The `commutator` run's space factors a = sin 2 pi x, b = sign sin 4 pi x."""
    g = Grid((cells,), (1.0,))
    x = g.axis_centers(0)
    return ScalarField(g, np.sin(2 * np.pi * x)), ScalarField(g, np.sign(np.sin(4 * np.pi * x)))


def test_separable_commutator_l1_equals_per_member_commutator():
    # rows repeat c, pair c with -c, and hold both signed zeros; each member's
    # value must be commutator's bit for bit
    a_sp, b_sp = run_factors(256)
    coefs = np.array([[0.3, -0.3, 0.3, 0.0, -0.0, 0.7],
                      [-0.7, 1.0, -0.0, -1.0, 0.3, 0.3],
                      [0.0, 0.0, -0.3, 0.7, -0.7, 1.0]])
    interval = (0.0, 1.0)
    for k in (4, 16):
        mol = make_mollifier(k, a_sp.grid)
        got = separable_commutator_l1(a_sp, b_sp, coefs, interval, mol)
        want = []
        for row in coefs:
            a_n = StepTimeSeries(interval, tuple(a_sp * float(c) for c in row))
            b_n = StepTimeSeries(interval, tuple(b_sp * float(c) for c in row))
            want.append(commutator(a_n, b_n, mol)[1])
        assert got == want
        assert got[0] > 0.0


def test_commutator_slice_is_even_in_the_coefficient():
    # S(-c a, -c b) = S(c a, c b) bit for bit at every default k of the run
    a_sp, b_sp = run_factors(2048)
    mids = (np.arange(32) + 0.5) / 32
    cs = np.concatenate([np.sin(2 * np.pi * n * mids) for n in (1, 5)]).tolist()
    interval = (0.0, 1.0)
    plus_a = StepTimeSeries(interval, tuple(a_sp * c for c in cs))
    plus_b = StepTimeSeries(interval, tuple(b_sp * c for c in cs))
    minus_a = StepTimeSeries(interval, tuple(a_sp * -c for c in cs))
    minus_b = StepTimeSeries(interval, tuple(b_sp * -c for c in cs))
    for k in (4, 8, 16, 32, 64):
        mol = make_mollifier(k, a_sp.grid)
        plus, _ = commutator(plus_a, plus_b, mol)
        minus, _ = commutator(minus_a, minus_b, mol)
        for fp, fm in zip(plus.fields, minus.fields):
            assert np.array_equal(fp.values, fm.values)


def test_commutator_run_convolves_each_distinct_slice_once(tmp_path, monkeypatch):
    # 16 members x 32 slices hold 16 distinct |c|: two convolutions each per
    # k, 160 over the five default k instead of 5120
    distinct = {abs(c) for c in oscillation_coefficients(range(1, 17), 32).ravel().tolist()}
    assert len(distinct) == 16
    calls = []
    convolve = mollify._convolve_values

    def counted(values, mol):
        calls.append(mol.k)
        return convolve(values, mol)

    monkeypatch.setattr(mollify, "_convolve_values", counted)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("")
    assert cli.run("commutator", str(cfg), str(tmp_path / "out"), seed=0) == 0
    assert len(calls) == 160
    assert all(calls.count(k) == 2 * 16 for k in (4, 8, 16, 32, 64))


def folded_residues(members, n_slices):
    """m = n (2j + 1) mod 2N and its residue mod N folded into [0, N/2]."""
    m = np.array([[n * (2 * j + 1) % (2 * n_slices) for j in range(n_slices)]
                  for n in range(1, members + 1)])
    r = m % n_slices
    return m, np.minimum(r, n_slices - r)


def ulps_from_exact(c, m, n_slices):
    """|c - sin(pi m / N)| in units of the spacing of floats at the exact value,
    the exact value from mpmath at 50 digits; entries where it is 0 give 0."""
    mpmath = pytest.importorskip("mpmath")
    out = np.zeros(c.shape)
    with mpmath.workdps(50):
        for idx in np.ndindex(c.shape):
            if m[idx] % n_slices:
                exact = mpmath.sin(mpmath.pi * int(m[idx]) / n_slices)
                out[idx] = float(abs(mpmath.mpf(float(c[idx])) - exact)
                                 / np.spacing(abs(float(exact))))
    return out


@pytest.mark.parametrize("members,n_slices", [(16, 32), (8, 16), (4, 8), (3, 4), (16, 1)])
def test_oscillation_coefficients_reduce_the_phase_exactly(members, n_slices):
    # the run's family and the smaller ones the tests run it at: within 1 ulp
    # of the exact sine, equal to the unreduced formula up to its rounding,
    # equal |c| for an equal folded residue, and +-0.0 at multiples of pi
    c = oscillation_coefficients(range(1, members + 1), n_slices)
    m, folded = folded_residues(members, n_slices)
    assert c.shape == (members, n_slices)
    assert np.max(ulps_from_exact(c, m, n_slices)) <= 1.0
    mids = (np.arange(n_slices) + 0.5) / n_slices
    naive = np.array([np.sin(2 * np.pi * n * mids) for n in range(1, members + 1)])
    assert np.max(np.abs(c - naive)) <= 1e-13
    for r in np.unique(folded):
        assert len(set(np.abs(c[folded == r]).tolist())) == 1
    zero = m % n_slices == 0
    assert np.all(c[zero] == 0.0)
    assert np.array_equal(np.signbit(c[zero]), m[zero] == n_slices)
    assert np.all((c[~zero] > 0) == (m[~zero] < n_slices))


def test_oscillation_coefficients_error_over_every_residue():
    # member n = 1..2N of slice 0 meets every residue m of 2N once; only the
    # argument pi r' / N and its sine are rounded, so no entry is 2 ulp off
    worst = 0.0
    for n_slices in range(1, 129):
        c = oscillation_coefficients(range(1, 2 * n_slices + 1), n_slices)[:, :1]
        m = np.arange(1, 2 * n_slices + 1)[:, None] % (2 * n_slices)
        worst = max(worst, np.max(ulps_from_exact(c, m, n_slices)))
    assert worst < 2.0


@pytest.mark.parametrize("n_slices", [1, 4, 16, 32, 48])
def test_oscillation_coefficients_take_any_integer_frequency(n_slices):
    # each n is reduced mod 2N in Python integers before numpy: n + 2N q gives
    # the row of n bit for bit, for q that puts the entry past int64 too
    ns = list(range(-3, 2 * n_slices + 3))
    base = oscillation_coefficients(ns, n_slices)
    for q in (1, 7, 2 ** 62 // n_slices, 3 ** 45):
        far = [n + 2 * n_slices * q for n in ns]
        assert oscillation_coefficients(far, n_slices).tobytes() == base.tobytes(), q
    assert 2 * n_slices * 3 ** 45 > 2 ** 63
    assert oscillation_coefficients([], n_slices).shape == (0, n_slices)
    with pytest.raises(TypeError):
        oscillation_coefficients([2.5], n_slices)


def test_commutator_decay_rate_smooth_a():
    # smooth a against rough b: decreasing, at least the O(1/k) rate
    g = Grid((2048,), (1.0,))
    x = g.axis_centers(0)
    a = constant_series(ScalarField(g, np.sin(2 * np.pi * x)), (0.0, 1.0), 1)
    b = constant_series(ScalarField(g, np.sign(np.sin(4 * np.pi * x))), (0.0, 1.0), 1)
    l1 = {k: commutator(a, b, make_mollifier(k, g))[1] for k in (4, 8, 16, 32)}
    ratios = [l1[k2] / l1[k1] for k1, k2 in ((4, 8), (8, 16), (16, 32))]
    assert all(r <= 0.65 for r in ratios)
    assert all(l1[k2] <= l1[k1] for k1, k2 in ((4, 8), (8, 16), (16, 32)))


def test_commutator_decay_rate_rough_a():
    # with the BV factor in the a slot the genuine O(1/k) rate appears:
    # consecutive ratios inside [0.35, 0.65]
    g = Grid((2048,), (1.0,))
    x = g.axis_centers(0)
    a = constant_series(ScalarField(g, np.sign(np.sin(4 * np.pi * x))), (0.0, 1.0), 1)
    b = constant_series(ScalarField(g, np.sin(2 * np.pi * x)), (0.0, 1.0), 1)
    l1 = {k: commutator(a, b, make_mollifier(k, g))[1] for k in (4, 8, 16, 32)}
    ratios = [l1[k2] / l1[k1] for k1, k2 in ((4, 8), (8, 16), (16, 32))]
    assert all(0.35 <= r <= 0.65 for r in ratios)


def test_uniform_commutator_decay_small_family():
    # max over an oscillatory family is nonincreasing in k and drops by 4x
    g = Grid((1024,), (1.0,))
    x = g.axis_centers(0)
    A_sp = ScalarField(g, np.sin(2 * np.pi * x))
    B_sp = ScalarField(g, np.sign(np.sin(4 * np.pi * x)))
    n_slices = 16
    mids = (np.arange(n_slices) + 0.5) / n_slices
    sup = {}
    for k in (4, 8, 16, 32):
        mol = make_mollifier(k, g)
        worst = 0.0
        for n in range(1, 9):
            coefs = np.sin(2 * np.pi * n * mids)
            a_n = StepTimeSeries((0.0, 1.0), tuple(A_sp * float(c) for c in coefs))
            b_n = StepTimeSeries((0.0, 1.0), tuple(B_sp * float(c) for c in coefs))
            worst = max(worst, commutator(a_n, b_n, mol)[1])
        sup[k] = worst
    assert sup[8] <= sup[4] and sup[16] <= sup[8] and sup[32] <= sup[16]
    assert sup[32] <= sup[4] / 4


def test_convolution_self_adjoint():
    g = Grid((512,), (1.0,))
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.normal(size=512))
    w = ScalarField(g, rng.normal(size=512))
    mol = make_mollifier(16, g)
    lhs = inner(convolve_space(f, mol), w)
    rhs = inner(f, convolve_space(w, mol))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_young_inequality():
    g = Grid((512,), (1.0,))
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.normal(size=512))
    mol = make_mollifier(8, g)
    conv = convolve_space(f, mol)
    for p in (1, 2, np.inf):
        assert lp_norm(conv, p) <= lp_norm(f, p) + 1e-12


def test_staggered_convolution_commutes_with_divergence():
    # exact for fields vanishing near the box edge (zero extension of a field
    # with nonzero edge faces is not div-free on the plane)
    from compactness_lab.synth import disk_bump_velocity

    g = Grid((48, 48), (1.0, 1.0))
    u = disk_bump_velocity(g, (0.5, 0.5), 0.25)
    mol = make_mollifier(8, g)
    conv = convolve_staggered(u, mol)
    scale = max(np.max(np.abs(c)) for c in u.components)
    assert np.max(np.abs(divergence(conv).values)) < 1e-12 * scale / g.spacing[0]


def test_staggered_convolution_interior_divergence_general_field():
    # for a general stream, divergence stays an exact stencil zero beyond one
    # kernel radius of the box edge
    g = Grid((48, 48), (1.0, 1.0))
    u = random_stream_velocity(g, generator(11))
    mol = make_mollifier(8, g)
    conv = convolve_staggered(u, mol)
    r = int(np.ceil(1 / 8 / g.spacing[0])) + 1
    dv = divergence(conv).values[r:-r, r:-r]
    scale = max(np.max(np.abs(c)) for c in u.components)
    assert np.max(np.abs(dv)) < 1e-12 * scale / g.spacing[0]


def _compact_random(rng, size):
    vals = np.zeros(size)
    lo = int(rng.integers(0, size))
    hi = int(rng.integers(lo + 1, size + 1))
    vals[lo:hi] = rng.normal(size=hi - lo)
    return vals


@pytest.mark.parametrize("cells", [8, 9, 17, 64, 2048])
def test_1d_convolution_matches_ndimage(cells):
    # ndimage is the direct-summation oracle (it skips taps with |w| <=
    # DBL_EPSILON); every resolvable k, including kernels longer than the
    # raster (k=1 on 8 cells has 17 taps); same values to rounding and the
    # same exact zeros
    g = Grid((cells,), (1.0,))
    rng = np.random.default_rng(cells)
    for k in range(1, cells // 2 + 1):
        mol = make_mollifier(k, g)
        f = _compact_random(rng, cells)
        faces = _compact_random(rng, cells + 1)
        got = convolve_space(ScalarField(g, f), mol).values
        got_faces = convolve_staggered(StaggeredVectorField(g, (faces,)), mol).components[0]
        for out, vals in ((got, f), (got_faces, faces)):
            want = scipy.ndimage.convolve(vals, mol.weights * g.cell_volume,
                                          mode="constant", cval=0.0)
            assert out.shape == want.shape
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(out == 0.0, want == 0.0)
