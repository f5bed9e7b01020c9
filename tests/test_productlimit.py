from dataclasses import astuple

import numpy as np
import pytest
import scipy.optimize

from compactness_lab.cli import _csv_text
from compactness_lab.grid import Grid, ScalarField, inner, lp_norm
from compactness_lab.mollify import make_mollifier, shift_space
from compactness_lab.movedom import make_domain
from compactness_lab.parabolic import constant_series
from compactness_lab.productlimit import (exp_orlicz_pair, luxemburg_gauge,
                                          orlicz_holder_check,
                                          product_pipeline,
                                          transposition_defect)
from compactness_lab.synth import oscillating_family


# test-side statements of the criterion that no run needs: the declared Young
# pair is one, and the cutoff theta_k of its localization step

def validate_pair(pair):
    """Sampled convexity, vanishing value/slope at zero, and the Young
    inequality x y <= phi(x) + psi(y) on a 200 x 200 lattice of [0, 5]^2."""
    xs = np.linspace(0.0, 5.0, 200)
    for fn in (pair.phi, pair.psi):
        vals = fn(xs)
        if abs(vals[0]) > 1e-12 or vals[1] / xs[1] > 0.1:
            raise ValueError("Young function must vanish at 0 with derivative 0")
        if np.any(np.diff(vals, 2) < -1e-10):
            raise ValueError("Young function is not convex on the sample")
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    slack = pair.phi(X) + pair.psi(Y) - X * Y
    if float(slack.min()) < -1e-12:
        raise ValueError(f"Young inequality fails by {float(slack.min()):.3e}")


def build_cutoff(domain, k):
    """Cutoff theta_k in [0,1], equal to 1 on the inner plateau {sd >= w} with
    complement measure mu(Omega minus plateau) <= 1/k, built by smoothstepping
    the signed distance; returns theta_k and that measure."""
    sd = domain.signed_distance
    inside_sd = np.sort(sd[domain.inside])
    vol = domain.grid.cell_volume
    budget = int(np.floor((1.0 / k) / vol))
    w = max(float(inside_sd[min(budget, inside_sd.size - 1)]), float(inside_sd[0]))
    s = np.clip(sd / w, 0.0, 1.0)
    vals = np.where(domain.inside, s * s * (3.0 - 2.0 * s), 0.0)
    complement = float(np.count_nonzero(domain.inside & (sd < w))) * vol
    return ScalarField(domain.grid, vals, mask=domain), complement


def holder_holds(rep):
    return rep.constant * rep.gauge_f * rep.gauge_g - rep.lhs >= -1e-9 * (rep.lhs + 1.0)


def test_orlicz_pair_validates():
    validate_pair(exp_orlicz_pair())


def test_young_inequality_on_lattice():
    pair = exp_orlicz_pair()
    xs = np.linspace(0, 6, 120)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    slack = pair.phi(X) + pair.psi(Y) - X * Y
    assert float(slack.min()) >= -1e-12


def test_gauge_of_zero_field():
    g = Grid((16, 16), (1.0, 1.0))
    assert luxemburg_gauge(ScalarField.constant(g, 0.0), exp_orlicz_pair()) == 0.0


def test_gauge_of_constant_scalar_rootfind_oracle():
    # oracle first: t* solving e^t - t - 1 = 1 by an independent scalar root-find
    tstar = scipy.optimize.brentq(lambda t: np.exp(t) - t - 2.0, 0.5, 2.0)
    g = Grid((32, 32), (1.0, 1.0))
    pair = exp_orlicz_pair()
    gauge = luxemburg_gauge(ScalarField.constant(g, 1.0), pair)
    assert gauge == pytest.approx(1.0 / tstar, abs=1e-8)
    assert tstar == pytest.approx(1.1462, abs=2e-4)


def test_gauge_positive_homogeneity():
    g = Grid((24, 24), (1.0, 1.0))
    pair = exp_orlicz_pair()
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.normal(size=g.shape))
    assert luxemburg_gauge(f * 2.0, pair) == pytest.approx(
        2 * luxemburg_gauge(f, pair), rel=1e-8)


def test_gauge_normalizes_integral():
    g = Grid((24, 24), (1.0, 1.0))
    pair = exp_orlicz_pair()
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.normal(size=g.shape))
    a = luxemburg_gauge(f, pair)
    integral = float(np.sum(pair.phi(np.abs(f.values) / a)) * g.cell_volume)
    assert abs(integral - 1.0) <= 1e-8


def test_holder_trivial_zero():
    g = Grid((16, 16), (1.0, 1.0))
    rep = orlicz_holder_check(ScalarField.constant(g, 0.0), ScalarField.constant(g, 1.0))
    assert rep.lhs == 0.0 and holder_holds(rep)


def test_holder_unit_constants_two_rootfinds():
    # both sides via independent scalar root-finds on the unit square
    pair = exp_orlicz_pair()
    tstar = scipy.optimize.brentq(lambda t: np.exp(t) - t - 2.0, 0.5, 2.0)
    sstar = scipy.optimize.brentq(lambda s: pair.psi(np.array([s]))[0] - 1.0, 0.5, 3.0)
    g = Grid((32, 32), (1.0, 1.0))
    one = ScalarField.constant(g, 1.0)
    rep = orlicz_holder_check(one, one)
    assert rep.gauge_f == pytest.approx(1.0 / tstar, abs=1e-8)
    assert rep.gauge_g == pytest.approx(1.0 / sstar, abs=1e-8)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert holder_holds(rep)  # 2 * (1/t*) * (1/s*) ~ 1.0145 >= 1


def test_holder_random_sweep():
    g = Grid((24, 24), (1.0, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(100):
        f = ScalarField(g, rng.normal(size=g.shape))
        w = ScalarField(g, rng.normal(size=g.shape))
        assert holder_holds(orlicz_holder_check(f, w))


def test_gauge_duality_pairing():
    g = Grid((24, 24), (1.0, 1.0))
    pair = exp_orlicz_pair()
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = ScalarField(g, np.abs(rng.normal(size=g.shape)))
        w = ScalarField(g, np.abs(rng.normal(size=g.shape)))
        lhs = inner(f, w)
        rhs = 2.0 * luxemburg_gauge(f, pair, "phi") * luxemburg_gauge(w, pair, "psi")
        assert rhs - lhs >= -1e-9 * (lhs + 1.0)


def _translating_family(cells=256, n_slices=4, members=6):
    g = Grid((cells,), (1.0,))
    x = g.axis_centers(0)
    a_lim = ScalarField(g, np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    b_sp = ScalarField(g, np.cos(2 * np.pi * x))
    interval = (0.0, 1.0)
    a_seq, b_seq = [], []
    for n in range(1, members + 1):
        j = max(1, round(cells / (8 * n)))
        a_seq.append(constant_series(shift_space(a_lim, [j * g.spacing[0]]), interval, n_slices))
        b_seq.append(constant_series(b_sp, interval, n_slices))
    theta = ScalarField(g, np.sin(np.pi * x) ** 2)
    return g, a_seq, b_seq, theta, a_lim, b_sp


def test_pipeline_constant_family_all_lines_vanish():
    g = Grid((256,), (1.0,))
    x = g.axis_centers(0)
    f = ScalarField(g, np.sin(2 * np.pi * x))
    s = constant_series(f, (0.0, 1.0), 4)
    theta = ScalarField(g, np.cos(np.pi * x) ** 2)
    rep = product_pipeline([s, s], [s, s], theta, [4, 16], f, f)
    for r in rep.rows:
        assert r.total == pytest.approx(0.0, abs=1e-12)
        assert abs(r.step2) < 1e-12
    k16 = rep.column("step1", k=16)
    k4 = rep.column("step1", k=4)
    assert abs(k16[0]) < abs(k4[0])


def test_pipeline_accounting_identity():
    g, a_seq, b_seq, theta, a_lim, b_sp = _translating_family()
    rep = product_pipeline(a_seq, b_seq, theta, [4, 8, 16], a_lim, b_sp)
    assert rep.max_accounting_defect() <= 1e-10


def test_pipeline_translating_family_budget():
    # total pairing -> 0 within an O(1/n) + O(1/k) budget: the k-lines shrink
    # uniformly in n and the n-line shrinks at fixed k
    g, a_seq, b_seq, theta, a_lim, b_sp = _translating_family(members=8)
    rep = product_pipeline(a_seq, b_seq, theta, [4, 32], a_lim, b_sp)
    s3_4 = max(abs(v) for v in rep.column("step3", k=4))
    s3_32 = max(abs(v) for v in rep.column("step3", k=32))
    assert s3_32 <= 0.5 * s3_4 + 1e-12
    s4_4 = max(abs(v) for v in rep.column("step4", k=4))
    s4_32 = max(abs(v) for v in rep.column("step4", k=32))
    assert s4_32 <= 0.5 * s4_4 + 1e-12
    totals = [abs(v) for v in rep.column("total", k=32)]
    assert totals[-1] <= 0.5 * totals[0] + 1e-12


def test_pipeline_oscillating_family_total_does_not_vanish():
    # a_n = b_n alternating sign: <a_n b_n, theta> = <g^2, theta> for every n
    g = Grid((256,), (1.0,))
    x = g.axis_centers(0)
    f = ScalarField(g, np.sin(2 * np.pi * x))
    a_seq = [oscillating_family(f, (0.0, 1.0), 2 * n, [n])[0] for n in (2, 4, 8)]
    theta = ScalarField.constant(g, 1.0)
    zero = f * 0.0
    rep = product_pipeline(a_seq, a_seq, theta, [16], zero, zero)
    totals = [abs(v) for v in rep.column("total", k=16)]
    assert min(totals) > 0.4 * inner(f * f, theta)


def test_step4_transposition_identity():
    g, a_seq, b_seq, theta, a_lim, b_sp = _translating_family(members=2)
    mol = make_mollifier(16, g)
    assert transposition_defect(a_seq[0] * b_seq[0], theta, mol) <= 1e-10


def test_pipeline_csv_schema(tmp_path):
    g, a_seq, b_seq, theta, a_lim, b_sp = _translating_family(members=2)
    rep = product_pipeline(a_seq, b_seq, theta, [8], a_lim, b_sp)
    path = tmp_path / "pipe.csv"
    path.write_text(_csv_text(rep.columns, [astuple(r) for r in rep.rows]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,step1,step2,step3,step4,total"
    assert len(lines) == 3


def test_cutoff_bounds_and_budget():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    for k in (2, 4, 16, 64):
        theta, comp = build_cutoff(disk, k)
        assert float(theta.values.max()) <= 1.0
        assert float(theta.values.min()) >= 0.0
        assert comp <= 1.0 / k + 1e-12
    # plateau is exactly 1
    theta, comp = build_cutoff(disk, 4)
    sd = disk.signed_distance
    assert np.all(theta.values[sd >= np.max(sd) * 0.9] == 1.0)


def test_localize_l1_budget():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    f = ScalarField.constant(g, 1.0, mask=disk)
    s = constant_series(f, (0.0, 1.0), 2)
    theta, comp = build_cutoff(disk, 4)
    loc = s.map(lambda f: f * theta)
    l1 = lp_norm((f - loc.fields[0]).restricted(disk), 1)
    assert l1 <= comp + 1e-12


def test_localize_cauchy_schwarz_budget():
    g = Grid((128, 128), (1.0, 1.0))
    disk = make_domain("disk:0.4", g)
    rng = np.random.default_rng(4)
    f = ScalarField(g, rng.normal(size=g.shape), mask=disk)
    for k in (2, 8, 32):
        theta, comp = build_cutoff(disk, k)
        diff = f - f * theta
        l1 = lp_norm(diff.restricted(disk), 1)
        assert l1 <= lp_norm(f, 2) * np.sqrt(comp) * (1 + 1e-9)


def test_cutoff_tends_to_one():
    g = Grid((128, 128), (1.0, 1.0))
    full = make_domain("square:1.0", g)
    f = ScalarField.constant(g, 1.0, mask=full)
    l1s = []
    for k in (2, 8, 32, 128):
        theta, _ = build_cutoff(full, k)
        l1s.append(lp_norm((f - f * theta).restricted(full), 1))
    assert all(b <= a for a, b in zip(l1s[:-1], l1s[1:]))
    assert l1s[-1] <= 1.0 / 64
