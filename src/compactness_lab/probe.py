"""Compactness proofs run as diagnostics.

Each probe executes one proof mechanism on a declared synthetic family and
reports moduli, budget lines, and a verdict "consistent / inconsistent with the
mechanism"; probes never claim compactness (that is a statement about infinite
families).  Budget decompositions are algebraic identities and are asserted to
1e-10 relative independently of any convergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divfree import (VectorStepSeries, per_slice_project, restrict_staggered,
                      shift_vector_series_steps, staggered_inner, staggered_l2,
                      vector_series_l2)
from .grid import (ScalarField, _axis_slices, inner, lp_norm,
                   signed_distance_transform)
from .mollify import convolve_space, convolve_staggered, make_mollifier
from .movedom import (bilipschitz, eps_interior,
                      sobolev_embedding_exponent, transported_poincare)
from .parabolic import StepTimeSeries, constant_series, series_l2, time_derivative_tv
from .productlimit import product_pipeline
from .synth import bump, generator, random_stream_velocity
from .truncate import build_beta

DECAY_RATIO = 0.6
CAUCHY_RATIO = 0.35
FLOOR_FACTOR = 1e-6


def _floor(scale):
    return FLOOR_FACTOR * (scale + 1e-300)


# ---------------------------------------------------------------------------
# norms over moving-domain slices


def _series_lp_masked(s, p, domains):
    total = 0.0
    for k, f in enumerate(s.fields):
        total += lp_norm(f.restricted(domains[k]), p) ** p
    return float((total * s.delta) ** (1.0 / p))


def vector_series_lp(s, p, domains=None):
    vol = s.grid.cell_volume
    total = 0.0
    for k, u in enumerate(s.fields):
        if domains is not None:
            u = restrict_staggered(u, domains[k])
        total += sum(float(np.sum(np.abs(c) ** p)) for c in u.components) * vol
    return float((total * s.delta) ** (1.0 / p))


def _vector_series_l2_window(s, domain, window):
    """L^2 over a fixed slice window (the time part of a compact subset)."""
    total = 0.0
    for k in window:
        total += staggered_l2(restrict_staggered(s.fields[k], domain)) ** 2
    return float(np.sqrt(total * s.delta))


def staggered_l2_on_cells(u, cell_mask):
    """L^2 mass of a face field attributed to a cell set (half of each adjacent
    face's square per axis)."""
    g = u.grid
    total = 0.0
    for a in range(g.dim):
        c2 = u.components[a] ** 2
        below, above, _ = _axis_slices(g.dim, a)
        avg = 0.5 * (c2[below] + c2[above])
        total += float(np.sum(avg[cell_mask]))
    return float(np.sqrt(total * g.cell_volume))


def staggered_gradient_l2(u):
    """L^2 of the componentwise face-lattice gradient (the measured ||grad u||)."""
    vol = u.grid.cell_volume
    total = 0.0
    for c in u.components:
        for a in range(u.grid.dim):
            h = u.grid.spacing[a]
            total += float(np.sum((np.diff(c, axis=a) / h) ** 2)) * vol
    return float(np.sqrt(total))


def vector_series_gradient_l2(s):
    return float(np.sqrt(s.delta * sum(staggered_gradient_l2(u) ** 2 for u in s.fields)))


# ---------------------------------------------------------------------------
# Kruzhkov-style mollification probe (scalar series on a moving domain)


@dataclass
class KruzhkovReport:
    ell_list: tuple
    uniform_modulus: dict          # ell -> sup_n ||f_n - f_n*phi_ell||
    pairwise: dict                 # ell -> {(n,q): distance of mollified members}
    rows: list                     # (n, q, ell, term1, term2, term3, total)
    max_budget_defect: float
    verdict: bool
    failures: list

    def csv_lines(self):
        return ["n,q,ell,term1,term2,term3,total"] + [
            f"{n},{q},{ell},{t1!r},{t2!r},{t3!r},{tot!r}"
            for n, q, ell, t1, t2, t3, tot in self.rows]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def kruzhkov_probe(f_seq, nc, m_interior, ell_list, p=2):
    """Three-term mollification budget f_n - f_q = (f_n - f_n*phi) +
    (f_n*phi - f_q*phi) + (f_q*phi - f_q) measured on the 1/m-interior slices,
    with the proof's order of limits as the verdict."""
    info = bilipschitz(nc.family, nc.reference)
    ell_list = sorted(int(x) for x in ell_list)
    min_ell = 2.0 * m_interior / info.eta
    if ell_list[0] < min_ell * (1.0 - 1e-9):
        raise ValueError(
            f"ell = {ell_list[0]} below the well-definedness bound 2m/eta = {min_ell:.1f}")
    inner_domains = [nc.transported(k, 1.0 / m_interior) for k in range(nc.n_slices)]
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    members = [StepTimeSeries(s.interval, tuple(f.restricted(slice_domains[k])
                                                for k, f in enumerate(s.fields)))
               for s in f_seq]
    conv = {ell: [convolve_space(s, make_mollifier(ell, nc.grid)) for s in members]
            for ell in ell_list}
    uniform, pairwise = {}, {}
    rows = []
    max_defect = 0.0
    scale = max(_series_lp_masked(s, p, slice_domains) for s in members)
    for ell in ell_list:
        moduli = [_series_lp_masked(m - c, p, inner_domains)
                  for m, c in zip(members, conv[ell])]
        uniform[ell] = max(moduli)
        pw = {}
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                t2 = _series_lp_masked(conv[ell][i] - conv[ell][j], p, inner_domains)
                pw[(i + 1, j + 1)] = t2
                direct = members[i] - members[j]
                total = _series_lp_masked(direct, p, inner_domains)
                resum = StepTimeSeries(members[i].interval, tuple(
                    (a - ca) + (ca - cb) + (cb - b)
                    for a, ca, cb, b in zip(members[i].fields, conv[ell][i].fields,
                                            conv[ell][j].fields, members[j].fields)))
                defect = _series_lp_masked(resum - direct, p, inner_domains)
                max_defect = max(max_defect, defect / (total + 1e-300))
                rows.append((i + 1, j + 1, ell, moduli[i], t2, moduli[j], total))
        pairwise[ell] = pw
    failures = []
    if uniform[ell_list[-1]] > max(DECAY_RATIO * uniform[ell_list[0]], _floor(scale)):
        failures.append("uniform mollification modulus does not decay in ell")
    pw = pairwise[ell_list[-1]]
    n_members = len(members)
    tail = [max((v for (i, j), v in pw.items() if i >= m and j >= m), default=0.0)
            for m in range(1, n_members)]
    if len(tail) >= 2:
        decreasing = all(b <= a + _floor(scale) for a, b in zip(tail[:-1], tail[1:]))
        small = tail[-1] <= max(CAUCHY_RATIO * tail[0], _floor(scale))
        if not (decreasing and small):
            failures.append("mollified family is not Cauchy in n at the finest ell")
    return KruzhkovReport(tuple(ell_list), uniform, pairwise, rows, max_defect,
                          verdict=not failures, failures=failures)


# ---------------------------------------------------------------------------
# local-to-global peel probe


@dataclass
class PeelDecayReport:
    eps_list: tuple
    sup_direct: dict
    mechanism_ok: bool
    max_mechanism_slack: float
    decayed: bool

    @property
    def verdict(self):
        return self.mechanism_ok and self.decayed


def local_to_global(f_seq, nc, eps_list, p=2):
    """Peel norms ||f_n||_{L^p(Omega_hat minus Omega_hat_eps)} directly and via
    the Holder/Sobolev mechanism; direct must not exceed the mechanism bound,
    and the family sup must decay as eps shrinks."""
    eps_list = sorted(float(e) for e in eps_list)
    ps = sobolev_embedding_exponent(p, nc.grid.dim)
    vol = nc.grid.cell_volume
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    sup_direct = {}
    worst_slack = 0.0
    mechanism_ok = True
    for eps in eps_list:
        peels = [slice_domains[k].inside & ~nc.transported(k, eps).inside
                 for k in range(nc.n_slices)]
        best = 0.0
        for s in f_seq:
            direct_p = 0.0
            mech_p = 0.0
            for k, f in enumerate(s.fields):
                vals = np.abs(f.values[peels[k]])
                direct_p += float(np.sum(vals ** p)) * vol
                mu_peel = float(np.count_nonzero(peels[k])) * vol
                f_star = lp_norm(f.restricted(slice_domains[k]), ps)
                mech_p += (f_star ** p) * mu_peel ** (1.0 - p / ps)
            direct = (direct_p * s.delta) ** (1.0 / p)
            mech = (mech_p * s.delta) ** (1.0 / p)
            worst_slack = max(worst_slack, (direct - mech) / (mech + 1e-300))
            if direct - mech > 1e-9 * (mech + 1.0):
                mechanism_ok = False
            best = max(best, direct)
        sup_direct[eps] = best
    scale = max(sup_direct.values())
    decayed = sup_direct[eps_list[0]] <= max(DECAY_RATIO * sup_direct[eps_list[-1]],
                                             _floor(scale))
    return PeelDecayReport(tuple(eps_list), sup_direct, mechanism_ok, worst_slack, decayed)


# ---------------------------------------------------------------------------
# lim-sup probe for the degenerate-parabolic theorem


@dataclass
class LimsupReport:
    eps_rows: list          # (eps, c_meas, chain_bound, tail_lhs)
    tv_per_member: list
    pipeline_defect: float
    verdict: bool
    failures: list


def limsup_probe(a_seq, phi, eps_list, m, domain, a_limit, k_pipeline=None):
    """Execute the truncation lim-sup chain: build the truncation per eps, run
    the product pipeline on (a_n, beta(a_n)) against theta = 1, verify the
    measured deviation bounds, and compare the tail of ||a_n||^2 against
    ||a||^2 + C_measured * eps."""
    grid = domain.grid
    theta = ScalarField.constant(grid, 1.0, mask=domain)
    tv = [time_derivative_tv(s, m, domain) for s in a_seq]
    failures = []
    tv_arr = np.array(tv)
    tv_floor = 1e-9 * (tv_arr.max() + 1.0)
    if tv_arr.max() > max(4.0 * max(tv_arr.min(), tv_floor), tv_floor):
        failures.append("time-derivative measure bound fails across the family "
                        "(pipeline Step 2 hypothesis)")
    if isinstance(a_limit, StepTimeSeries):
        a_lim_series = a_limit
    else:
        a_lim_series = constant_series(a_limit, a_seq[0].interval, a_seq[0].n_steps)
    lim_l2 = series_l2(a_lim_series)
    if k_pipeline is None:
        k_pipeline = int(1.0 / (4.0 * max(grid.spacing)))
    interval_measure = (a_seq[0].interval[1] - a_seq[0].interval[0]) * domain.measure
    sup_norm = max(series_l2(s) for s in a_seq)
    eps_rows = []
    worst_defect = 0.0
    for eps in sorted(eps_list):
        beta = build_beta(phi, eps)
        b_seq = [s.map_values(beta) for s in a_seq]
        b_lim = a_lim_series.map_values(beta)
        dev_bound = beta.deviation_constant * eps * np.sqrt(interval_measure) + 1e-12
        for s, b in zip(a_seq, b_seq):
            dev = series_l2(StepTimeSeries(s.interval, tuple(
                (x - y).restricted(domain) for x, y in zip(s.fields, b.fields))))
            if dev > dev_bound * (1.0 + 1e-9):
                failures.append(f"truncation deviation exceeds C_meas*eps at eps={eps:g}")
                break
        report = product_pipeline(a_seq, b_seq, theta, [k_pipeline], a_lim_series, b_lim)
        worst_defect = max(worst_defect, report.max_accounting_defect())
        totals = [abs(t) for t in report.column("total", k=k_pipeline)]
        if totals[-1] > max(DECAY_RATIO * totals[0], _floor(sup_norm ** 2)):
            failures.append(f"product pairing does not settle in n at eps={eps:g} "
                            "(pipeline Step 2)")
        gap = totals[-1]
        c_chain = (sup_norm + lim_l2) * beta.deviation_constant * np.sqrt(interval_measure)
        tail = series_l2(a_seq[-1]) ** 2
        bound = lim_l2 ** 2 + c_chain * eps + gap + 1e-9 * (lim_l2 ** 2 + 1.0)
        eps_rows.append((eps, beta.deviation_constant, bound, tail))
        if tail > bound:
            failures.append(f"lim-sup chain violated at eps={eps:g}: "
                            f"{tail:.6g} > {bound:.6g}")
    seen = set()
    failures = [f for f in failures if not (f in seen or seen.add(f))]
    return LimsupReport(eps_rows, tv, worst_defect, verdict=not failures, failures=failures)


# ---------------------------------------------------------------------------
# time-shift safety radius


def time_shift_safety(family, reference, delta, n_times=16, band_cells=1.5,
                      xi_min=1e-4):
    """Largest xi on a dyadic search with A_{t+sigma}(Omega_{2 delta}) inside
    A_t(Omega_delta) for all sampled t and sigma in {xi/4, xi/2, xi}
    (rasterized, one-cell band)."""
    a, b = family.interval
    grid = reference.grid
    d1 = eps_interior(reference, delta)
    d2 = eps_interior(reference, 2.0 * delta)
    centers = grid.cell_centers().reshape(-1, grid.dim)
    band = band_cells * max(grid.spacing)

    def inclusion_holds(sigma):
        tt = np.linspace(a, max(a, b - sigma), n_times)
        for t in tt:
            m1 = d1.sd_at(family.inverse(t, centers)) > 0
            m2 = d2.sd_at(family.inverse(t + sigma, centers)) > 0
            viol = m2 & ~m1
            if np.any(viol):
                sd1 = signed_distance_transform(grid, m1.reshape(grid.shape)).reshape(-1)
                if np.any(viol & (sd1 < -band)):
                    return False
        return True

    xi = b - a
    while xi > xi_min:
        if all(inclusion_holds(s) for s in (xi / 4, xi / 2, xi)):
            return xi
        xi /= 2.0
    return 0.0


# ---------------------------------------------------------------------------
# test battery and dual time estimates


@dataclass
class BatteryMember:
    label: str
    time_values: np.ndarray    # psi(t_k) at the interior jump times
    time_l2: float
    space: object              # ScalarField or StaggeredVectorField


def make_battery(grid, interval, n_steps, seed=0, n_space=3,
                 bump_widths=(0.5, 0.25, 0.125), positions=5,
                 alternating_periods=(2, 4, 8, 16, 32), kind="vector",
                 domain=None):
    """Seeded space-time battery: tensor products of time profiles (smooth bumps
    at several scales/positions plus sign-alternating profiles at dyadic
    periods) with curls of random streams (or scalar bumps).

    The alternating profiles let the battery witness the dual-constant growth
    of time-oscillating families; smooth bumps alone cannot (a single captured
    jump gives an n-independent ratio).
    """
    a, b = interval
    delta = (b - a) / n_steps
    jumps = a + np.arange(1, n_steps) * delta
    mids = a + (np.arange(n_steps) + 0.5) * delta
    rng = generator(seed)
    spaces = []
    for _ in range(n_space):
        if kind == "vector":
            spaces.append(random_stream_velocity(grid, rng))
        else:
            pts = grid.cell_centers().reshape(-1, grid.dim)
            c = np.array([rng.uniform(0.3, 0.7) * L for L in grid.extent])
            w = 0.2 * min(grid.extent)
            vals = bump(np.linalg.norm(pts - c, axis=1) / w).reshape(grid.shape)
            spaces.append(ScalarField(grid, vals, mask=domain))
    members = []
    for si, space in enumerate(spaces):
        for w_frac in bump_widths:
            w = w_frac * (b - a)
            for pos in range(positions):
                c = a + (pos + 0.5) * (b - a) / positions
                tv = bump(2.0 * (jumps - c) / w)
                tl2 = float(np.sqrt(np.sum(bump(2.0 * (mids - c) / w) ** 2) * delta))
                if tl2 > 0 and np.any(tv != 0):
                    members.append(BatteryMember(
                        f"bump[s{si},w{w_frac:g},p{pos}]", tv, tl2, space))
        for period in alternating_periods:
            if period >= 2 * n_steps:
                continue
            half = max(1, period // 2)
            for phase in (0, half):
                slices = np.where(((np.arange(n_steps) + phase) // half) % 2 == 0, 1.0, -1.0)
                slices[0] = slices[-1] = 0.0  # compact support in time
                tl2 = float(np.sqrt(np.sum(slices ** 2) * delta))
                members.append(BatteryMember(
                    f"alt[s{si},p{period},ph{phase}]", slices[1:].copy(), tl2, space))
    return members


def _pair_space(df, space):
    if isinstance(space, ScalarField):
        return inner(df, space)
    return staggered_inner(df, space)


def _spatial_derivative_norms(space, n_order):
    """Sum over multi-indices |alpha| <= N of finite-difference L^2 norms."""
    arrays = [space.values] if isinstance(space, ScalarField) else list(space.components)
    grid = space.grid
    vol = grid.cell_volume

    def level_norm(arrs):
        return float(np.sqrt(sum(np.sum(x ** 2) for x in arrs) * vol))

    total = level_norm(arrays)
    current = [arrays]
    for _ in range(n_order):
        nxt = []
        for arrs in current:
            for axis in range(grid.dim):
                h = grid.spacing[axis]
                nxt.append([np.diff(x, axis=axis) / h for x in arrs])
        total += sum(level_norm(arrs) for arrs in nxt)
        current = nxt
    return total


def _jump_pairings(series, space):
    return np.asarray([_pair_space(series.fields[k] - series.fields[k - 1], space)
                       for k in range(1, series.n_steps)])


def dual_time_estimate(series, battery, n_order=1):
    """max over the battery of |<d_t u, psi>| / sum_{|alpha|<=N} ||d^alpha psi||;
    the time pairing is exact summation by parts for step series."""
    best, best_label = 0.0, None
    denom_cache = {}
    pair_cache = {}
    for memb in battery:
        key = id(memb.space)
        if key not in denom_cache:
            denom_cache[key] = _spatial_derivative_norms(memb.space, n_order)
            pair_cache[key] = _jump_pairings(series, memb.space)
        num = abs(float(np.dot(memb.time_values, pair_cache[key])))
        denom = memb.time_l2 * denom_cache[key]
        if denom > 0 and num / denom > best:
            best, best_label = num / denom, memb.label
    return best, best_label


def step3_dual_constant(series, battery):
    """max over the battery of |<d_t v, psi>| / ||psi||_2 for the mollified
    family (the measured C_delta of the proof's third step)."""
    best, best_label = 0.0, None
    space_cache = {}
    pair_cache = {}
    for memb in battery:
        key = id(memb.space)
        if key not in space_cache:
            if isinstance(memb.space, ScalarField):
                space_cache[key] = lp_norm(memb.space, 2)
            else:
                space_cache[key] = staggered_l2(memb.space)
            pair_cache[key] = _jump_pairings(series, memb.space)
        num = abs(float(np.dot(memb.time_values, pair_cache[key])))
        denom = memb.time_l2 * space_cache[key]
        if denom > 0 and num / denom > best:
            best, best_label = num / denom, memb.label
    return best, best_label


# ---------------------------------------------------------------------------
# the divergence-free moving-domain probe


@dataclass
class NsProbeRow:
    n: int
    delta: float
    s: float
    step1: float
    step3: float
    line1: float
    line2: float
    line3: float
    total: float


@dataclass
class NsProbeReport:
    rows: list
    step1_sup: dict            # delta -> sup_n projection defect
    chain_rows: list           # (n, delta, defect, measured bound, literal bound)
    kappa: dict                # delta -> measured trace-equivalence factor
    xi: dict                   # delta -> time-shift safety radius
    step3_constants: dict      # delta -> [C per member]
    mollification_sup: dict    # delta -> sup_n ||u_n - u_n*phi_delta|| on the compact
    moll_bound_ratio: dict     # delta -> sup_n moll(2delta interior) / (delta ||grad u_n||)
    budget_defect: float
    c_transport: float
    verdict: bool
    failures: list

    def csv_lines(self):
        return ["n,delta,s,step1,step3,line1,line2,line3,total"] + [
            f"{r.n},{r.delta!r},{r.s!r},{r.step1!r},{r.step3!r},"
            f"{r.line1!r},{r.line2!r},{r.line3!r},{r.total!r}" for r in self.rows]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def ns_probe(u_seq, nc, delta_list, s_list, compact, gamma=None, r_exponent=None,
             battery_seed=0, c_transport=None):
    """Equicontinuity budget for per-slice div-free families on a moving domain.

    Per mollification radius delta (1/delta integer): Step-1 projection defect
    on the 2delta-transported slices against the strip-mass chain bound (with a
    trace-equivalence factor measured on the first member), Step-3 dual
    constants on a seeded battery, the time-shift safety radius, and the
    three-line translation budget on the compact raster.  Verdict: the budget
    lines vanish in the proof's order (delta first, then s) and the dual
    constants stay bounded across the family.
    """
    grid = nc.grid
    delta_list = sorted((float(d) for d in delta_list), reverse=True)
    q = sobolev_embedding_exponent(2, grid.dim)
    r = r_exponent or (2.0 + q) / 2.0
    if gamma is None:
        gamma = 0.45 * float(np.max(nc.reference.signed_distance))
    if c_transport is None:
        c_transport = transported_poincare(nc.family, nc.reference, gamma)
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    members = [VectorStepSeries(s.interval, tuple(
        restrict_staggered(u, slice_domains[k]) for k, u in enumerate(s.fields)))
        for s in u_seq]
    scale = max(vector_series_l2(s) for s in members)
    r_norms = [vector_series_lp(s, r) for s in members]
    battery = make_battery(grid, members[0].interval, members[0].n_steps,
                           seed=battery_seed, kind="vector")
    delta_t = members[0].delta
    grad_norms = [vector_series_gradient_l2(s) for s in members]
    rows, chain_rows, failures = [], [], []
    step1_sup, kappa_map, xi_map, c3_map, moll_sup, moll_ratio = {}, {}, {}, {}, {}, {}
    budget_defect = 0.0
    for delta in delta_list:
        k_mol = round(1.0 / delta)
        if abs(1.0 / delta - k_mol) > 1e-9:
            raise ValueError(f"delta = {delta:g} must be a reciprocal integer")
        mol = make_mollifier(k_mol, grid)
        inner_domains = [nc.transported(k, 2.0 * delta) for k in range(nc.n_slices)]
        for k in range(nc.n_slices):
            if np.any(compact.inside & ~inner_domains[k].inside):
                raise ValueError(f"compact raster escapes the 2*delta interior at delta={delta:g}")
        strips = []
        for k in range(nc.n_slices):
            outer = nc.slice_exterior(k, 2.0 * delta)
            inner_d = nc.transported(k, 3.0 * delta)
            strips.append(outer.inside & ~inner_d.inside)
        mu_strip = nc.delta * sum(float(np.count_nonzero(m)) * grid.cell_volume
                                  for m in strips)
        defects, kappas, c3s, molls, projected = [], [], [], [], []
        for i, u_series in enumerate(members):
            v = VectorStepSeries(u_series.interval, tuple(
                convolve_staggered(u, mol) for u in u_series.fields))
            proj = per_slice_project(v, nc, 2.0 * delta)
            projected.append((v, proj))
            defect = proj.spacetime_trace_norm
            defects.append(defect)
            strip_mass = float(np.sqrt(u_series.delta * sum(
                staggered_l2_on_cells(u_series.fields[k], strips[k]) ** 2
                for k in range(nc.n_slices))))
            kappas.append(defect / (strip_mass + 1e-300))
            c3, _ = step3_dual_constant(v, battery)
            c3s.append(c3)
            molls.append(vector_series_l2(u_series - v, [compact] * nc.n_slices))
            holder = r_norms[i] * mu_strip ** (0.5 - 1.0 / r)
            chain_rows.append((i + 1, delta, defect, kappas[0] * holder,
                               (c_transport + 1.0) * holder))
        for i in range(1, len(members)):
            holder = r_norms[i] * mu_strip ** (0.5 - 1.0 / r)
            if defects[i] > kappas[0] * holder * (1.0 + 1e-8) + _floor(scale):
                failures.append(f"step1 chain bound (measured constants) violated "
                                f"at delta={delta:g}")
                break
        step1_sup[delta] = max(defects)
        kappa_map[delta] = max(kappas)
        c3_map[delta] = c3s
        moll_sup[delta] = max(molls)
        moll_ratio[delta] = max(
            vector_series_l2(u_series - v, inner_domains) / (delta * grad_norms[i] + 1e-300)
            for i, (u_series, (v, _)) in enumerate(zip(members, projected)))
        xi = time_shift_safety(nc.family, nc.reference, delta)
        xi_map[delta] = xi
        j_window = max((round(s / delta_t) for s in s_list), default=0)
        window = range(j_window, nc.n_slices)
        for s in sorted(s_list):
            if not (0 < s <= xi + 1e-12):
                continue
            j = round(s / delta_t)
            if j == 0 or abs(s - j * delta_t) > 1e-9 * max(1.0, abs(s)):
                continue
            for i, u_series in enumerate(members):
                v, proj = projected[i]
                pu = proj.projected
                line_fields = (u_series - v,
                               VectorStepSeries(v.interval, tuple(
                                   a - b for a, b in zip(v.fields, pu.fields))),
                               pu)
                diffs = [shift_vector_series_steps(f, j) - f for f in line_fields]
                total_field = shift_vector_series_steps(u_series, j) - u_series
                l1, l2v, l3 = (_vector_series_l2_window(dv, compact, window) for dv in diffs)
                tot = _vector_series_l2_window(total_field, compact, window)
                resum = VectorStepSeries(u_series.interval, tuple(
                    a + b + c for a, b, c in zip(diffs[0].fields, diffs[1].fields,
                                                 diffs[2].fields)))
                defect = _vector_series_l2_window(resum - total_field, compact, window)
                budget_defect = max(budget_defect, defect / (tot + 1e-300))
                rows.append(NsProbeRow(i + 1, delta, s, defects[i], c3s[i],
                                       l1, l2v, l3, tot))
    d_first, d_last = delta_list[0], delta_list[-1]
    if moll_sup[d_last] > max(DECAY_RATIO * moll_sup[d_first], _floor(scale)):
        failures.append("mollification line does not vanish with delta")
    if step1_sup[d_last] > max(DECAY_RATIO * step1_sup[d_first], _floor(scale)):
        failures.append("step1 projection defect does not vanish with delta")
    last_rows = [r for r in rows if r.delta == d_last]
    if last_rows:
        s_vals = sorted({r.s for r in last_rows})
        line3_small = max(r.line3 for r in last_rows if r.s == s_vals[0])
        line3_large = max(r.line3 for r in last_rows if r.s == s_vals[-1])
        if line3_small > max(CAUCHY_RATIO * max(line3_large, _floor(scale)), _floor(scale)):
            failures.append("step3 time-translation modulus does not vanish as s -> 0")
    else:
        failures.append("no admissible time shifts below the safety radius")
    for delta in delta_list:
        c3s = c3_map[delta]
        growth = [b / (a + 1e-300) for a, b in zip(c3s[:-1], c3s[1:])]
        if growth and min(growth) >= 1.5:
            failures.append(f"step3 dual bound violated: battery constant grows "
                            f"x{min(growth):.2f} per member at delta={delta:g}")
            break
    seen = set()
    failures = [f for f in failures if not (f in seen or seen.add(f))]
    return NsProbeReport(rows, step1_sup, chain_rows, kappa_map, xi_map, c3_map,
                         moll_sup, moll_ratio, budget_defect, c_transport,
                         verdict=not failures, failures=failures)


def interpolation_check(u_series, r, q_exp, domains=None):
    """Measured ||u||_r <= ||u||_2^{1-theta} ||u||_q^theta with
    1/r = theta/q + (1-theta)/2 (discrete interpolation inequality)."""
    theta = (0.5 - 1.0 / r) / (0.5 - 1.0 / q_exp)
    lr = vector_series_lp(u_series, r, domains)
    l2 = vector_series_lp(u_series, 2, domains)
    lq = vector_series_lp(u_series, q_exp, domains)
    bound = l2 ** (1.0 - theta) * lq ** theta
    return lr, bound, bound - lr
