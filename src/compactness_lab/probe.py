"""Compactness proofs run as diagnostics.

Each probe executes one proof mechanism on a declared synthetic family and
reports moduli, budget lines, and a verdict "consistent / inconsistent with the
mechanism"; probes never claim compactness (that is a statement about infinite
families).  Budget decompositions are algebraic identities and are asserted to
1e-10 relative independently of any convergence claim.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, fields

import numpy as np

from .divfree import per_slice_project
from .grid import _axis_slices, signed_distance_transform, staggered_inner, staggered_l2
from .mollify import convolve_space, convolve_staggered, make_mollifier
from .movedom import _pull_back, bilipschitz, sobolev_embedding_exponent
from .parabolic import series_l2, slices_l2
from .synth import bump, generator, random_stream_velocity

DECAY_RATIO = 0.6
SHIFT_SAFETY_TIMES = 16
CAUCHY_RATIO = 0.35
FLOOR_FACTOR = 1e-6


def _floor(scale):
    return FLOOR_FACTOR * (scale + 1e-300)


# ---------------------------------------------------------------------------
# norms over moving-domain slices


def series_lp(s, p):
    """L^p(I x Omega) norm of a series of face fields, every face weighted
    fully (unlike `staggered_l2`, which half-weights boundary faces)."""
    total = 0.0
    for f in s.fields:
        total += sum(float(np.sum(np.abs(c) ** p)) for c in f.components) * f.grid.cell_volume
    return float((total * s.delta) ** (1.0 / p))


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

    columns = ("n", "q", "ell", "term1", "term2", "term3", "total")


def check_ell_list(nc, m_interior, ell_list):
    """Raise ValueError unless every mollifier scale meets the well-definedness
    bound ell >= 2m/eta = 2mK of the Kruzhkov budget, K the exact
    `bilipschitz` constant of the motion."""
    min_ell = 2.0 * m_interior * bilipschitz(nc.family)
    if min(ell_list) < min_ell * (1.0 - 1e-9):
        raise ValueError(
            f"ell = {min(ell_list)} below the well-definedness bound 2m/eta = {min_ell:.1f}")


def kruzhkov_probe(f_seq, nc, m_interior, ell_list):
    """Three-term mollification budget f_n - f_q = (f_n - f_n*phi) +
    (f_n*phi - f_q*phi) + (f_q*phi - f_q) measured on the 1/m-interior slices,
    with the proof's order of limits as the verdict."""
    ell_list = sorted(int(x) for x in ell_list)
    check_ell_list(nc, m_interior, ell_list)
    inner_domains = [nc.transported(k, 1.0 / m_interior) for k in range(nc.n_slices)]
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    members = [s.restricted(slice_domains) for s in f_seq]
    uniform, pairwise = {}, {}
    rows = []
    max_defect = 0.0
    scale = max(series_l2(s) for s in members)
    for ell in ell_list:
        mol = make_mollifier(ell, nc.grid)
        conv = [convolve_space(s, mol) for s in members]
        first = [m - c for m, c in zip(members, conv)]
        moduli = [series_l2(f, inner_domains) for f in first]
        uniform[ell] = max(moduli)
        pw = {}
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                middle = conv[i] - conv[j]
                t2 = series_l2(middle, inner_domains)
                pw[(i + 1, j + 1)] = t2
                direct = members[i] - members[j]
                total = series_l2(direct, inner_domains)
                # the re-summed budget less the direct difference; the third
                # term f_q*phi - f_q enters as -first[j]
                defect = series_l2(first[i] + middle - first[j] - direct, inner_domains)
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
# time-shift safety radius


def time_shift_safety(nc, delta):
    """Largest xi > 1e-4 on a dyadic search with A_{t+sigma}(Omega_{2 delta})
    inside A_t(Omega_delta) for sigma in {xi/4, xi/2, xi} and the
    SHIFT_SAFETY_TIMES sample times t (rasterized, 1.5-cell band), else 0;
    the erosions come from `nc`'s memo."""
    family, grid = nc.family, nc.grid
    a, b = family.interval
    d1 = nc.eroded_reference(delta)
    d2 = nc.eroded_reference(2.0 * delta)
    band = 1.5 * max(grid.spacing)

    # the sample times of one sigma recur, shifted or not, at the others
    @functools.cache
    def pulled(base, t):
        return _pull_back(family, base, t)

    # one level down, the dyadic search asks again about xi/2 and xi/4
    @functools.cache
    def inclusion_holds(sigma):
        tt = np.linspace(a, max(a, b - sigma), SHIFT_SAFETY_TIMES)
        for t in tt:
            m1 = pulled(d1, t)
            viol = pulled(d2, t + sigma) & ~m1
            if np.any(viol):
                sd1 = signed_distance_transform(grid, m1, side="outside")
                if np.any(viol & (sd1 < -band)):
                    return False
        return True

    xi = b - a
    while xi > 1e-4:
        if all(inclusion_holds(s) for s in (xi / 4, xi / 2, xi)):
            return xi
        xi /= 2.0
    return 0.0


# ---------------------------------------------------------------------------
# test battery and the step-3 dual constant


@dataclass
class Battery:
    """Space-time test functions psi(t, x) = profile(t) space(x), one for each
    (space, profile) pair.  A profile is (label, psi(t_k) at the interior jump
    times, time L^2 of psi); the pair's label is the profile's with the space
    index first inside the brackets, as in `alt[s0,p4,ph0]`."""
    spaces: list               # the spatial factors
    profiles: list


def time_profiles(interval, n_steps):
    """The battery's time profiles: smooth bumps of widths 1/2, 1/4 and 1/8 of
    the interval at five positions, plus sign-alternating profiles at periods
    2 to 32 slices.

    The alternating profiles let the battery witness the dual-constant growth
    of time-oscillating families; smooth bumps alone cannot (a single captured
    jump gives an n-independent ratio).
    """
    a, b = interval
    delta = (b - a) / n_steps
    jumps = a + np.arange(1, n_steps) * delta
    mids = a + (np.arange(n_steps) + 0.5) * delta
    profiles = []
    for w_frac in (0.5, 0.25, 0.125):
        w = w_frac * (b - a)
        for pos in range(5):
            c = a + (pos + 0.5) * (b - a) / 5
            tv = bump(2.0 * (jumps - c) / w)
            tl2 = float(np.sqrt(np.sum(bump(2.0 * (mids - c) / w) ** 2) * delta))
            if tl2 > 0 and np.any(tv != 0):
                profiles.append((f"bump[w{w_frac:g},p{pos}]", tv, tl2))
    for period in (2, 4, 8, 16, 32):
        if period >= 2 * n_steps:
            continue
        half = max(1, period // 2)
        for phase in (0, half):
            slices = np.where(((np.arange(n_steps) + phase) // half) % 2 == 0, 1.0, -1.0)
            slices[0] = slices[-1] = 0.0  # compact support in time
            tl2 = float(np.sqrt(np.sum(slices ** 2) * delta))
            profiles.append((f"alt[p{period},ph{phase}]", slices[1:], tl2))
    return profiles


def make_battery(grid, interval, n_steps, seed=0):
    """Seeded space-time battery: the `time_profiles` times three curls of
    random streams."""
    rng = generator(seed)
    return Battery([random_stream_velocity(grid, rng) for _ in range(3)],
                   time_profiles(interval, n_steps))


def step3_dual_constant(series, battery):
    """max over the battery of |<d_t v, psi>| / ||psi||_2 for the mollified
    family (the measured C_delta of the proof's third step), with the
    maximiser's label (the first one on ties).  Each jump of `series` is
    formed once, paired with every spatial factor and dropped, and each
    spatial factor is normed once; the time pairing is exact summation by
    parts for step series."""
    pairings = [[] for _ in battery.spaces]
    for k in range(1, series.n_steps):
        jump = series.fields[k] - series.fields[k - 1]
        for out, space in zip(pairings, battery.spaces):
            out.append(staggered_inner(jump, space))
    best, best_label = 0.0, None
    for si, space in enumerate(battery.spaces):
        norm = staggered_l2(space)
        for label, time_values, time_l2 in battery.profiles:
            num = abs(float(np.dot(time_values, pairings[si])))
            denom = time_l2 * norm
            if denom > 0 and num / denom > best:
                best, best_label = num / denom, label.replace("[", f"[s{si},", 1)
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
    rows: list                 # NsProbeRow, one per (member, delta, s)
    step1_sup: dict            # delta -> sup_n projection defect
    xi: dict                   # delta -> time-shift safety radius
    step3_constants: dict      # delta -> [C per member]
    budget_defect: float
    verdict: bool
    failures: list

    columns = tuple(f.name for f in fields(NsProbeRow))


def shift_budget_lines(u, v, pu, j, first, compact):
    """Norms over `compact` on the slices k >= first of lambda_s d - d, s = j
    slices with 1 <= j <= first, for d = u - v, v - pu and pu (lines 1-3),
    for d = u (the total) and for the re-summed defect line1 + line2 + line3
    - total: bitwise `series_l2` of the shifted series on the window that
    holds nothing before slice `first`, streamed slice by slice.

    lambda_s d - d on slice k is d_{k-j} - d_k.  Each slice's parts u_k - v_k
    and v_k - pu_k, from slice first - j on, are formed once and held until
    slice k + j has read them, so about j + 1 slices of each part are alive
    at a time, not whole series; the squared norms add up in slice order, as
    in `series_l2`."""
    if not 1 <= j <= first:
        raise ValueError(f"shift j = {j} must lie in [1, first = {first}]")
    n = u.n_steps
    held = collections.deque()
    sums = [0.0] * 5
    for k in range(first - j, n):
        uk, vk, pk = u.fields[k], v.fields[k], pu.fields[k]
        parts = (uk - vk, vk - pk, pk, uk)
        if k >= first:
            diffs = [a - b for a, b in zip(held.popleft(), parts)]
            diffs.append(diffs[0] + diffs[1] + diffs[2] - diffs[3])
            for m, d in enumerate(diffs):
                sums[m] += staggered_l2(d, compact) ** 2
        if k + j < n:
            held.append(parts)
    return [float(np.sqrt(total * u.delta)) for total in sums]


def ns_probe(u_seq, nc, delta_list, j_list, compact, battery_seed=0):
    """Equicontinuity budget for per-slice div-free families on a moving domain.

    Per mollification radius delta (1/delta integer): Step-1 projection defect
    on the 2delta-transported slices against the strip-mass chain bound
    kappa ||u_n||_r mu(strip)^{1/2 - 1/r}, with r halfway between 2 and the
    Sobolev exponent of 2 and the trace-equivalence factor kappa measured on
    the first member; Step-3 dual constants on a seeded battery, the
    time-shift safety radius, and the three-line translation budget on the
    compact raster for each shift s = j delta_t within that radius, j in
    `j_list` a whole number of slices.  Verdict: the budget lines vanish in
    the proof's order (delta first, then s) and the dual constants stay
    bounded across the family.

    Per delta the mollified and projected members are held whole; every
    field derived from them (the mollification line, the jumps of step 3,
    the shifted differences of the budget) is formed one slice at a time
    and dropped once read (`shift_budget_lines`).  Members already on the
    slice rasters are not copied.
    """
    grid = nc.grid
    delta_list = sorted((float(d) for d in delta_list), reverse=True)
    q = sobolev_embedding_exponent(2, grid.dim)
    r = (2.0 + q) / 2.0
    slice_domains = [nc.slice_raster(k) for k in range(nc.n_slices)]
    members = [s.restricted(slice_domains) for s in u_seq]
    scale = max(series_l2(s) for s in members)
    r_norms = [series_lp(s, r) for s in members[1:]]
    battery = make_battery(grid, members[0].interval, members[0].n_steps, seed=battery_seed)
    delta_t = members[0].delta
    rows, failures = [], []
    step1_sup, xi_map, c3_map, moll_sup = {}, {}, {}, {}
    budget_defect = 0.0
    for delta in delta_list:
        k_mol = round(1.0 / delta)
        if abs(1.0 / delta - k_mol) > 1e-9:
            raise ValueError(f"delta = {delta:g} must be a reciprocal integer")
        mol = make_mollifier(k_mol, grid)
        if any(np.any(compact.inside & ~nc.transported(k, 2.0 * delta).inside)
               for k in range(nc.n_slices)):
            raise ValueError(f"compact raster escapes the 2*delta interior at delta={delta:g}")
        strips = [nc.slice_exterior(k, 2.0 * delta).inside & ~nc.transported(k, 3.0 * delta).inside
                  for k in range(nc.n_slices)]
        mu_strip = nc.delta * sum(float(np.count_nonzero(m)) * grid.cell_volume
                                  for m in strips)
        # free the previous delta's mollified family first, with the last
        # member's pair that the budget loop below still names: holding two
        # families at once raised the peak RSS of `run nsprobe` by about 7 MB
        convolved = projected = v = proj = None
        # the search holds its pull-backs until it returns: run it while no
        # mollified family is alive
        xi = time_shift_safety(nc, delta)
        xi_map[delta] = xi
        convolved = [u_series.map(lambda u: convolve_staggered(u, mol)) for u_series in members]
        projected = list(zip(convolved, per_slice_project(convolved, nc, 2.0 * delta)))
        defects = [proj.spacetime_trace_norm for _, proj in projected]
        c3s = [step3_dual_constant(v, battery)[0] for v, _ in projected]
        molls = [slices_l2((a - b for a, b in zip(u_series.fields, v.fields)),
                           [compact] * nc.n_slices, u_series.delta)
                 for u_series, (v, _) in zip(members, projected)]
        # the trace-equivalence factor, measured on the first member
        strip_mass = float(np.sqrt(members[0].delta * sum(
            staggered_l2_on_cells(members[0].fields[k], strips[k]) ** 2
            for k in range(nc.n_slices))))
        kappa = defects[0] / (strip_mass + 1e-300)
        for defect, r_norm in zip(defects[1:], r_norms):
            holder = r_norm * mu_strip ** (0.5 - 1.0 / r)
            if defect > kappa * holder * (1.0 + 1e-8) + _floor(scale):
                failures.append(f"step1 chain bound (measured constants) violated "
                                f"at delta={delta:g}")
                break
        step1_sup[delta] = max(defects)
        c3_map[delta] = c3s
        moll_sup[delta] = max(molls)
        # the compact subset of space-time: `compact` on the slices from the
        # largest shift on, nothing before it
        first = max(j_list, default=0)
        for j in sorted(j_list):
            s = j * delta_t
            if not (0 < s <= xi + 1e-12):
                continue
            for i, u_series in enumerate(members):
                v, proj = projected[i]
                l1, l2v, l3, tot, defect = shift_budget_lines(u_series, v, proj.projected,
                                                              j, first, compact)
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
    failures = list(dict.fromkeys(failures))
    return NsProbeReport(rows, step1_sup, xi_map, c3_map, budget_defect,
                         verdict=not failures, failures=failures)
