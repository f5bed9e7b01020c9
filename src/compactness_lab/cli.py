"""Experiment runner: named experiments over the library modules, flat
`key = value` configs with [section] headers, deterministic seeds, CSV + grid
outputs.

Exit codes: 0 all invariant assertions passed, 1 an assertion failed (the
manifest names it), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import math
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .divfree import (dual_norm_check, neumann_factor, normal_trace,
                      project_divfree0)
from .grid import (Grid, RasterDomain, ScalarField, StaggeredVectorField,
                   divergence, staggered_inner, staggered_l2, write_grid_file)
from .mollify import make_mollifier, separable_commutator_l1, shift_space
from .movedom import (NonCylindricalDomain, eps_interior, framing_check,
                      jacobian_bounds, make_domain, make_family, peel_measure,
                      poincare_constant, symmetric_difference_band)
from .parabolic import (DiffusionTensor, NewtonFailure, StepTimeSeries,
                        barenblatt_profile, energy_report, mass, run_scheme,
                        hypothesis_monitor)
from .probe import check_ell_list, kruzhkov_probe, ns_probe
from .productlimit import product_pipeline, transposition_defect
from .synth import (disk_bump_velocity, generator, oscillating_family,
                    oscillation_coefficients, perturbation_scalar_family,
                    random_smooth_field, random_stream_velocity, translating_disk_ns_family)
from .truncate import nonlinearity_preset


class ConfigError(Exception):
    pass


def _bad(experiment, key, value, why):
    return ConfigError(f"bad value for [{experiment}] {key}: {value!r} ({why})")


@dataclass(frozen=True)
class Rule:
    """How a key's text becomes a value: `cast` each entry (the whole text, or
    each comma-separated entry of a list) and accept it only when `ok` holds,
    for a `distinct` list no entry repeats, and the entries hold at least
    `min_distinct` distinct values."""
    text: str
    cast: type
    ok: Callable
    is_list: bool = False
    distinct: bool = False
    min_distinct: int = 1

    def parse(self, experiment, key, raw):
        entries = [tok for tok in (raw.split(",") if self.is_list else [raw]) if tok.strip()]
        try:
            values = [self.cast(tok) for tok in entries]
        except ValueError:
            values = []
        if (not values or not all(map(self.ok, values))
                or (self.distinct and len(set(values)) < len(values))
                or len(set(values)) < self.min_distinct):
            finite = ", finite" if self.cast is float else ""
            raise _bad(experiment, key, raw, f"must be {self.text}{finite}")
        return values if self.is_list else values[0]


def _one_of(*choices):
    return Rule("one of " + ", ".join(choices), str, lambda v: v in choices)


POS_INT = Rule("int > 0", int, lambda v: v > 0)
INT_GE0 = Rule("int >= 0", int, lambda v: v >= 0)
INT_GE2 = Rule("int >= 2", int, lambda v: v >= 2)
INT_GE5 = Rule("int >= 5", int, lambda v: v >= 5)
FLOAT = Rule("float", float, math.isfinite)
POS_FLOAT = Rule("float > 0", float, lambda v: math.isfinite(v) and v > 0)
FLOAT_GE0 = Rule("float >= 0", float, lambda v: math.isfinite(v) and v >= 0)
FLOAT_GT1 = Rule("float > 1", float, lambda v: math.isfinite(v) and v > 1)
POS_INTS = Rule("list of int > 0", int, POS_INT.ok, is_list=True)
DISTINCT_POS_INTS = Rule("list of distinct int > 0", int, POS_INT.ok, is_list=True,
                         distinct=True)
# a list whose smallest and largest entries the run compares for decay
DISTINCT_TWO_POS_INTS = Rule("list of distinct int > 0, two at least", int, POS_INT.ok,
                             is_list=True, distinct=True, min_distinct=2)
DISTINCT_TWO_POS_FLOATS = Rule("list of distinct float > 0, two at least", float, POS_FLOAT.ok,
                               is_list=True, distinct=True, min_distinct=2)
FLOATS_GE0 = Rule("list of float >= 0", float, FLOAT_GE0.ok, is_list=True)

# every key of every experiment: its default, as text, and its rule
KEYS = {
    "porous": {
        "grid_cells": ("512", POS_INT), "halfwidth": ("3.0", POS_FLOAT),
        "m": ("2.0", FLOAT_GT1), "t0": ("0.1", POS_FLOAT), "t1": ("1.0", POS_FLOAT),
        "mass": ("1.0", POS_FLOAT), "n_list": ("16,32,64,128,256", DISTINCT_POS_INTS),
        "hminus_m": ("1", INT_GE0), "bc": ("noflux", _one_of("noflux", "dirichlet0")),
        "l1_tol": ("0.02", FLOAT_GE0), "mass_drift_tol": ("1e-12", FLOAT_GE0),
        "energy_rel_tol": ("1e-8", FLOAT_GE0)},
    "commutator": {
        "cells": ("2048", POS_INT), "members": ("16", POS_INT), "n_slices": ("32", POS_INT),
        "k_list": ("4,8,16,32,64", DISTINCT_TWO_POS_INTS), "decay_factor": ("8.0", POS_FLOAT)},
    "productlimit": {
        "cells": ("256", POS_INT), "n_slices": ("8", POS_INT), "members": ("8", INT_GE2),
        "k_list": ("4,8,16,32", DISTINCT_POS_INTS), "accounting_tol": ("1e-10", FLOAT_GE0)},
    "movedom": {
        "grid": ("128", INT_GE2), "eps": ("0.1", FLOAT_GE0),
        "eps_list": ("0.0,0.05,0.1", FLOATS_GE0), "disk_radius": ("0.4", POS_FLOAT),
        "poincare_tol": ("0.01", FLOAT_GE0), "spread_tol": ("0.25", FLOAT_GE0),
        "n_slices": ("16", POS_INT), "dilation_amplitude": ("0.25", FLOAT)},
    "divfree": {
        "grid": ("64", INT_GE2), "n_fields": ("100", POS_INT),
        "residual_tol": ("1e-8", FLOAT_GE0), "pair_checks": ("20", INT_GE0)},
    "nsprobe": {
        "family": ("convergent", _one_of("convergent", "oscillating")),
        "grid": ("64", POS_INT), "n_slices": ("16", INT_GE5), "members": ("4", POS_INT),
        "osc_list": ("2,4,8", POS_INTS),
        "delta_list": ("0.0625,0.03125", DISTINCT_TWO_POS_FLOATS),
        "disk_radius": ("0.3", POS_FLOAT), "speed": ("0.15", FLOAT)},
    "kruzhkov": {
        "family": ("perturbation", _one_of("perturbation", "oscillating")),
        "grid": ("64", POS_INT), "n_slices": ("8", POS_INT), "members": ("6", POS_INT),
        "osc_list": ("1,2,4", POS_INTS), "m_interior": ("8", POS_INT),
        "ell_list": ("16,24,32", DISTINCT_TWO_POS_INTS), "speed": ("0.1", FLOAT),
        "disk_radius": ("0.35", POS_FLOAT), "budget_tol": ("1e-10", FLOAT_GE0)},
}


class Config(dict):
    """The typed value of every key of one experiment, from its section of the
    parsed file or from its default; `seed` is the section's seed key or 0."""

    def __init__(self, parser, experiment):
        self.parser = parser
        self.experiment = experiment
        section = parser[experiment] if parser.has_section(experiment) else {}
        table = KEYS[experiment]
        for key in section:
            if key != "seed" and key not in table:
                raise _bad(experiment, key, section[key],
                           "unknown key; the keys are " + ", ".join(table))
        self.seed = INT_GE0.parse(experiment, "seed", section.get("seed", "0"))
        super().__init__((key, rule.parse(experiment, key, section.get(key, default)))
                         for key, (default, rule) in table.items())

    def echo(self):
        lines = []
        for section in self.parser.sections():
            lines.append(f"[{section}]")
            for k, v in self.parser.items(section):
                lines.append(f"{k} = {v}")
        lines.append(f"[{self.experiment}] effective defaults:")
        for k, (default, _) in KEYS[self.experiment].items():
            if not self.parser.has_option(self.experiment, k):
                lines.append(f"{k} = {default}  (default)")
        return "\n".join(lines)


# experiments on 1D grids whose runs call no scipy submodule
NUMPY_ONLY = ("commutator", "productlimit")


def load_config(path, experiment):
    """Read `path` and check every key of its [experiment] section against
    KEYS before any work; a ConfigError names the first bad key.  Then, but
    for NUMPY_ONLY, import the scipy submodules the run calls, before its timing."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(p)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}")
    cfg = Config(parser, experiment)
    if experiment not in NUMPY_ONLY:
        for sub in ("linalg", "ndimage", "sparse.linalg", "special"):
            importlib.import_module("scipy." + sub)
    return cfg


def _check_kernels(cfg, grid, key, scales):
    """Each entry of `key` names a mollifier by its scale k (`scales`, one per
    entry): every k must be an integer whose kernel `grid` resolves."""
    for entry, k in zip(cfg[key], scales, strict=True):
        try:
            if abs(k - round(k)) > 1e-9:
                raise ValueError(f"mollifier scale {k:g} is not an integer")
            make_mollifier(round(k), grid)
        except ValueError as e:
            raise _bad(cfg.experiment, key, entry, e) from None


def _reference_disk(cfg, grid, center=None, moved_by=()):
    """The `disk_radius` disk at `center` (the box centre by default); a
    ConfigError naming the keys that place it when it holds no cell."""
    disk = make_domain(f"disk:{cfg['disk_radius']}", grid, center=center)
    if disk.n_inside == 0:
        keys = " or ".join(f"[{cfg.experiment}] {k}: {cfg[k]!r}"
                           for k in (*moved_by, "disk_radius"))
        raise ConfigError(f"bad value for {keys} (the reference disk holds no cell)")
    return disk


def _csv_text(columns, rows):
    """The text of report.csv: the column names, then one line per row, each
    float cell as its `repr` and every other cell (text, ints) as its `str`."""
    def cell(v):
        return repr(float(v)) if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [columns, *rows])


# ---------------------------------------------------------------------------
# experiments; each returns (csv columns, csv rows, failures: list[str])


def _exp_porous(cfg, seed, out_dir):
    if cfg["t1"] <= cfg["t0"]:
        raise _bad("porous", "t1", cfg["t1"], f"must exceed t0 = {cfg['t0']!r}")
    m, t0, t1, half = cfg["m"], cfg["t0"], cfg["t1"], cfg["halfwidth"]
    grid = Grid((cfg["grid_cells"],), (2 * half,))
    phi = nonlinearity_preset(f"porous:{m!r}")
    profile = barenblatt_profile(m, cfg["mass"])
    x = grid.axis_centers(0) - half
    u0 = ScalarField(grid, profile(x, t0))
    A = DiffusionTensor.identity()
    domain = RasterDomain.full(grid)
    failures = []
    series_list = []
    drift_tol = cfg["mass_drift_tol"]
    for n in cfg["n_list"]:
        run = run_scheme(u0, n, (t0, t1), A, phi, bc=cfg["bc"])
        series_list.append(run.series)
        masses = [mass(f) for f in run.states]
        drift = max(abs(b - a) for a, b in zip(masses[:-1], masses[1:]))
        if drift / (abs(masses[0]) + 1e-300) > drift_tol:
            failures.append(f"mass drift {drift:.3e} at N={n} exceeds {drift_tol:g}")
        erep = energy_report(run.series, A, phi, rel_tol=cfg["energy_rel_tol"])
        if not erep.ok:
            failures.append(f"energy inequality violated at N={n} steps {erep.violations[:3]}")
        if any(float(np.min(f.values)) < -1e-10 for f in run.states):
            failures.append(f"positivity violated at N={n}")
    write_grid_file(out_dir / "final_state.grid", run.states[-1])
    exact = profile(x, t1)
    final = run.states[-1].values
    l1_err = float(np.sum(np.abs(final - exact)) * grid.cell_volume)
    l1_rel = l1_err / (float(np.sum(np.abs(exact)) * grid.cell_volume) + 1e-300)
    if l1_rel > cfg["l1_tol"]:
        failures.append(f"L1 error vs closed form {l1_rel:.4f} exceeds tolerance")
    monitor = hypothesis_monitor(series_list, phi, cfg["hminus_m"], domain)
    if not monitor.verdict:
        failures.extend(monitor.failures)
    return monitor.columns, monitor.rows, failures


def _exp_commutator(cfg, seed, out_dir):
    grid = Grid((cfg["cells"],), (1.0,))
    _check_kernels(cfg, grid, "k_list", cfg["k_list"])
    x = grid.axis_centers(0)
    a_space = ScalarField(grid, np.sin(2 * np.pi * x))
    b_space = ScalarField(grid, np.sign(np.sin(4 * np.pi * x)))
    # member n's slice j is (c a, c b) with c = sin(2 pi n t_j)
    coefs = oscillation_coefficients(range(1, cfg["members"] + 1), cfg["n_slices"])
    sup_l1 = {}
    for k in cfg["k_list"]:
        mol = make_mollifier(k, grid)
        sup_l1[k] = max(separable_commutator_l1(a_space, b_space, coefs, (0.0, 1.0), mol))
    failures = []
    ks = sorted(cfg["k_list"])
    vals = [sup_l1[k] for k in ks]
    if any(b > a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:])):
        failures.append("sup_n commutator L1 not nonincreasing in k")
    factor = cfg["decay_factor"]
    if vals[-1] > vals[0] / factor:
        failures.append(f"commutator L1 at k={ks[-1]} above value(k={ks[0]})/{factor:g}")
    return ("k", "sup_l1"), [(k, sup_l1[k]) for k in ks], failures


def _exp_productlimit(cfg, seed, out_dir):
    cells, n_slices, k_list = cfg["cells"], cfg["n_slices"], cfg["k_list"]
    grid = Grid((cells,), (1.0,))
    _check_kernels(cfg, grid, "k_list", cfg["k_list"])
    x = grid.axis_centers(0)
    a_lim = ScalarField(grid, np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    b_space = ScalarField(grid, np.cos(2 * np.pi * x))
    interval = (0.0, 1.0)
    a_seq, b_seq = [], []
    for n in range(1, cfg["members"] + 1):
        j = max(1, round(cells / (8 * n)))
        shifted = shift_space(a_lim, [j * grid.spacing[0]])
        a_seq.append(StepTimeSeries(interval, (shifted,) * n_slices))
        b_seq.append(StepTimeSeries(interval, (b_space,) * n_slices))
    theta = ScalarField(grid, np.sin(np.pi * x) ** 2)
    report = product_pipeline(a_seq, b_seq, theta, k_list, a_lim, b_space)
    failures = []
    if report.max_accounting_defect() > cfg["accounting_tol"]:
        failures.append(f"pipeline accounting defect {report.max_accounting_defect():.3e}")
    mol = make_mollifier(max(k_list), grid)
    tdef = transposition_defect(a_seq[0] * b_seq[0], theta, mol)
    if tdef > 1e-10:
        failures.append(f"step-4 transposition identity defect {tdef:.3e}")
    k_big = max(k_list)
    totals = [abs(t) for t in report.column("total", k=k_big)]
    if totals[-1] > 0.6 * totals[0] + 1e-9:
        failures.append("pipeline total pairing does not settle in n")
    return report.columns, [astuple(r) for r in report.rows], failures


def _exp_movedom(cfg, seed, out_dir):
    n, eps = cfg["grid"], cfg["eps"]
    grid = Grid((n, n), (1.0, 1.0))
    disk = _reference_disk(cfg, grid)
    square = make_domain("square:1.0", grid)
    rows = []
    failures = []

    def record(check, name, value, bound, ok):
        rows.append((check, name, value, bound, int(ok)))
        if not ok:
            failures.append(f"{check}:{name}")

    # the eps = 0 interior is the square itself, whose constant is c_sq
    interiors = [None if e == 0.0 else eps_interior(square, e) for e in cfg["eps_list"]]
    for e, inner in zip(cfg["eps_list"], interiors):
        if inner is not None and inner.n_inside < 2:
            raise _bad("movedom", "eps_list", cfg["eps_list"],
                       f"the {e:g}-interior of the unit square holds {inner.n_inside} "
                       "cells; a Poincare constant needs two")
    c_sq = poincare_constant(square)
    ok = abs(c_sq - 1.0 / np.pi) <= cfg["poincare_tol"] / np.pi
    record("poincare", "unit_square", c_sq, 1.0 / np.pi, ok)
    sweep = [c_sq if inner is None else poincare_constant(inner) for inner in interiors]
    spread = (max(sweep) - min(sweep)) / max(sweep)
    record("poincare_sweep", "square_spread", spread, cfg["spread_tol"],
           spread <= cfg["spread_tol"])
    interval = (0.0, 1.0)
    center = (0.5, 0.5)
    dil = make_family("dilation", interval, amplitude=cfg["dilation_amplitude"],
                      center=center)
    tra = make_family("translation", interval, velocity=(0.05, 0.0))
    for name, fam in (("translation", tra), ("dilation", dil)):
        jb = jacobian_bounds(fam)
        record("jacobian", name, jb.raw_min, jb.raw_max, jb.raw_min <= jb.raw_max)
        # one moving domain: the framing check's slices serve the peel measure
        nc = NonCylindricalDomain(fam, disk, cfg["n_slices"])
        fr = framing_check(nc, eps)
        record("framing", name, fr.inner_violations_banded, 0, fr.ok)
        peel = peel_measure(nc, eps)
        record("peel", name, peel.measured_sup, peel.bound * 1.02, peel.ok)
    # raster semigroup identity within a one-cell band
    e1 = eps_interior(disk, eps / 2)
    e2 = eps_interior(e1, eps / 2)
    direct = eps_interior(disk, eps)
    off_band = symmetric_difference_band(e2, direct, disk.signed_distance, eps)
    record("semigroup", "disk", off_band, 0, off_band == 0)
    return ("check", "name", "value", "bound", "ok"), rows, failures


def _exp_divfree(cfg, seed, out_dir):
    """Each field is drawn, checked and dropped in turn; only the fields and
    projections that the pair checks read are kept.  The Poincare constant
    and the Neumann factor draw nothing from `rng`, so field i is its i-th
    draw."""
    n, n_fields, tol = cfg["grid"], cfg["n_fields"], cfg["residual_tol"]
    n_pairs = min(cfg["pair_checks"], n_fields - 1)
    grid = Grid((n, n), (1.0, 1.0))
    domain = RasterDomain.full(grid)
    rng = generator(seed)
    rows = []
    failures = []
    fields, projected = [], []
    # every projection runs on this one raster: one constant and one factor
    c_poincare = poincare_constant(domain)
    factor = neumann_factor(domain)
    for i in range(n_fields):
        u = random_stream_velocity(grid, rng)
        rep = dual_norm_check(u, domain, c_poincare, factor)
        pu = rep.projected
        if i <= n_pairs:
            fields.append(u)
            projected.append(pu)
        div_res = float(np.max(np.abs(divergence(pu).values)))
        tr = normal_trace(pu, domain)
        tr_res = max(float(np.max(np.abs(v))) for v in tr.values)
        pyth = abs(rep.l2 ** 2 - rep.seminorm ** 2 - rep.surrogate ** 2) / (rep.l2 ** 2 + 1e-300)
        scale = rep.l2 + 1e-300
        ok = (div_res <= tol * scale / min(grid.spacing) and tr_res <= tol * scale
              and pyth <= tol and rep.ok)
        rows.append((i, rep.l2, rep.seminorm, rep.surrogate, div_res, tr_res, pyth, rep.slack))
        if not ok:
            failures.append(f"projection residuals out of tolerance at field {i}")
    for j in range(n_pairs):
        u, w = fields[j], fields[j + 1]
        lhs = staggered_inner(projected[j], w)
        rhs = staggered_inner(u, projected[j + 1])
        scale = staggered_l2(u) * staggered_l2(w) + 1e-300
        if abs(lhs - rhs) / scale > 1e-8:
            failures.append(f"projection not self-adjoint at pair {j}")
    one = StaggeredVectorField.constant(grid, (1.0, 0.0))
    witness = staggered_l2(project_divfree0(one, domain, factor))
    if witness > 1e-8:
        failures.append(f"seminorm witness ||P(1,0)|| = {witness:.3e} above 1e-8")
    rows.append(("witness", staggered_l2(one), witness, "", "", "", "", ""))
    columns = ("field", "l2", "seminorm", "surrogate", "div_residual", "trace_residual",
               "pythagoras", "slack")
    return columns, rows, failures


def _exp_nsprobe(cfg, seed, out_dir):
    n, n_slices, delta_list = cfg["grid"], cfg["n_slices"], cfg["delta_list"]
    grid = Grid((n, n), (1.0, 1.0))
    _check_kernels(cfg, grid, "delta_list", [1.0 / d for d in delta_list])
    interval = (0.0, 1.0)
    disk_r, speed = cfg["disk_radius"], cfg["speed"]
    convergent = cfg["family"] == "convergent"
    if convergent:
        center = (0.5 - speed / 2, 0.5)
        reference = _reference_disk(cfg, grid, center, moved_by=("speed",))
        fam = make_family("translation", interval, velocity=(speed, 0.0))
    else:
        center = (0.5, 0.5)
        reference = _reference_disk(cfg, grid, center)
        fam = make_family("identity", interval)
    nc = NonCylindricalDomain(fam, reference, n_slices)
    compact = nc.compact_core(2.0 * max(delta_list))
    if compact.n_inside == 0:
        raise _bad("nsprobe", "delta_list", delta_list,
                   "the compact core is empty; shrink delta_list or speed")
    if convergent:
        family = translating_disk_ns_family(
            grid, interval, n_slices, cfg["members"], center, disk_r,
            (speed, 0.0), stream_fraction=0.55)
    else:
        family = oscillating_family(disk_bump_velocity(grid, center, 0.55 * disk_r),
                                    interval, n_slices, cfg["osc_list"])
    # restricted here, the probe's own restriction copies nothing, and the
    # unrestricted family is freed before the probe starts
    slices = [nc.slice_raster(k) for k in range(n_slices)]
    members = [s.restricted(slices) for s in family]
    del family
    dt = (interval[1] - interval[0]) / n_slices
    report = ns_probe(members, nc, delta_list, [dt, 2 * dt, 4 * dt], compact,
                      battery_seed=seed)
    failures = list(report.failures)
    if report.budget_defect > 1e-10:
        failures.append(f"budget additivity defect {report.budget_defect:.3e}")
    return report.columns, [astuple(r) for r in report.rows], failures


def _exp_kruzhkov(cfg, seed, out_dir):
    n, n_slices, m_interior = cfg["grid"], cfg["n_slices"], cfg["m_interior"]
    ell_list, speed = cfg["ell_list"], cfg["speed"]
    grid = Grid((n, n), (1.0, 1.0))
    _check_kernels(cfg, grid, "ell_list", ell_list)
    interval = (0.0, 1.0)
    ref = _reference_disk(cfg, grid, (0.5 - speed / 2, 0.5), moved_by=("speed",))
    fam = make_family("translation", interval, velocity=(speed, 0.0))
    nc = NonCylindricalDomain(fam, ref, n_slices)
    try:
        check_ell_list(nc, m_interior, ell_list)
    except ValueError as e:
        raise _bad("kruzhkov", "ell_list", ell_list, e) from None
    rng = generator(seed)
    base = random_smooth_field(grid, rng, modes=3)
    pert = random_smooth_field(grid, rng, modes=3)
    if cfg["family"] == "perturbation":
        members = perturbation_scalar_family(base, pert, interval, n_slices, cfg["members"])
    else:
        members = oscillating_family(base, interval, n_slices, cfg["osc_list"])
    report = kruzhkov_probe(members, nc, m_interior, ell_list)
    failures = list(report.failures)
    if report.max_budget_defect > cfg["budget_tol"]:
        failures.append(f"three-term budget defect {report.max_budget_defect:.3e}")
    return report.columns, report.rows, failures


EXPERIMENTS = {
    "porous": _exp_porous,
    "commutator": _exp_commutator,
    "productlimit": _exp_productlimit,
    "movedom": _exp_movedom,
    "divfree": _exp_divfree,
    "nsprobe": _exp_nsprobe,
    "kruzhkov": _exp_kruzhkov,
}


def run(experiment, config_path, out_dir, seed=None):
    """Run one named experiment; returns the process exit code.  A Newton
    breakdown is a failed run: a FAIL manifest naming it, and no report."""
    if experiment not in EXPERIMENTS:
        print(f"unknown experiment {experiment!r}; try `compactness-lab list`",
              file=sys.stderr)
        return 2
    try:
        cfg = load_config(config_path, experiment)
        if seed is None:
            seed = cfg.seed
        elif seed < 0:
            raise ConfigError(f"bad value for --seed: {seed} (must be >= 0)")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        t_start = time.perf_counter()
        columns, rows, failures = EXPERIMENTS[experiment](cfg, seed, out)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except NewtonFailure as e:
        rows, failures = None, [f"NewtonFailure: {e}"]
    wall = time.perf_counter() - t_start
    if rows is not None:
        (out / "report.csv").write_text(_csv_text(columns, rows))
    manifest = [
        f"experiment = {experiment}",
        f"seed = {seed}",
        f"versions = compactness-lab {__version__}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, python {sys.version.split()[0]}",
        f"wall_time_s = {wall:.3f}",
        "config:",
        cfg.echo(),
        f"verdict = {'pass' if not failures else 'FAIL'}",
    ]
    manifest += [f"failure: {f}" for f in failures]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 0 if not failures else 1


def list_experiments():
    print("experiments and config keys (default; rule):")
    for name, table in KEYS.items():
        print(f"  {name}")
        for k, (default, rule) in table.items():
            print(f"    {k} = {default}  ({rule.text})")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="compactness-lab")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a named experiment")
    run_p.add_argument("experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    sub.add_parser("list", help="list experiments and config keys")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.experiment, args.config, args.out, seed=args.seed)
    if args.command == "list":
        list_experiments()
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
