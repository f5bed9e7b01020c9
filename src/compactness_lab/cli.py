"""Experiment runner: named experiments over the library modules, flat
`key = value` configs with [section] headers, deterministic seeds, CSV + grid
outputs.

Exit codes: 0 all invariant assertions passed, 1 an assertion failed (the
manifest names it), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .divfree import (dual_norm_check, normal_trace, project_divfree0,
                      staggered_inner, staggered_l2)
from .grid import (Grid, RasterDomain, ScalarField, StaggeredVectorField,
                   divergence)
from .mollify import make_mollifier, commutator
from .movedom import (NonCylindricalDomain, eps_interior, framing_check,
                      jacobian_bounds, make_domain, make_family, peel_measure,
                      poincare_constant, symmetric_difference_band,
                      uniform_poincare_sweep)
from .parabolic import (DiffusionTensor, StepTimeSeries, barenblatt_profile,
                        energy_report, mass, run_scheme, hypothesis_monitor)
from .probe import kruzhkov_probe, ns_probe
from .productlimit import product_pipeline, transposition_defect
from .synth import (generator, oscillating_ns_family, oscillating_scalar_family,
                    perturbation_scalar_family, translating_disk_ns_family)
from .truncate import nonlinearity_preset


DEFAULTS = {
    "porous": {
        "grid_cells": "512", "halfwidth": "3.0", "m": "2.0", "t0": "0.1",
        "t1": "1.0", "mass": "1.0", "n_list": "16,32,64,128,256",
        "hminus_m": "1", "bc": "noflux", "l1_tol": "0.02",
        "mass_drift_tol": "1e-12", "energy_rel_tol": "1e-8",
    },
    "commutator": {
        "cells": "2048", "members": "16", "n_slices": "32",
        "k_list": "4,8,16,32,64", "decay_factor": "8.0",
    },
    "productlimit": {
        "cells": "256", "n_slices": "8", "members": "8", "k_list": "4,8,16,32",
        "accounting_tol": "1e-10",
    },
    "movedom": {
        "grid": "128", "eps": "0.1", "eps_list": "0.0,0.05,0.1",
        "disk_radius": "0.4", "poincare_tol": "0.01", "spread_tol": "0.25",
        "n_slices": "16", "dilation_amplitude": "0.25",
    },
    "divfree": {
        "grid": "64", "n_fields": "100", "residual_tol": "1e-8",
        "pair_checks": "20",
    },
    "nsprobe": {
        "family": "convergent", "grid": "64", "n_slices": "16", "members": "4",
        "osc_list": "2,4,8", "delta_list": "0.0625,0.03125",
        "disk_radius": "0.3", "speed": "0.15",
    },
    "kruzhkov": {
        "family": "perturbation", "grid": "64", "n_slices": "8", "members": "6",
        "osc_list": "1,2,4", "m_interior": "8", "ell_list": "16,24,32",
        "speed": "0.1", "disk_radius": "0.35", "budget_tol": "1e-10",
    },
}


class ConfigError(Exception):
    pass


class Config:
    def __init__(self, parser, experiment):
        self._parser = parser
        self._experiment = experiment

    def get(self, key, cast=str):
        section = self._experiment
        if self._parser.has_option(section, key):
            raw = self._parser.get(section, key)
        elif key in DEFAULTS[self._experiment]:
            raw = DEFAULTS[self._experiment][key]
        else:
            raise ConfigError(f"missing config key [{section}] {key}")
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes")
            return cast(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({e})")

    def get_list(self, key, cast=float):
        raw = self.get(key)
        return [cast(tok) for tok in str(raw).split(",") if tok.strip()]

    def echo(self):
        lines = []
        for section in self._parser.sections():
            lines.append(f"[{section}]")
            for k, v in self._parser.items(section):
                lines.append(f"{k} = {v}")
        lines.append(f"[{self._experiment}] effective defaults:")
        for k, v in DEFAULTS[self._experiment].items():
            if not self._parser.has_option(self._experiment, k):
                lines.append(f"{k} = {v}  (default)")
        return "\n".join(lines)


def load_config(path, experiment):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(p)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}")
    return Config(parser, experiment)


# ---------------------------------------------------------------------------
# experiments; each returns (csv_rows: list[str], failures: list[str])


def _exp_porous(cfg, seed, out_dir):
    cells = cfg.get("grid_cells", int)
    half = cfg.get("halfwidth", float)
    m = cfg.get("m", float)
    t0, t1 = cfg.get("t0", float), cfg.get("t1", float)
    total_mass = cfg.get("mass", float)
    n_list = cfg.get_list("n_list", int)
    m_dual = cfg.get("hminus_m", int)
    bc = cfg.get("bc")
    grid = Grid((cells,), (2 * half,))
    phi = nonlinearity_preset(f"porous:{m:g}")
    profile = barenblatt_profile(m, total_mass)
    x = grid.axis_centers(0) - half
    u0 = ScalarField(grid, profile(x, t0))
    A = DiffusionTensor.identity()
    domain = RasterDomain.full(grid)
    failures = []
    series_list = []
    drift_tol = cfg.get("mass_drift_tol", float)
    for n in n_list:
        run = run_scheme(u0, n, (t0, t1), A, phi, bc=bc)
        series_list.append(run.series)
        masses = [mass(f) for f in run.states]
        drift = max(abs(b - a) for a, b in zip(masses[:-1], masses[1:]))
        if drift / (abs(masses[0]) + 1e-300) > drift_tol:
            failures.append(f"mass drift {drift:.3e} at N={n} exceeds {drift_tol:g}")
        erep = energy_report(run.series, A, phi, rel_tol=cfg.get("energy_rel_tol", float))
        if not erep.ok:
            failures.append(f"energy inequality violated at N={n} steps {erep.violations[:3]}")
        if any(float(np.min(f.values)) < -1e-10 for f in run.states):
            failures.append(f"positivity violated at N={n}")
    from .grid import write_grid_file
    write_grid_file(out_dir / "final_state.grid", run.states[-1])
    exact = profile(x, t1)
    final = run.states[-1].values
    l1_err = float(np.sum(np.abs(final - exact)) * grid.cell_volume)
    l1_rel = l1_err / (float(np.sum(np.abs(exact)) * grid.cell_volume) + 1e-300)
    if l1_rel > cfg.get("l1_tol", float):
        failures.append(f"L1 error vs closed form {l1_rel:.4f} exceeds tolerance")
    monitor = hypothesis_monitor(series_list, phi, m_dual, domain)
    if not monitor.verdict:
        failures.extend(monitor.failures)
    return monitor.csv_lines(), failures


def _exp_commutator(cfg, seed, out_dir):
    cells = cfg.get("cells", int)
    members = cfg.get("members", int)
    n_slices = cfg.get("n_slices", int)
    k_list = cfg.get_list("k_list", int)
    grid = Grid((cells,), (1.0,))
    x = grid.axis_centers(0)
    a_space = ScalarField(grid, np.sin(2 * np.pi * x))
    b_space = ScalarField(grid, np.sign(np.sin(4 * np.pi * x)))
    interval = (0.0, 1.0)
    mids = (np.arange(n_slices) + 0.5) / n_slices
    sup_l1 = {}
    for k in k_list:
        mol = make_mollifier(k, grid)
        worst = 0.0
        for n in range(1, members + 1):
            coefs = np.sin(2 * np.pi * n * mids)
            a_n = StepTimeSeries(interval, tuple(a_space * float(c) for c in coefs))
            b_n = StepTimeSeries(interval, tuple(b_space * float(c) for c in coefs))
            _, l1 = commutator(a_n, b_n, mol)
            worst = max(worst, l1)
        sup_l1[k] = worst
    failures = []
    ks = sorted(k_list)
    vals = [sup_l1[k] for k in ks]
    if any(b > a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:])):
        failures.append("sup_n commutator L1 not nonincreasing in k")
    factor = cfg.get("decay_factor", float)
    if vals[-1] > vals[0] / factor:
        failures.append(f"commutator L1 at k={ks[-1]} above value(k={ks[0]})/{factor:g}")
    rows = ["k,sup_l1"]
    rows += [f"{k},{sup_l1[k]!r}" for k in ks]
    return rows, failures


def _exp_productlimit(cfg, seed, out_dir):
    cells = cfg.get("cells", int)
    n_slices = cfg.get("n_slices", int)
    members = cfg.get("members", int)
    k_list = cfg.get_list("k_list", int)
    grid = Grid((cells,), (1.0,))
    x = grid.axis_centers(0)
    a_lim = ScalarField(grid, np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    b_space = ScalarField(grid, np.cos(2 * np.pi * x))
    interval = (0.0, 1.0)
    a_seq, b_seq = [], []
    from .mollify import shift_space
    for n in range(1, members + 1):
        j = max(1, round(cells / (8 * n)))
        shifted = shift_space(a_lim, [j * grid.spacing[0]])
        a_seq.append(StepTimeSeries(interval, (shifted,) * n_slices))
        b_seq.append(StepTimeSeries(interval, (b_space,) * n_slices))
    theta = ScalarField(grid, np.sin(np.pi * x) ** 2)
    report = product_pipeline(a_seq, b_seq, theta, k_list, a_lim, b_space)
    failures = []
    tol = cfg.get("accounting_tol", float)
    if report.max_accounting_defect() > tol:
        failures.append(f"pipeline accounting defect {report.max_accounting_defect():.3e}")
    mol = make_mollifier(max(k_list), grid)
    tdef = transposition_defect(a_seq[0] * b_seq[0], theta, mol)
    if tdef > 1e-10:
        failures.append(f"step-4 transposition identity defect {tdef:.3e}")
    k_big = max(k_list)
    totals = [abs(t) for t in report.column("total", k=k_big)]
    if totals[-1] > 0.6 * totals[0] + 1e-9:
        failures.append("pipeline total pairing does not settle in n")
    return report.csv_lines(), failures


def _exp_movedom(cfg, seed, out_dir):
    n = cfg.get("grid", int)
    grid = Grid((n, n), (1.0, 1.0))
    disk_r = cfg.get("disk_radius", float)
    disk = make_domain(f"disk:{disk_r}", grid)
    square = make_domain("square:1.0", grid)
    eps = cfg.get("eps", float)
    rows = ["check,name,value,bound,ok"]
    failures = []

    def record(check, name, value, bound, ok):
        rows.append(f"{check},{name},{value!r},{bound!r},{int(ok)}")
        if not ok:
            failures.append(f"{check}:{name}")

    c_sq = poincare_constant(square)
    tol = cfg.get("poincare_tol", float)
    ok = abs(c_sq - 1.0 / np.pi) <= tol / np.pi
    record("poincare", "unit_square", c_sq, 1.0 / np.pi, ok)
    sweep = uniform_poincare_sweep(square, cfg.get_list("eps_list", float))
    spread = (max(sweep.constants) - min(sweep.constants)) / max(sweep.constants)
    record("poincare_sweep", "square_spread", spread, cfg.get("spread_tol", float),
           spread <= cfg.get("spread_tol", float))
    interval = (0.0, 1.0)
    center = (0.5, 0.5)
    dil = make_family("dilation", interval, amplitude=cfg.get("dilation_amplitude", float),
                      center=center)
    tra = make_family("translation", interval, velocity=(0.05, 0.0))
    for name, fam in (("translation", tra), ("dilation", dil)):
        jb = jacobian_bounds(fam, disk)
        record("jacobian", name, jb.raw_min, jb.raw_max, jb.raw_min <= jb.raw_max)
        fr = framing_check(fam, disk, eps, n_slices=cfg.get("n_slices", int))
        record("framing", name, fr.inner_violations_banded, 0, fr.ok)
        nc = NonCylindricalDomain(fam, disk, cfg.get("n_slices", int))
        peel = peel_measure(nc, eps, jb=jb)
        record("peel", name, peel.measured_sup, peel.bound * 1.02, peel.ok)
    # raster semigroup identity within a one-cell band
    e1 = eps_interior(disk, eps / 2)
    e2 = eps_interior(e1, eps / 2)
    direct = eps_interior(disk, eps)
    off_band = symmetric_difference_band(e2, direct, disk.signed_distance, eps)
    record("semigroup", "disk", off_band, 0, off_band == 0)
    return rows, failures


def _exp_divfree(cfg, seed, out_dir):
    n = cfg.get("grid", int)
    grid = Grid((n, n), (1.0, 1.0))
    domain = RasterDomain.full(grid)
    n_fields = cfg.get("n_fields", int)
    tol = cfg.get("residual_tol", float)
    rng = generator(seed)
    from .synth import random_stream_velocity
    rows = ["field,l2,seminorm,surrogate,div_residual,trace_residual,pythagoras,slack"]
    failures = []
    fields = [random_stream_velocity(grid, rng) for _ in range(n_fields)]
    projected = []
    for i, u in enumerate(fields):
        rep = dual_norm_check(u, domain)
        pu = project_divfree0(u, domain)
        projected.append(pu)
        div_res = float(np.max(np.abs(divergence(pu).values)))
        tr = normal_trace(pu, domain)
        tr_res = max(float(np.max(np.abs(v))) for v in tr.values)
        pyth = abs(rep.l2 ** 2 - rep.seminorm ** 2 - rep.surrogate ** 2) / (rep.l2 ** 2 + 1e-300)
        scale = rep.l2 + 1e-300
        ok = (div_res <= tol * scale / min(grid.spacing) and tr_res <= tol * scale
              and pyth <= tol and rep.ok)
        rows.append(f"{i},{rep.l2!r},{rep.seminorm!r},{rep.surrogate!r},"
                    f"{div_res!r},{tr_res!r},{pyth!r},{rep.slack!r}")
        if not ok:
            failures.append(f"projection residuals out of tolerance at field {i}")
    n_pairs = cfg.get("pair_checks", int)
    for j in range(min(n_pairs, n_fields - 1)):
        u, w = fields[j], fields[j + 1]
        lhs = staggered_inner(projected[j], w)
        rhs = staggered_inner(u, projected[j + 1])
        scale = staggered_l2(u) * staggered_l2(w) + 1e-300
        if abs(lhs - rhs) / scale > 1e-8:
            failures.append(f"projection not self-adjoint at pair {j}")
    one = StaggeredVectorField.constant(grid, (1.0, 0.0))
    witness = staggered_l2(project_divfree0(one, domain))
    if witness > 1e-8:
        failures.append(f"seminorm witness ||P(1,0)|| = {witness:.3e} above 1e-8")
    rows.append(f"witness,{staggered_l2(one)!r},{witness!r},,,,,")
    return rows, failures


def _build_nsprobe(cfg, seed):
    n = cfg.get("grid", int)
    grid = Grid((n, n), (1.0, 1.0))
    n_slices = cfg.get("n_slices", int)
    interval = (0.0, 1.0)
    disk_r = cfg.get("disk_radius", float)
    family_kind = cfg.get("family")
    delta_list = cfg.get_list("delta_list", float)
    if family_kind == "convergent":
        speed = cfg.get("speed", float)
        center = (0.5 - speed / 2, 0.5)
        fam = make_family("translation", interval, velocity=(speed, 0.0))
        members = translating_disk_ns_family(
            grid, interval, n_slices, cfg.get("members", int), center, disk_r,
            (speed, 0.0), stream_fraction=0.55)
        ref = make_domain(f"disk:{disk_r}", grid, center=center)
    elif family_kind == "oscillating":
        center = (0.5, 0.5)
        fam = make_family("identity", interval)
        members = oscillating_ns_family(grid, interval, n_slices,
                                        cfg.get_list("osc_list", int), center, disk_r,
                                        stream_fraction=0.55)
        ref = make_domain(f"disk:{disk_r}", grid, center=center)
    else:
        raise ConfigError(f"unknown nsprobe family {family_kind!r}")
    nc = NonCylindricalDomain(fam, ref, n_slices)
    inter = np.ones(grid.shape, dtype=bool)
    for k in range(n_slices):
        inter &= nc.transported(k, 2.0 * max(delta_list)).inside
    compact = RasterDomain.from_membership(grid, inter)
    compact = eps_interior(compact, 2 * max(grid.spacing))
    if compact.n_inside == 0:
        raise ConfigError("compact raster is empty; shrink delta_list or the motion")
    dt = (interval[1] - interval[0]) / n_slices
    s_list = [dt, 2 * dt, 4 * dt]
    return members, nc, delta_list, s_list, compact


def _exp_nsprobe(cfg, seed, out_dir):
    members, nc, delta_list, s_list, compact = _build_nsprobe(cfg, seed)
    report = ns_probe(members, nc, delta_list, s_list, compact, battery_seed=seed)
    failures = list(report.failures)
    if report.budget_defect > 1e-10:
        failures.append(f"budget additivity defect {report.budget_defect:.3e}")
    return report.csv_lines(), failures


def _exp_kruzhkov(cfg, seed, out_dir):
    n = cfg.get("grid", int)
    grid = Grid((n, n), (1.0, 1.0))
    n_slices = cfg.get("n_slices", int)
    interval = (0.0, 1.0)
    disk_r = cfg.get("disk_radius", float)
    speed = cfg.get("speed", float)
    center = (0.5 - speed / 2, 0.5)
    fam = make_family("translation", interval, velocity=(speed, 0.0))
    ref = make_domain(f"disk:{disk_r}", grid, center=center)
    nc = NonCylindricalDomain(fam, ref, n_slices)
    rng = generator(seed)
    from .synth import random_smooth_field
    base = random_smooth_field(grid, rng, modes=3)
    pert = random_smooth_field(grid, rng, modes=3)
    kind = cfg.get("family")
    if kind == "perturbation":
        members = perturbation_scalar_family(base, pert, interval, n_slices,
                                             cfg.get("members", int))
    elif kind == "oscillating":
        members = oscillating_scalar_family(base, interval, n_slices,
                                            cfg.get_list("osc_list", int))
    else:
        raise ConfigError(f"unknown kruzhkov family {kind!r}")
    report = kruzhkov_probe(members, nc, cfg.get("m_interior", int),
                            cfg.get_list("ell_list", int))
    failures = list(report.failures)
    if report.max_budget_defect > cfg.get("budget_tol", float):
        failures.append(f"three-term budget defect {report.max_budget_defect:.3e}")
    return report.csv_lines(), failures


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
    """Run one named experiment; returns the process exit code."""
    if experiment not in EXPERIMENTS:
        print(f"unknown experiment {experiment!r}; try `compactness-lab list`",
              file=sys.stderr)
        return 2
    try:
        cfg = load_config(config_path, experiment)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    if seed is None:
        try:
            seed = cfg.get("seed", int) if cfg._parser.has_option(experiment, "seed") else 0
        except ConfigError:
            seed = 0
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    try:
        rows, failures = EXPERIMENTS[experiment](cfg, seed, out)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    wall = time.perf_counter() - t_start
    (out / "report.csv").write_text("\n".join(rows) + "\n")
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


def list_experiments(file=None):
    file = file or sys.stdout
    print("experiments and config keys (defaults):", file=file)
    for name, defaults in DEFAULTS.items():
        print(f"  {name}", file=file)
        for k, v in defaults.items():
            print(f"    {k} = {v}", file=file)


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
