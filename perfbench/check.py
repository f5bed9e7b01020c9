"""Correctness gate for one experiment run of the benchmark.

A run passes when it exited 0, its manifest says `verdict = pass`, and its
`report.csv` matches the committed reference in `reference/`:

- key columns (the row labels) match exactly;
- headline columns match within RTOL, relative to the reference value or,
  for entries much smaller than the rest of their column, to FLOOR_SHARE of
  the column's largest magnitude;
- residual-type columns are not compared, since a correct solver change
  moves them at rounding level.  The experiment holds them to its own
  tolerance, and any miss makes its verdict FAIL.

`divfree`, `nsprobe` and `kruzhkov` draw random inputs from the seed, so their
references exist per seed (`<experiment>.seed<N>.csv`); for a seed without
one, every other check still applies.  The other experiments ignore the seed
and have one reference each.  `make_reference.py` writes them all.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-5
FLOOR_SHARE = 1e-2
SEEDED = ("divfree", "nsprobe", "kruzhkov")
KEYS = {
    "porous": ("N",), "commutator": ("k",), "productlimit": ("n", "k"),
    "movedom": ("check", "name", "ok"), "divfree": ("field",),
    "nsprobe": ("n", "delta", "s"), "kruzhkov": ("n", "q", "ell"),
}
RESIDUAL = {"divfree": ("div_residual", "trace_residual", "pythagoras")}


def reference_path(experiment, seed):
    name = f"{experiment}.seed{seed}.csv" if experiment in SEEDED else f"{experiment}.csv"
    return REFERENCE / name


def manifest_config(manifest):
    """Effective config echoed in manifest.txt, as strings."""
    config = {}
    for line in manifest.splitlines():
        match = re.match(r"^(\w+) = (\S+)", line)
        if match:
            config.setdefault(match.group(1), match.group(2))
    return config


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _close(value, ref, column_max):
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= RTOL * max(abs(ref), FLOOR_SHARE * column_max)


def check_report(experiment, text, reference):
    """Failures of one report.csv against its reference text."""
    rows, ref_rows = _rows(text), _rows(reference)
    header, ref_header = text.split("\n", 1)[0], reference.split("\n", 1)[0]
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"report shape differs from reference ({header!r}, {len(rows)} rows)"]
    failures = []
    skip = set(KEYS[experiment]) | set(RESIDUAL.get(experiment, ()))
    columns = [c for c in ref_header.split(",") if c not in skip]
    column_max = {}
    for c in columns:
        values = [abs(float(r[c])) for r in ref_rows if r[c] and not math.isnan(float(r[c]))]
        column_max[c] = max(values, default=0.0)
    for row, ref in zip(rows, ref_rows):
        label = ",".join(ref[k] for k in KEYS[experiment])
        if any(row[k] != ref[k] for k in KEYS[experiment]):
            failures.append(f"row {label}: key columns differ")
            continue
        if experiment == "divfree" and ref["field"] == "witness":
            columns_here = ["l2"]  # its seminorm is a residual, held by the verdict
        else:
            columns_here = columns
        for c in columns_here:
            if (row[c] == "") != (ref[c] == ""):
                failures.append(f"row {label}: {c} empty on one side")
            elif row[c] and not _close(float(row[c]), float(ref[c]), column_max[c]):
                failures.append(f"row {label}: {c} = {row[c]} vs reference {ref[c]}")
    return failures


def barenblatt(x, t, m, total_mass):
    """Closed-form 1D source solution of u_t = (u^m)_xx with the given mass."""
    alpha = 1.0 / (m + 1.0)
    kappa = alpha * (m - 1.0) / (2.0 * m)
    p = 1.0 / (m - 1.0)
    # integral of (C - kappa y^2)_+^p dy = C^(p+1/2) sqrt(pi/kappa) G(p+1)/G(p+3/2)
    shape = math.sqrt(math.pi / kappa) * math.gamma(p + 1.0) / math.gamma(p + 1.5)
    c = (total_mass / shape) ** (1.0 / (p + 0.5))
    core = c - kappa * x * x * t ** (-2.0 * alpha)
    return t ** (-alpha) * max(core, 0.0) ** p


def porous_l1_rel_err(grid_file, config):
    """Relative L1 error of the written final state against the closed form."""
    lines = Path(grid_file).read_text().split("\n")
    cells, extent = int(lines[0].split()[1]), float(lines[1])
    values = [float(v) for v in lines[2:2 + cells]]
    half = float(config["halfwidth"])
    h = extent / cells
    exact = [barenblatt((i + 0.5) * h - half, float(config["t1"]), float(config["m"]),
                        float(config["mass"])) for i in range(cells)]
    return (sum(abs(u - e) for u, e in zip(values, exact))
            / sum(abs(e) for e in exact))


def poincare_rel_err(report):
    row = next(r for r in _rows(report) if (r["check"], r["name"]) == ("poincare", "unit_square"))
    return abs(float(row["value"]) - 1.0 / math.pi) * math.pi


def check_run(experiment, out_dir, seed):
    """All failures of one finished run in `out_dir`, and its accuracy figures."""
    out_dir = Path(out_dir)
    manifest = (out_dir / "manifest.txt").read_text()
    if "verdict = pass" not in manifest.splitlines():
        return ["manifest verdict is not pass"], {}
    config = manifest_config(manifest)
    text = (out_dir / "report.csv").read_text()
    ref_file = reference_path(experiment, seed)
    failures = check_report(experiment, text, ref_file.read_text()) if ref_file.is_file() else []
    accuracy = {}
    if experiment == "porous":
        err = porous_l1_rel_err(out_dir / "final_state.grid", config)
        ref = json.loads((REFERENCE / "accuracy.json").read_text())["porous_l1_rel_err"]
        if not (err <= float(config["l1_tol"]) and abs(err - ref) <= RTOL * ref):
            failures.append(f"porous L1 error {err:.6e} vs reference {ref:.6e}")
        accuracy["porous_l1_rel_err"] = err
    if experiment == "movedom":
        accuracy["poincare_rel_err"] = poincare_rel_err(text)
    return failures, accuracy
