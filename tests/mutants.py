"""Mutation check of the reported columns.

Each mutant changes numbers that go into a `report.csv`: most scale one
number by 1.01, and `oscillating.unreduced_phase` takes the oscillating
family's coefficients from the unreduced np.sin(2 pi n t_j), off by a few
ulp.  It must fail some tier-1 test other than the byte compares of
`tests/test_golden.py` and `tests/test_demos.py`: a column whose mutant
passes every other test has no independent check.

Run it by hand from any directory; pytest does not collect it:

    python tests/mutants.py                  # every mutant
    python tests/mutants.py movedom.peel     # the named ones

Each mutant is one string replacement in one module of a temporary copy of
the repository.  The copy's tier-1 suite then runs without the two byte
compares and stops at its first failure.  The exit status is the number of
mutants that survived or could not run.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "docs", "pyproject.toml")
SKIPPED = ("tests/test_golden.py", "tests/test_demos.py")

# name -> (module of src/compactness_lab, original text, mutated text); each
# original text occurs exactly once in its module
MUTANTS = {
    "porous.l2_norm": ("parabolic.py", "l2 = series_l2(s)", "l2 = series_l2(s) * 1.01"),
    "porous.cauchy_to_prev": (
        "parabolic.py", "cauchy = np.nan if prev is None else series_distance(s, prev)",
        "cauchy = np.nan if prev is None else series_distance(s, prev) * 1.01"),
    "porous.grad_phi_l2": ("parabolic.py", "gphi = grad_phi_l2(s, phi)",
                           "gphi = grad_phi_l2(s, phi) * 1.01"),
    "porous.tv_hminus_m": ("parabolic.py", "tv = time_derivative_tv(s, m, factor)",
                           "tv = time_derivative_tv(s, m, factor) * 1.01"),
    "commutator.sup_l1": ("mollify.py", "out.append(float(l1 * delta))",
                          "out.append(float(l1 * delta) * 1.01)"),
    "commutator.coefficients": (
        "synth.py", "return np.where(m < N, 1.0, -1.0) * np.sin(np.pi * folded / N)",
        "return np.where(m < N, 1.0, -1.0) * np.sin(np.pi * folded / N) * 1.01"),
    "oscillating.unreduced_phase": (
        "synth.py", "for row in oscillation_coefficients(osc_list, n_slices)]",
        "for row in np.sin(2 * np.pi * np.outer(osc_list, (np.arange(n_slices) + 0.5) / n_slices))]"),
    "kruzhkov.term2": ("probe.py", "t2 = series_l2(middle, inner_domains)",
                       "t2 = series_l2(middle, inner_domains) * 1.01"),
    "movedom.peel": ("movedom.py", "return PeelReport(worst,", "return PeelReport(worst * 1.01,"),
    "movedom.peel_bound": ("cli.py", "peel.bound * 1.02,", "peel.bound * 1.02 * 1.01,"),
    "movedom.jacobian_value": ("cli.py", 'record("jacobian", name, jb.raw_min,',
                               'record("jacobian", name, jb.raw_min * 1.01,'),
    "movedom.jacobian_bound": ("cli.py", "name, jb.raw_min, jb.raw_max,",
                               "name, jb.raw_min, jb.raw_max * 1.01,"),
    "movedom.poincare": ("movedom.py", "return float(max(h / (2.0 * np.sin(np.pi / (2 * m)))",
                         "return 1.01 * float(max(h / (2.0 * np.sin(np.pi / (2 * m)))"),
    "divfree.seminorm": ("divfree.py", "seminorm = staggered_l2(pu)",
                         "seminorm = staggered_l2(pu) * 1.01"),
    "divfree.slack": ("divfree.py", "slack = seminorm + (1.0 + c_poincare) * surrogate - l2",
                      "slack = (seminorm + (1.0 + c_poincare) * surrogate - l2) * 1.01"),
    "nsprobe.line1-3": ("probe.py", "return [float(np.sqrt(total * u.delta)) for total in sums]",
                        "return [float(np.sqrt(total * u.delta)) * (1.01 if m < 3 else 1.0)"
                        " for m, total in enumerate(sums)]"),
    "nsprobe.line1": ("probe.py", "l1, l2v, l3, tot))", "l1 * 1.01, l2v, l3, tot))"),
    "nsprobe.line2": ("probe.py", "l1, l2v, l3, tot))", "l1, l2v * 1.01, l3, tot))"),
    "nsprobe.line3": ("probe.py", "l1, l2v, l3, tot))", "l1, l2v, l3 * 1.01, tot))"),
}


def run_mutant(name, workdir):
    """'killed by <test>', 'SURVIVED', or 'ERROR ...' for one mutant."""
    module, before, after = MUTANTS[name]
    copy = workdir / name
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / part)
    path = copy / "src" / "compactness_lab" / module
    text = path.read_text()
    if text.count(before) != 1:
        return f"ERROR: {before!r} does not occur once in {module}"
    path.write_text(text.replace(before, after))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"--ignore={p}" for p in SKIPPED)]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return f"killed by {failed[0]}"
    return f"ERROR: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="name",
                        help="mutants to run (default: all): " + ", ".join(MUTANTS))
    names = parser.parse_args(argv).names or list(MUTANTS)
    unknown = sorted(set(names) - MUTANTS.keys())
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for name in names:
            result = run_mutant(name, Path(tmp))
            bad += not result.startswith("killed")
            print(f"{name}: {result}", flush=True)
    return bad


if __name__ == "__main__":
    sys.exit(main())
