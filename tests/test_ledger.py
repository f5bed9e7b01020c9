"""The ledger of package functions that no experiment, demo or command runs.

Every function of `compactness_lab` runs in one of: the seven experiments at
their defaults (seed 0), the seven demos, `compactness-lab list` and one
exit-2 config error; or it has one row below that says why it stays.  Code
that only checks other code belongs in the tests, next to what it checks.
A function that starts to run leaves the ledger; a new one that never runs
enters it with its reason, or goes.

Decisions:
- statement: states a hypothesis or a step of one of the paper's two
  theorems (the product-limit / degenerate-parabolic criterion, and
  compactness on non-cylindrical domains), or checks a hypothesis the user
  declares; the reason names it.
- format: reads or writes a documented file format.
- import: runs when its module is imported, before any profiled call.
- deferred: a reference that moves into the tests with the benchmark change
  that stops naming it (ROADMAP item 3).
"""

import ast
import contextlib
import io

from compactness_lab import cli
from conftest import DEMOS, PACKAGE

LOCAL_TO_GLOBAL = ("statement", "the local-to-global step on non-cylindrical domains: peel "
                   "norms on the eps-boundary layer obey the Holder/Sobolev bound and "
                   "vanish uniformly as eps -> 0")
DUAL_TIME = ("statement", "the dual time estimate of the criterion: |<d_t u_n, psi>| "
             "bounded by the W^{N,2} norm of psi, over a test battery")
SGRID = ("format", "the `.sgrid` face-field format (README, File formats)")
GRID = ("format", "the `.grid` cell-field format (README, File formats)")
CUTOFF = ("statement", "cutoff localization of the product-limit criterion: theta_k in "
          "[0, 1] equals 1 off a set of measure at most 1/k")
EIGENBASIS = ("deferred", "dense Dirichlet eigenbasis, the reference test_grid checks "
              "h_minus_m_norm against; perfbench/spans.py still names it")

LEDGER = {
    "cli._one_of": ("import", "builds the `one of` rules of cli.KEYS"),
    "divfree._face_counts": SGRID,
    "divfree.read_sgrid_file": SGRID,
    "divfree.write_sgrid_file": SGRID,
    "grid.DirichletEigenbasis.__init__": EIGENBASIS,
    "grid.DirichletEigenbasis.coefficients": EIGENBASIS,
    "grid.Grid.n_cells": ("format", "the value count of the `.grid` and `.sgrid` readers"),
    "grid._read_header_and_values": GRID,
    "grid.read_grid_file": GRID,
    "mollify.shift_time": ("statement", "the time translation lambda_sigma f(t) = f(t - sigma) "
                           "of the criterion's time-equicontinuity hypothesis"),
    "movedom.DiffeoFamily.check_inverse": (
        "statement", "each A_t is a diffeomorphism, A_t(A_t^{-1}(x)) = x, as the "
        "non-cylindrical theorem assumes"),
    "movedom.DiffeoFamily.grad_continuity_modulus": (
        "statement", "t -> grad A_t is continuous, the time regularity the "
        "non-cylindrical theorem assumes of the family"),
    "movedom.make_family.<locals>.rot": (
        "statement", "the rotation family: volume-preserving A_t, Jacobian exactly 1"),
    "movedom.make_family.<locals>.mat": (
        "statement", "the shear family: A_t with a non-normal gradient"),
    "movedom.make_family.<locals>.imat": (
        "statement", "the inverse of the shear family's A_t"),
    "movedom.make_domain.<locals>.annulus_sdf": (
        "statement", "the annulus preset: a raster with a hole, where a zero-trace "
        "div-free field can circulate around the hole"),
    "movedom.measure_sobolev_constant": (
        "statement", "the reference Sobolev constant S_Omega, a factor of the "
        "transported constant K_p"),
    "movedom.sobolev_transport_constant": (
        "statement", "K_p = S_Omega beta^{1/p*} alpha^{-1/p}: the Sobolev inequality "
        "transported by A_t, used by the local-to-global step"),
    "parabolic.StepTimeSeries.map_values": (
        "statement", "beta(a_n) slice by slice, for the truncation lim-sup chain"),
    "probe.PeelDecayReport.verdict": LOCAL_TO_GLOBAL,
    "probe.local_to_global": LOCAL_TO_GLOBAL,
    "probe.limsup_probe": (
        "statement", "the truncation lim-sup chain of the degenerate-parabolic "
        "theorem: limsup ||a_n||^2 <= ||a||^2 + C eps"),
    "probe.dual_time_estimate": DUAL_TIME,
    "probe._spatial_derivative_norms": DUAL_TIME,
    "probe._spatial_derivative_norms.<locals>.level_norm": DUAL_TIME,
    "probe.interpolation_check": (
        "statement", "||u||_r <= ||u||_2^{1-theta} ||u||_q^theta, the interpolation "
        "that sets ns_probe's Step-1 exponent r"),
    "productlimit.HolderReport.ok": (
        "statement", "the generalized Holder inequality ||fg||_1 <= 2 ||f||_phi "
        "||g||_psi of the Orlicz form of the product-limit criterion"),
    "productlimit.OrliczPair.validate": (
        "statement", "checks a declared Young pair: convex, zero with zero slope at "
        "0, and x y <= phi(x) + psi(y)"),
    "productlimit.build_cutoff": CUTOFF,
    "productlimit.localize": CUTOFF,
    "productlimit.smoothstep": CUTOFF,
    "synth.boundary_bump_family": (
        "statement", "the adversarial family of the local-to-global step: mass "
        "concentrating at the boundary, so the peel norms do not decay"),
    "truncate.Nonlinearity.validate": (
        "statement", "checks the declared finite critical set of phi that the "
        "truncation assumes: phi' = 0 exactly there, and psi' = phi"),
}
DECISIONS = {"statement", "format", "import", "deferred"}


def defined_functions():
    """'module.qualified_name' -> (module, first line, name) for every def in
    the package, matching `Reach.package_functions`."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert f"{module}.{name}" not in out, f"two defs are named {module}.{name}"
                out[f"{module}.{name}"] = (module, first, child.name)
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def test_functions_that_never_run_match_the_ledger(reach, default_runs, tmp_path):
    for path in DEMOS:
        reach.run_demo(path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert reach.record(cli.main, ["list"]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[porous]\nbc = foo\n")
    with contextlib.redirect_stderr(io.StringIO()):
        assert reach.record(cli.main, ["run", "porous", "--config", str(bad),
                                       "--out", str(tmp_path / "out")]) == 2
    called = reach.package_functions()
    defined = defined_functions()
    ran = {name for name, key in defined.items() if key in called}
    never = set(defined) - ran
    assert not never - LEDGER.keys(), (
        "no experiment, demo or command runs these, and the ledger has no row for them: "
        f"{sorted(never - LEDGER.keys())}")
    assert not LEDGER.keys() & ran, f"ledger rows for functions that run: {sorted(LEDGER.keys() & ran)}"
    assert LEDGER.keys() <= defined.keys(), (
        f"ledger rows for functions that do not exist: {sorted(LEDGER.keys() - defined.keys())}")
    assert {decision for decision, _ in LEDGER.values()} <= DECISIONS
