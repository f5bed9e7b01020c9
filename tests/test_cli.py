import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compactness_lab
from compactness_lab import cli
from compactness_lab.cli import KEYS, list_experiments, load_config, main, run


def write_cfg(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def test_unknown_experiment_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "a.cfg", "[porous]\n")
    assert run("bogus", cfg, str(tmp_path / "out")) == 2


def test_missing_config_exits_2(tmp_path):
    assert run("porous", str(tmp_path / "nope.cfg"), str(tmp_path / "out")) == 2


def test_malformed_config_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", "[porous\nn_list = ")
    assert run("porous", cfg, str(tmp_path / "out")) == 2


def test_bad_value_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad2.cfg", "[porous]\ngrid_cells = many\n")
    assert run("porous", cfg, str(tmp_path / "out")) == 2


def test_porous_smoke(tmp_path):
    cfg = write_cfg(tmp_path, "p.cfg",
                    "[porous]\nn_list = 16,32\ngrid_cells = 128\nhalfwidth = 3.0\n")
    out = tmp_path / "out"
    assert run("porous", cfg, str(out)) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "N,l2_norm,grad_phi_l2,tv_hminus_m,cauchy_to_prev"
    assert len(lines) == 3  # one row per N
    manifest = (out / "manifest.txt").read_text()
    assert "verdict = pass" in manifest
    assert "seed = 0" in manifest
    # the final state ships in the .grid text format
    from compactness_lab.grid import read_grid_file
    final = read_grid_file(out / "final_state.grid")
    assert final.grid.shape == (128,)


def test_porous_exponent_reaches_the_scheme_exactly(tmp_path, monkeypatch):
    # 2.0000001 reads as 2 when printed to six significant digits
    exponents = []
    real = cli.run_scheme

    def spy(u0, n, interval, phi, **kwargs):
        exponents.append(phi.dphi(np.ones(1))[0])  # m |1|^(m - 1) = m
        return real(u0, n, interval, phi, **kwargs)

    monkeypatch.setattr(cli, "run_scheme", spy)
    cfg = write_cfg(tmp_path, "m.cfg", "[porous]\nm = 2.0000001\ngrid_cells = 64\nn_list = 16,32\n")
    assert run("porous", cfg, str(tmp_path / "out")) == 0
    assert exponents == [2.0000001, 2.0000001]


@pytest.mark.parametrize("line", ["n_list = 1", "halfwidth = 0.01"])
def test_porous_newton_breakdown_is_a_failed_run(tmp_path, capsys, line):
    # each value passes its rule, and then a Newton solve does not converge
    cfg = write_cfg(tmp_path, "n.cfg", f"[porous]\n{line}\n")
    out = tmp_path / "out"
    assert run("porous", cfg, str(out)) == 1
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "verdict = FAIL" in manifest
    [failure] = [x.removeprefix("failure: ") for x in manifest if x.startswith("failure: ")]
    assert failure.startswith("NewtonFailure: Newton did not reach residual")
    assert capsys.readouterr().err == f"FAIL {failure}\n"
    assert not (out / "report.csv").exists()


def test_nsprobe_adversarial_exits_1_and_names_step3(tmp_path):
    cfg = write_cfg(tmp_path, "a.cfg",
                    "[nsprobe]\nfamily = oscillating\nmembers = 3\nosc_list = 2,4,8\n"
                    "delta_list = 0.0625,0.03125\n")
    out = tmp_path / "out"
    assert run("nsprobe", cfg, str(out)) == 1
    manifest = (out / "manifest.txt").read_text()
    assert "verdict = FAIL" in manifest
    assert "step3 dual bound violated" in manifest


@pytest.mark.parametrize("gate, failure", [
    ("budget", "budget additivity defect 1.000e+00"),
    ("step1", "step1 chain bound (measured constants) violated at delta=0.0625"),
], ids=["budget", "step1"])
def test_nsprobe_gates_fire(tmp_path, capsys, monkeypatch, gate, failure):
    # the default run passes both gates; each case breaks one measured
    # quantity: a re-summed budget defect as large as the squared total on
    # every slice, or an L^r norm of 0, which leaves the chain bound at its floor
    from compactness_lab import probe
    if gate == "budget":
        real = probe.shift_budget_lines

        def lines(before, now, weights):
            terms = real(before, now, weights)
            return [*terms[:4], terms[3]]

        monkeypatch.setattr(probe, "shift_budget_lines", lines)
    else:
        monkeypatch.setattr(probe, "series_lp", lambda s, p: 0.0)
    cfg = write_cfg(tmp_path, "empty.cfg", "")
    out = tmp_path / "out"
    assert run("nsprobe", cfg, str(out)) == 1
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "verdict = FAIL" in manifest
    failures = [x.removeprefix("failure: ") for x in manifest if x.startswith("failure: ")]
    assert failures == [failure]
    assert capsys.readouterr().err == f"FAIL {failure}\n"
    assert (out / "report.csv").read_text().startswith("n,delta,s,step1,")


def test_commutator_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg",
                    "[commutator]\ncells = 512\nmembers = 4\nn_slices = 8\n"
                    "k_list = 4,8,16\ndecay_factor = 3.0\n")
    out = tmp_path / "out"
    assert run("commutator", cfg, str(out)) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "k,sup_l1"


def test_commutator_zero_family_reports_exact_zeros(tmp_path):
    # one slice: every coefficient is sin(pi n) = 0, so every slice is (0, 0)
    # and S vanishes exactly, not up to the rounding of sin(2 pi n / 2)
    cfg = write_cfg(tmp_path, "z.cfg", "[commutator]\ncells = 512\nn_slices = 1\n")
    out = tmp_path / "out"
    assert run("commutator", cfg, str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines == ["k,sup_l1"] + [f"{k},0.0" for k in (4, 8, 16, 32, 64)]


@pytest.mark.parametrize("experiment,line", [
    ("commutator", "k_list = 4096"),   # under-resolved kernel: 1/k < 2h
    ("commutator", "k_list = ,"),      # empty list
    ("commutator", "n_slices = 0"),
    ("commutator", "cells = 0"),
    ("commutator", "k_list = 4,8,4"),  # a repeated scale
    ("commutator", "k_list = 8"),      # the decay check needs two scales
    ("productlimit", "k_list = 4,4,8"),
    ("productlimit", "k_list = 512"),
    ("productlimit", "members = -1"),
    ("productlimit", "members = 1"),     # the verdict compares the first member with the last
    ("porous", "grid_cells = 0"),
    ("porous", "n_list = 16,0"),
    ("porous", "n_list = ,"),
    ("porous", "n_list = 16,abc"),
    ("porous", "n_list = 16,32,32,64"),  # a repeated refinement
    ("porous", "hminus_m = -1"),
    ("porous", "bc = foo"),
    ("porous", "m = 1.0"),
    ("porous", "t1 = 0.1"),            # t1 = t0
    ("porous", "t0 = 0"),
    ("porous", "halfwidth = 0"),
    ("porous", "seed = abc"),
    ("porous", "seed = -3"),
    ("divfree", "grid = -3"),
    ("divfree", "n_fields = 0"),
    ("movedom", "grid = 0"),
    ("movedom", "n_slices = 0"),
    ("movedom", "eps = -0.1"),
    ("movedom", "eps_list = 0.0,-0.05"),
    ("movedom", "eps_list = ,"),
    ("movedom", "eps_list = 0.0,x"),
    ("movedom", "eps_list = 0.0,0.5"),   # the 0.5-interior of the unit square is empty
    ("movedom", "disk_radius = 0"),
    ("nsprobe", "members = 0"),
    ("nsprobe", "n_slices = 0"),
    ("nsprobe", "delta_list = ,"),
    ("kruzhkov", "grid = 0"),
    ("kruzhkov", "members = 0"),
    ("kruzhkov", "m_interior = 0"),
    ("kruzhkov", "ell_list = ,"),
    ("kruzhkov", "ell_list = 4"),
    ("kruzhkov", "ell_list = 16"),       # the decay check needs two distinct scales
    ("kruzhkov", "ell_list = 16,16"),
    ("kruzhkov", "ell_list = 16,16,24"),  # a repeated scale
    ("kruzhkov", "ell_list = 16,24,64"),  # under-resolved kernel: 1/ell < 2h
    ("divfree", "pair_checks = -1"),
    ("porous", "grid_cell = 64"),        # unknown key: a typo for grid_cells
    ("kruzhkov", "budget_tol = nan"),
    ("porous", "mass = -1"),
    ("porous", "m = 1.0000001"),         # the self-similar profile's Gamma(1/(m - 1) + 1.5)
    ("porous", "m = 1.005"),             # overflows for m below about 1.00588
    ("porous", "n_list = 16,24"),        # the Cauchy column compares nested partitions
    ("porous", "n_list = 64,32,16"),
    ("commutator", "decay_factor = 0"),
    ("divfree", "residual_tol = nan"),
    ("kruzhkov", "speed = 5"),           # the reference disk leaves the box
    ("kruzhkov", "disk_radius = 0"),
    ("nsprobe", "disk_radius = 0"),
    ("nsprobe", "speed = nan"),
    ("nsprobe", "family = foo"),
    ("nsprobe", "delta_list = 0.07"),    # 1/delta is not an integer
    ("nsprobe", "delta_list = 0.0625"),  # the decay check needs two distinct radii
    ("nsprobe", "delta_list = 0.0625,0.0625"),
    ("nsprobe", "delta_list = 0.0625,0.0625,0.03125"),  # a repeated radius
    ("nsprobe", "delta_list = 0.001"),   # under-resolved kernel: delta < 2h
    ("nsprobe", "n_slices = 2"),         # the shifts of 1, 2 and 4 slices need 5
    ("nsprobe", "n_slices = 4"),
    ("divfree", "grid = 1"),             # a Poincare constant needs two cells
    ("movedom", "grid = 1"),
])
def test_experiment_bad_values_exit_2(tmp_path, capsys, experiment, line):
    cfg = write_cfg(tmp_path, "bad.cfg", f"[{experiment}]\n{line}\n")
    out = tmp_path / "out"
    assert run(experiment, cfg, str(out)) == 2
    assert not (out / "manifest.txt").exists()
    assert f"[{experiment}] {line.split()[0]}" in capsys.readouterr().err


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.cfg", "[divfree]\n")
    assert main(["run", "divfree", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert not (tmp_path / "o").exists() and "--seed" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "d.cfg", "[divfree]\nn_fields = 5\ngrid = 32\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("divfree", cfg, str(out1), seed=7) == 0
    assert run("divfree", cfg, str(out2), seed=7) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_unknown_key_exits_2_but_seed_and_other_sections_pass(tmp_path, capsys):
    ok = write_cfg(tmp_path, "ok.cfg", "[other]\nfoo = 1\n[divfree]\nseed = 3\nn_fields = 2\n")
    assert run("divfree", ok, str(tmp_path / "ok")) == 0
    assert "seed = 3" in (tmp_path / "ok" / "manifest.txt").read_text()
    bad = write_cfg(tmp_path, "bad.cfg",
                    "[other]\nfoo = 1\n[divfree]\nseed = 3\nn_field = 2\n")
    assert run("divfree", bad, str(tmp_path / "bad")) == 2
    assert not (tmp_path / "bad" / "manifest.txt").exists()
    assert "bad value for [divfree] n_field: '2' (unknown key" in capsys.readouterr().err


def test_config_defaults_and_echo(tmp_path):
    cfg_path = write_cfg(tmp_path, "e.cfg", "[movedom]\ngrid = 48\n")
    cfg = load_config(cfg_path, "movedom")
    assert cfg["grid"] == 48
    assert cfg["eps"] == float(KEYS["movedom"]["eps"][0])
    echo = cfg.echo()
    assert "grid = 48" in echo and "(default)" in echo


def test_config_table_matches_docs_and_defaults_obey_rules(tmp_path):
    docs = (Path(__file__).resolve().parent.parent / "docs" / "config.md").read_text()
    sections = {part.split("\n", 1)[0].strip(): part for part in docs.split("\n## ")}
    empty = write_cfg(tmp_path, "empty.cfg", "# no section\n")
    for experiment, table in KEYS.items():
        rows = {tuple(c.strip() for c in line.strip("|").split("|")[:3])
                for line in sections[experiment].splitlines() if line.startswith("|")}
        for key, (default, rule) in table.items():
            assert (key, default, rule.text) in rows, (experiment, key)
        cfg = load_config(empty, experiment)
        assert set(cfg) == set(table) and cfg.seed == 0
        for key, (default, rule) in table.items():
            assert cfg[key] == rule.parse(experiment, key, default)


def test_list_command(capsys):
    list_experiments()
    out = capsys.readouterr().out
    for name in ("porous", "commutator", "productlimit", "movedom", "divfree",
                 "nsprobe", "kruzhkov"):
        assert name in out


def test_main_entrypoint(tmp_path):
    assert main(["list"]) == 0
    cfg = write_cfg(tmp_path, "m.cfg",
                    "[commutator]\ncells = 512\nmembers = 2\nn_slices = 4\n"
                    "k_list = 4,8\ndecay_factor = 1.5\n")
    rc = main(["run", "commutator", "--config", cfg, "--out", str(tmp_path / "o"),
               "--seed", "1"])
    assert rc == 0


def test_console_script_installed():
    # the subprocess imports the same package as this test process
    pkg_root = str(Path(compactness_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "compactness_lab.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "porous" in proc.stdout
