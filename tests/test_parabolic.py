import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactness_lab import cli, parabolic
from compactness_lab.cli import _csv_text
from compactness_lab.grid import (Grid, RasterDomain, RasterFactor,
                                  ScalarField, StaggeredVectorField,
                                  dirichlet_factor, dirichlet_laplacian,
                                  gradient, h_minus_m_norm)
from compactness_lab.parabolic import (DiffusionTensor, NewtonFailure,
                                       _backward_euler, _flux_operator,
                                       _newton_step, StepTimeSeries,
                                       barenblatt_profile, constant_series,
                                       energy_report, mass, run_scheme,
                                       series_distance,
                                       hypothesis_monitor, time_derivative_tv)
from compactness_lab.synth import oscillating_family
from compactness_lab.truncate import Nonlinearity, nonlinearity_preset
from conftest import IDENTITY


def semi_implicit_step(u_k, delta, A, phi, bc="noflux", t=0.0):
    """Oracle: one backward-Euler step with A's entries at t, through the
    scheme's Newton solve, with no coercivity check; returns u_{k+1} with
    residual <= 1e-10 in the max norm relative to ||u_k||_inf + 1."""
    grid = u_k.grid
    out, _ = _newton_step(u_k, delta, _flux_operator(A.entries(t, grid), grid, bc), phi)
    return out


def diagonal_tensor(fns, coercivity):
    """A diagonal tensor from per-axis callables (t, pts) -> per-cell values."""

    def entries(t, grid):
        pts = grid.cell_centers().reshape(-1, grid.dim)
        return tuple(np.asarray(fn(t, pts), dtype=float).reshape(grid.shape) for fn in fns)

    return DiffusionTensor(entries, coercivity=coercivity)


def test_constants_are_steady_states():
    g = Grid((32, 32), (1.0, 1.0))
    u = ScalarField.constant(g, 1.7)
    phi = nonlinearity_preset("porous:2")
    out = semi_implicit_step(u, 0.05, DiffusionTensor.identity(), phi, bc="noflux")
    assert np.max(np.abs(out.values - 1.7)) < 1e-12


def _variable_tensor(dim):
    fns = [lambda t, p: 1.0 + p[:, 0] + t, lambda t, p: 2.0 - p[:, -1] ** 2]
    return diagonal_tensor(fns[:dim], coercivity=0.5)


def _affine_phi(slope=2.0, offset=0.5):
    # phi(0) = offset != 0: dirichlet0 then prescribes phi(u) = phi(0), i.e. u = 0
    return Nonlinearity(phi=lambda z: slope * np.asarray(z, dtype=float) + offset,
                        dphi=lambda z: np.full_like(np.asarray(z, dtype=float), slope),
                        psi=lambda z: slope * np.asarray(z, dtype=float) ** 2 / 2 + offset * z,
                        critical_points=())


def _dense_flux_operator(g, entries, bc):
    """-div(A grad .) assembled cell by cell: mean face coefficients inside,
    2 a/h^2 on the box edges under dirichlet0, nothing under noflux."""
    idx = np.arange(g.n_cells).reshape(g.shape)
    L = np.zeros((g.n_cells, g.n_cells))
    for cell in np.ndindex(*g.shape):
        i = idx[cell]
        for a in range(g.dim):
            h2 = g.spacing[a] ** 2
            for step in (-1, 1):
                nb = list(cell)
                nb[a] += step
                nb = tuple(nb)
                if 0 <= nb[a] < g.shape[a]:
                    c = 0.5 * (entries[a][cell] + entries[a][nb]) / h2
                    L[i, i] += c
                    L[i, idx[nb]] -= c
                elif bc == "dirichlet0":
                    L[i, i] += 2.0 * entries[a][cell] / h2
    return L


def test_heat_step_matches_dense_solve_oracle():
    # oracle: assemble the backward-Euler system densely and solve directly; for
    # phi(u) = s u + c the step solves (I + delta s L_A) u = u_k whatever c is
    delta, t = 0.01, 0.3
    rng = np.random.default_rng(0)
    for g in (Grid((64,), (1.0,)), Grid((5, 4), (1.0, 0.8))):
        u0 = rng.normal(size=g.shape)
        for tensor, A in (("identity", DiffusionTensor.identity()),
                          ("variable", _variable_tensor(g.dim))):
            for bc in ("noflux", "dirichlet0"):
                L = _dense_flux_operator(g, A.entries(t, g), bc)
                for name, phi, slope in (("identity", IDENTITY, 1.0),
                                         ("affine", _affine_phi(), 2.0)):
                    oracle = np.linalg.solve(np.eye(g.n_cells) + delta * slope * L, u0.reshape(-1))
                    out = semi_implicit_step(ScalarField(g, u0), delta, A, phi, bc=bc, t=t)
                    err = np.max(np.abs(out.values.reshape(-1) - oracle))
                    assert err < 1e-10 * (np.max(np.abs(u0)) + 1), (g.shape, tensor, bc, name)


def test_newton_matrix_is_derivative_of_residual():
    phi = Nonlinearity(phi=lambda z: z ** 3 + z + 0.5, dphi=lambda z: 3 * z ** 2 + 1,
                       psi=lambda z: z ** 4 / 4 + z ** 2 / 2 + 0.5 * z,
                       critical_points=())
    rng = np.random.default_rng(1)
    eps = 1e-6
    for g in (Grid((5, 4), (1.0, 0.8)), Grid((7,), (1.3,))):
        u_k = ScalarField(g, rng.uniform(0.5, 1.5, size=g.shape))
        u = rng.uniform(-1.0, 1.0, size=g.n_cells)
        for bc in ("noflux", "dirichlet0"):
            operator = _flux_operator(_variable_tensor(g.dim).entries(0.3, g), g, bc)
            residual, newton_matrix = _backward_euler(u_k, 0.01, operator, phi)
            ab = newton_matrix(u)
            band = len(ab) // 2
            i, j = np.indices((g.n_cells, g.n_cells))  # LAPACK: ab[band + i - j, j] = J[i, j]
            J = np.where(np.abs(i - j) <= band, ab[np.clip(band + i - j, 0, 2 * band), j], 0.0)
            fd = np.column_stack([(residual(u + eps * e) - residual(u - eps * e)) / (2 * eps)
                                  for e in np.eye(g.n_cells)])
            assert np.max(np.abs(fd - J)) < 1e-7 * np.max(np.abs(J)), bc


def test_heat_eigenfunction_decay():
    # u_{k+1} = u_k / (1 + delta pi^2) up to O(h^2) for the Dirichlet mode
    g = Grid((256,), (1.0,))
    phi = IDENTITY
    u0 = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    delta = 0.01
    out = semi_implicit_step(u0, delta, DiffusionTensor.identity(), phi, bc="dirichlet0")
    pred = u0.values / (1 + delta * np.pi ** 2)
    h = g.spacing[0]
    assert np.max(np.abs(out.values - pred)) < 5 * h ** 2
    # and exactly for the discrete eigenvalue
    lam_h = 2 * (1 - np.cos(np.pi * h)) / h ** 2
    assert np.max(np.abs(out.values - u0.values / (1 + delta * lam_h))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_scheme_mass_telescopes_per_step_under_noflux(data):
    # under noflux the columns of L_A sum to zero, so 1^T of the Newton matrix
    # is 1^T and every Newton update keeps sum(u): each step conserves mass
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(1, 12)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.25, 4.0)) for _ in range(dim))
    g = Grid(shape, extent)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u0 = ScalarField(g, rng.uniform(0.0, 2.0, size=shape))
    if data.draw(st.booleans()):
        A = DiffusionTensor.identity(data.draw(st.floats(0.1, 3.0)))
    else:
        A = diagonal_tensor([lambda t, p, a=a: 1.0 + 0.5 * np.sin(3.0 * p[:, a] + t)
                             for a in range(dim)], coercivity=0.5)
    phi = data.draw(st.sampled_from([IDENTITY, nonlinearity_preset("porous:2"),
                                     nonlinearity_preset("porous:3")]))
    n = data.draw(st.integers(1, 6))
    run = run_scheme(u0, n, (0.0, data.draw(st.floats(0.001, 0.1))), A, phi, bc="noflux")
    for a, b in zip(run.states[:-1], run.states[1:]):
        assert abs(mass(b) - mass(a)) <= 1e-13 * np.sum(np.abs(a.values)) * g.cell_volume


def test_porous_mass_conservation_and_positivity():
    g = Grid((256,), (6.0,))
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    u0 = ScalarField(g, prof(g.axis_centers(0) - 3.0, 0.1))
    run = run_scheme(u0, 32, (0.1, 0.5), DiffusionTensor.identity(), phi, bc="noflux")
    masses = [mass(f) for f in run.states]
    drift = max(abs(b - a) for a, b in zip(masses[:-1], masses[1:]))
    assert drift <= 1e-12 * abs(masses[0])
    assert min(float(f.values.min()) for f in run.states) >= -1e-10


def test_barenblatt_profile_mass_oracle():
    # independent quadrature of the closed form recovers the requested mass
    prof = barenblatt_profile(2.0, 1.0)
    x = np.linspace(-4, 4, 400001)
    q = np.trapezoid(prof(x, 0.37), x)
    assert q == pytest.approx(1.0, rel=1e-6)


def test_barenblatt_benchmark_coarse():
    g = Grid((256,), (6.0,))
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    x = g.axis_centers(0) - 3.0
    u0 = ScalarField(g, prof(x, 0.1))
    run = run_scheme(u0, 64, (0.1, 1.0), DiffusionTensor.identity(), phi, bc="noflux")
    exact = prof(x, 1.0)
    l1 = np.sum(np.abs(run.states[-1].values - exact)) * g.cell_volume
    assert l1 / (np.sum(np.abs(exact)) * g.cell_volume) < 0.02


def test_run_scheme_single_step_reduces_to_step():
    g = Grid((64,), (1.0,))
    phi = IDENTITY
    u0 = ScalarField.from_function(g, lambda p: np.cos(2 * np.pi * p[:, 0]))
    A = DiffusionTensor.identity()
    run = run_scheme(u0, 1, (0.0, 0.1), A, phi)
    direct = semi_implicit_step(u0, 0.1, A, phi)
    assert np.array_equal(run.states[1].values, direct.values)
    assert run.series.n_steps == 1 and run.series.fields[0] is u0


def _counted_assemblies(monkeypatch):
    calls = []
    real = parabolic.face_laplacian

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(parabolic, "face_laplacian", counted)
    return calls


def _porous_start(g):
    x = g.cell_centers()[..., 0]
    return ScalarField(g, 0.2 + np.exp(-20 * (x - 0.4) ** 2))


@pytest.mark.parametrize("g", [Grid((64,), (1.0,)), Grid((6, 5), (1.0, 0.8))])
def test_run_scheme_assembles_t_independent_tensor_once(monkeypatch, g):
    calls = _counted_assemblies(monkeypatch)
    run_scheme(_porous_start(g), 12, (0.1, 0.4), DiffusionTensor.identity(),
               nonlinearity_preset("porous:2"))
    assert len(calls) == 1


def test_run_scheme_reassembles_t_dependent_tensor_every_step(monkeypatch):
    calls = _counted_assemblies(monkeypatch)
    g = Grid((6, 5), (1.0, 0.8))
    run_scheme(_porous_start(g), 7, (0.1, 0.4), _variable_tensor(2), nonlinearity_preset("porous:2"))
    assert len(calls) == 7


@pytest.mark.parametrize("bc", ["noflux", "dirichlet0"])
@pytest.mark.parametrize("tensor", ["identity", "variable"])
@pytest.mark.parametrize("g", [Grid((48,), (1.3,)), Grid((6, 5), (1.0, 0.8))])
def test_run_scheme_states_equal_chained_steps(bc, tensor, g):
    A = DiffusionTensor.identity(0.7) if tensor == "identity" else _variable_tensor(g.dim)
    phi = nonlinearity_preset("porous:2")
    a, b, n = 0.1, 0.4, 9
    run = run_scheme(_porous_start(g), n, (a, b), A, phi, bc=bc)
    delta = (b - a) / n
    u = run.states[0]
    for k in range(n):
        u = semi_implicit_step(u, delta, A, phi, bc=bc, t=a + (k + 1) * delta)
        assert np.array_equal(u.values, run.states[k + 1].values), (bc, k)


def test_constant_data_constant_series():
    g = Grid((32,), (1.0,))
    phi = nonlinearity_preset("porous:2")
    run = run_scheme(ScalarField.constant(g, 2.0), 4, (0.0, 1.0),
                     DiffusionTensor.identity(), phi)
    for f in run.states:
        assert np.max(np.abs(f.values - 2.0)) < 1e-10


def test_newton_failure_reported():
    phi = Nonlinearity(
        phi=lambda z: np.sin(5 * np.asarray(z, dtype=float)),
        dphi=lambda z: 5 * np.cos(5 * np.asarray(z, dtype=float)),
        psi=lambda z: -np.cos(5 * np.asarray(z, dtype=float)) / 5,
        critical_points=(np.pi / 10, 3 * np.pi / 10))
    g = Grid((64,), (1.0,))
    u0 = ScalarField(g, 0.5 + 0.45 * np.sin(2 * np.pi * g.axis_centers(0)))
    with pytest.raises(NewtonFailure):
        semi_implicit_step(u0, 0.5, DiffusionTensor.identity(), phi, bc="noflux")


def test_first_order_time_accuracy():
    # heat equation with exact solution e^{-pi^2 t} sin(pi x): observed order in [0.8, 1.2]
    g = Grid((512,), (1.0,))
    phi = IDENTITY
    u0 = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    T = 0.1
    errs = []
    for n in (32, 64, 128):
        run = run_scheme(u0, n, (0.0, T), DiffusionTensor.identity(), phi, bc="dirichlet0")
        h = g.spacing[0]
        lam_h = 2 * (1 - np.cos(np.pi * h)) / h ** 2
        exact = np.exp(-lam_h * T) * u0.values  # discrete-in-space exact flow
        errs.append(np.max(np.abs(run.states[-1].values - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.8 <= o <= 1.2 for o in orders)


def test_energy_report_constant_series():
    g = Grid((32,), (1.0,))
    phi = nonlinearity_preset("porous:2")
    s = constant_series(ScalarField.constant(g, 1.0), (0.0, 1.0), 4)
    rep = energy_report(s, DiffusionTensor.identity(), phi)
    assert rep.ok
    for _, lhs, rhs, diss in rep.rows:
        assert diss == 0.0 and lhs == pytest.approx(rhs, rel=1e-14)


def test_energy_report_heat_dissipative():
    g = Grid((128,), (1.0,))
    phi = IDENTITY
    u0 = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    run = run_scheme(u0, 16, (0.0, 0.2), DiffusionTensor.identity(), phi, bc="dirichlet0")
    rep = energy_report(run.series, DiffusionTensor.identity(), phi)
    assert rep.ok


def test_energy_report_porous():
    g = Grid((256,), (6.0,))
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    u0 = ScalarField(g, prof(g.axis_centers(0) - 3.0, 0.1))
    run = run_scheme(u0, 32, (0.1, 1.0), DiffusionTensor.identity(), phi)
    rep = energy_report(run.series, DiffusionTensor.identity(), phi)
    assert rep.ok  # every transition within rel_tol = 1e-8


def _energy_rows_recomputed(s, A, phi):
    # oracle: every transition reads A's entries, builds its face coefficients
    # and integrates psi of both states afresh
    g, vol, delta = s.grid, s.grid.cell_volume, s.delta
    rows = []
    for k in range(s.n_steps - 1):
        u_next = s.fields[k + 1]
        entries = A.entries(s.times()[k + 1], g)
        grad = gradient(u_next.map(phi.phi))
        diss = 0.0
        for a in range(g.dim):
            coef = parabolic._face_coefficients(entries, g, a)
            diss += float(np.sum(coef * grad.components[a] ** 2) * vol)
        rhs = float(np.sum(phi.psi(s.fields[k].values)) * vol)
        lhs = float(np.sum(phi.psi(u_next.values)) * vol) + delta * diss
        rows.append((k, lhs, rhs, delta * diss))
    return rows


@pytest.mark.parametrize("tensor", ["identity", "variable"])
@pytest.mark.parametrize("g", [Grid((48,), (1.3,)), Grid((6, 5), (1.0, 0.8))])
def test_energy_report_rows_equal_per_step_recompute(monkeypatch, tensor, g):
    A = DiffusionTensor.identity(0.7) if tensor == "identity" else _variable_tensor(g.dim)
    phi = nonlinearity_preset("porous:2")
    n = 9
    series = run_scheme(_porous_start(g), n, (0.1, 0.4), A, phi).series
    want = _energy_rows_recomputed(series, A, phi)
    calls = []
    real = parabolic._face_coefficients

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(parabolic, "_face_coefficients", counted)
    assert energy_report(series, A, phi).rows == want
    # per axis: once for a t-independent tensor, at every transition otherwise
    assert len(calls) == g.dim * (1 if tensor == "identity" else n - 1)


def test_time_derivative_tv_cases():
    g = Grid((64,), (1.0,))
    factor = dirichlet_factor(RasterDomain.full(g))
    f = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    s = constant_series(f, (0.0, 1.0), 8)
    assert time_derivative_tv(s, 1, factor) == 0.0
    # one jump of a fixed field: exactly its H^{-m} norm
    zero = f * 0.0
    s2 = StepTimeSeries((0.0, 1.0), (zero, zero, f, f))
    assert time_derivative_tv(s2, 1, factor) == pytest.approx(h_minus_m_norm(f, 1, factor),
                                                             rel=1e-12)


def test_time_derivative_tv_refinement_bounded():
    g = Grid((256,), (6.0,))
    factor = dirichlet_factor(RasterDomain.full(g))
    phi = nonlinearity_preset("porous:2")
    prof = barenblatt_profile(2.0, 1.0)
    u0 = ScalarField(g, prof(g.axis_centers(0) - 3.0, 0.1))
    vals = []
    for n in (16, 32, 64, 128):
        run = run_scheme(u0, n, (0.1, 1.0), DiffusionTensor.identity(), phi)
        vals.append(time_derivative_tv(run.series, 1, factor))
    assert max(vals) <= 2.0 * min(vals)


def test_porous_grad_phi_column_recomputed_cell_by_cell(tmp_path):
    # oracle: the `porous` run's grad_phi_l2 column, the square root of
    # delta sum_steps sum_faces ((phi(u_{i+1}) - phi(u_i)) / h)^2 h over the
    # interior faces, a loop over the states of the same scheme run
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[porous]\ngrid_cells = 64\nn_list = 4,8\nl1_tol = 1.0\n")
    assert cli.run("porous", str(cfg), str(tmp_path / "out"), seed=0) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]]
    g = Grid((64,), (6.0,))
    h = g.spacing[0]
    phi = nonlinearity_preset("porous:2")
    u0 = ScalarField(g, barenblatt_profile(2.0, 1.0)(g.axis_centers(0) - 3.0, 0.1))
    assert [int(row[0]) for row in rows] == [4, 8]
    for row in rows:
        run = run_scheme(u0, int(row[0]), (0.1, 1.0), DiffusionTensor.identity(), phi)
        total = 0.0
        for f in run.series.fields:
            v = phi.phi(f.values)
            for i in range(g.shape[0] - 1):
                total += ((v[i + 1] - v[i]) / h) ** 2 * h
        assert total > 0
        assert float(row[2]) == pytest.approx(np.sqrt(total * run.series.delta), rel=1e-12)


def test_porous_tv_hminus_m_column_by_dense_solves(default_runs):
    # oracle: the default `porous` run's tv_hminus_m column (m = 1), the sum
    # over the jumps f of each series of sqrt(vol f^T (I+L)^{-1} f), with
    # I+L the dense 3-point Dirichlet matrix and one dense solve per series
    out, codes = default_runs
    assert codes["porous"] == 0
    rows = [line.split(",") for line in
            (out / "porous" / "report.csv").read_text().splitlines()[1:]]
    g = Grid((512,), (6.0,))
    h = g.spacing[0]
    shifted = (np.eye(512) * (1.0 + 2.0 / h ** 2)
               - (np.eye(512, k=1) + np.eye(512, k=-1)) / h ** 2)
    phi = nonlinearity_preset("porous:2")
    u0 = ScalarField(g, barenblatt_profile(2.0, 1.0)(g.axis_centers(0) - 3.0, 0.1))
    assert [int(row[0]) for row in rows] == [16, 32, 64, 128, 256]
    for row in rows:
        states = run_scheme(u0, int(row[0]), (0.1, 1.0), DiffusionTensor.identity(),
                            phi).series.fields
        jumps = np.stack([b.values - a.values for a, b in zip(states[:-1], states[1:])],
                         axis=1)
        squares = np.sum(jumps * np.linalg.solve(shifted, jumps), axis=0) * g.cell_volume
        assert float(row[3]) == pytest.approx(np.sum(np.sqrt(squares)), rel=1e-10)


def test_porous_monitor_builds_one_dirichlet_factor(tmp_path, monkeypatch):
    # the H^{-1} norms of the 15 + 31 + 63 + 127 + 255 jumps of the default
    # n_list all solve with one factor of I+L, built by the monitor
    builds, norms = [], []

    class Counted(RasterFactor):
        def __init__(self, domain, matrix):
            builds.append(matrix)
            super().__init__(domain, matrix)

    def counted_norm(f, m, factor):
        norms.append(factor)
        return h_minus_m_norm(f, m, factor)

    monkeypatch.setattr("compactness_lab.grid.RasterFactor", Counted)
    monkeypatch.setattr(parabolic, "h_minus_m_norm", counted_norm)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("")
    assert cli.run("porous", str(cfg), str(tmp_path / "out"), seed=0) == 0
    assert len(builds) == 1
    L, _ = dirichlet_laplacian(RasterDomain.full(Grid((512,), (6.0,))))
    assert np.array_equal(builds[0].toarray(), np.eye(512) + L.toarray())
    assert len(norms) == 491
    assert all(isinstance(f, Counted) and f is norms[0] for f in norms)


def test_monitor_identical_series_zero_cauchy():
    g = Grid((64,), (1.0,))
    d = RasterDomain.full(g)
    f = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    phi = IDENTITY
    fam = [constant_series(f, (0.0, 1.0), n) for n in (8, 16, 32)]
    rep = hypothesis_monitor(fam, phi, 1, d)
    assert all(r[4] == 0.0 for r in rep.rows[1:])


def test_monitor_heat_refinements_consistent():
    g = Grid((128,), (1.0,))
    d = RasterDomain.full(g)
    phi = IDENTITY
    u0 = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    fam = [run_scheme(u0, n, (0.0, 0.5), DiffusionTensor.identity(), phi,
                      bc="dirichlet0").series for n in (16, 32, 64)]
    rep = hypothesis_monitor(fam, phi, 1, d)
    assert rep.verdict, rep.failures
    cauchy = [r[4] for r in rep.rows[1:]]
    assert all(b < a for a, b in zip(cauchy[:-1], cauchy[1:]))


def test_monitor_adversarial_negative():
    g = Grid((128,), (1.0,))
    d = RasterDomain.full(g)
    phi = IDENTITY
    bump = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    fam = [oscillating_family(bump, (0.0, 1.0), 2 * n, [n])[0] for n in (8, 16, 32, 64)]
    rep = hypothesis_monitor(fam, phi, 1, d)
    assert not rep.verdict
    assert any("tv" in f for f in rep.failures)
    tvs = [r[3] for r in rep.rows]
    assert all(b / a >= 1.8 for a, b in zip(tvs[:-1], tvs[1:]))


def test_monitor_csv_schema(tmp_path):
    g = Grid((64,), (1.0,))
    d = RasterDomain.full(g)
    f = ScalarField.from_function(g, lambda p: np.sin(np.pi * p[:, 0]))
    phi = IDENTITY
    rep = hypothesis_monitor([constant_series(f, (0.0, 1.0), n) for n in (4, 8)], phi, 1, d)
    path = tmp_path / "monitor.csv"
    path.write_text(_csv_text(rep.columns, rep.rows))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,l2_norm,grad_phi_l2,tv_hminus_m,cauchy_to_prev"
    assert len(lines) == 3


def test_series_distance_piecewise_constant():
    g = Grid((8,), (1.0,))
    a = ScalarField.constant(g, 1.0)
    b = ScalarField.constant(g, 2.0)
    coarse = StepTimeSeries((0.0, 1.0), (a, b))
    fine = StepTimeSeries((0.0, 1.0), (a, a, b, b))
    assert series_distance(fine, coarse) == 0.0
    fine2 = StepTimeSeries((0.0, 1.0), (a, b, b, b))
    # one fine slice differs by 1 over measure 1 domain: distance sqrt(0.25)
    assert series_distance(fine2, coarse) == pytest.approx(0.5, rel=1e-12)
    # series arithmetic needs one partition, for scalar and face slices alike
    u = StaggeredVectorField.constant(g, (1.0,))
    for f in (a, u):
        with pytest.raises(ValueError):
            StepTimeSeries((0.0, 1.0), (f,) * 4) - StepTimeSeries((0.0, 2.0), (f,) * 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 33, 64])
def test_oscillating_family_on_2n_slices_is_exactly_plus_minus_g(n):
    # sin(2 pi n t) at the midpoints of 2n slices is +1, -1, +1, ... exactly,
    # so the member is +g and -g alternating, bit for bit
    g = Grid((16,), (1.0,))
    f = ScalarField(g, np.random.default_rng(n).normal(size=16))
    s = oscillating_family(f, (0.1, 1.0), 2 * n, [n])[0]
    assert s.n_steps == 2 * n and s.interval == (0.1, 1.0)
    for k, fk in enumerate(s.fields):
        assert np.array_equal(fk.values, f.values if k % 2 == 0 else -f.values)


def test_diffusion_tensor_coercivity_check():
    g = Grid((16, 16), (1.0, 1.0))
    fns = (lambda t, p: 1.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]), lambda t, p: np.ones(len(p)))
    x = g.axis_centers(0)
    expected = 2.0 * min(1.0 + 0.5 * np.sin(2 * np.pi * x).min(), 1.0)
    u0 = ScalarField.constant(g, 1.0)
    phi = IDENTITY
    for declared in (1.0, expected):
        run_scheme(u0, 2, (0.0, 0.5), diagonal_tensor(fns, declared), phi)
    # with the pass above: the checked Spec(A+A^T) is within 1e-12 of `expected`
    with pytest.raises(ValueError, match="coercivity"):
        run_scheme(u0, 2, (0.0, 0.5), diagonal_tensor(fns, expected + 2e-12), phi)
    A_bad = diagonal_tensor((lambda t, p: 0.1 * np.ones(len(p)), lambda t, p: np.ones(len(p))),
                            coercivity=1.0)
    with pytest.raises(ValueError, match="coercivity"):
        run_scheme(u0, 1, (0.0, 0.5), A_bad, phi)


def test_run_scheme_checks_coercivity_at_each_reassembly():
    # 2 (1 - t) >= 1 holds up to t = 0.5: the steps ending at 0.25 and 0.5 run,
    # the one ending at 0.75 reassembles L_A and fails the check
    g = Grid((16,), (1.0,))
    A = diagonal_tensor((lambda t, p: np.full(len(p), 1.0 - t),), coercivity=1.0)
    u0 = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError, match="t = 0.75"):
        run_scheme(u0, 4, (0.0, 1.0), A, IDENTITY)


def test_variable_diagonal_tensor_step_conserves_mass():
    g = Grid((64,), (1.0,))
    A = diagonal_tensor((lambda t, p: 1.0 + 0.5 * np.cos(2 * np.pi * p[:, 0]),), coercivity=1.0)
    phi = nonlinearity_preset("porous:2")
    u0 = ScalarField.from_function(g, lambda p: 1.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]))
    out = semi_implicit_step(u0, 0.01, A, phi, bc="noflux")
    assert mass(out) == pytest.approx(mass(u0), rel=1e-12)
