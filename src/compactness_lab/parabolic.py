"""Semi-implicit scheme for d_t u = div(A grad phi(u)), step-in-time series, and
the hypothesis monitor for the degenerate-parabolic compactness diagnostics.

The scheme is backward Euler in the flux: (u_{k+1} - u_k)/delta =
div(A grad phi(u_{k+1})).  Each step assembles L_A = -div(A grad .) once with
`grid.face_laplacian` (face coefficients 2 A/h^2 on the box edges under
`dirichlet0`, 0 under `noflux`) and solves
u - u_k + delta L_A (phi(u) - phi(0)) = 0 by Newton.  The Newton matrix
I + delta L_A diag(phi') is the exact derivative of that residual, with phi'
clamped at 1e-12 to guard the degenerate cells where phi' = 0.  With no-flux
faces the discrete mass telescopes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from .grid import (ScalarField, _axis_slices, face_laplacian, gradient,
                   h_minus_m_norm, lp_norm)

NEWTON_MAX_ITERS = 50
NEWTON_TOL = 1e-10
JACOBIAN_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class StepTimeSeries:
    """Piecewise-constant-in-time family: field k rules (t_k, t_{k+1})."""

    interval: tuple
    fields: tuple

    def __post_init__(self):
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise ValueError("a step series needs at least one field")
        g = self.fields[0].grid
        for f in self.fields:
            if f.grid != g:
                raise ValueError("series fields must share one grid")

    @property
    def n_steps(self):
        return len(self.fields)

    @property
    def delta(self):
        a, b = self.interval
        return (b - a) / self.n_steps

    @property
    def grid(self):
        return self.fields[0].grid

    def times(self):
        """Partition points t_0 .. t_N."""
        a, b = self.interval
        return a + np.arange(self.n_steps + 1) * self.delta

    def map(self, fn):
        return StepTimeSeries(self.interval, tuple(fn(f) for f in self.fields))

    def map_values(self, fn):
        return self.map(lambda f: f.map(fn))

    def __sub__(self, other):
        if other.interval != self.interval or other.n_steps != self.n_steps:
            raise ValueError("series partitions differ")
        return StepTimeSeries(self.interval, tuple(a - b for a, b in zip(self.fields, other.fields)))

    def __mul__(self, other):
        if isinstance(other, StepTimeSeries):
            if other.interval != self.interval or other.n_steps != self.n_steps:
                raise ValueError("series partitions differ")
            return StepTimeSeries(self.interval, tuple(a * b for a, b in zip(self.fields, other.fields)))
        if isinstance(other, ScalarField):
            return StepTimeSeries(self.interval, tuple(f * other for f in self.fields))
        return StepTimeSeries(self.interval, tuple(f * other for f in self.fields))

    __rmul__ = __mul__


def constant_series(f, interval, n_steps):
    return StepTimeSeries(interval, (f,) * n_steps)


def oscillating_series(g, interval, n_osc):
    """Step reconstruction of sin(2*pi*n t) * g sampled at slice midpoints:
    2n slices alternating +/- g (midpoint sampling avoids aliasing the sine to
    zero at the partition points)."""
    fields = tuple(g if k % 2 == 0 else g * (-1.0) for k in range(2 * int(n_osc)))
    return StepTimeSeries(interval, fields)


def series_l2(s, slice_masks=None):
    """L^2(I x Omega) norm of a step series; optional per-slice raster masks."""
    total = 0.0
    for k, f in enumerate(s.fields):
        if slice_masks is not None:
            f = f.restricted(slice_masks[k])
        total += lp_norm(f, 2) ** 2
    return float(np.sqrt(total * s.delta))


def series_inner(s, theta):
    """Pairing of a series against a static spatial test function."""
    from .grid import inner

    return float(s.delta * sum(inner(f, theta) for f in s.fields))


def series_distance(fine, coarse):
    """L^2(I x Omega) distance between two step series on nested partitions of
    the same interval, the coarser one read piecewise-constantly on the finer."""
    if fine.interval != coarse.interval:
        raise ValueError("series intervals differ")
    if fine.n_steps % coarse.n_steps != 0:
        raise ValueError("partitions are not nested")
    ratio = fine.n_steps // coarse.n_steps
    total = 0.0
    for k, f in enumerate(fine.fields):
        diff = f - coarse.fields[k // ratio]
        total += lp_norm(diff, 2) ** 2
    return float(np.sqrt(total * fine.delta))


def shift_series_steps(s, j):
    """lambda_{j*delta}: shift by j steps (f(t - j delta)), zero-filled."""
    zero = s.fields[0] * 0.0
    n = s.n_steps
    fields = []
    for k in range(n):
        src = k - j
        fields.append(s.fields[src] if 0 <= src < n else zero)
    return StepTimeSeries(s.interval, tuple(fields))


# ---------------------------------------------------------------------------
# diffusion tensor


class DiffusionTensor:
    """Cellwise diagonal diffusion tensor A(t, x) with a declared coercivity.

    `entries(t, grid)` returns per-cell arrays (a11,) in 1D or (a11, a22) in 2D;
    the scheme only accepts diagonal tensors.
    """

    def __init__(self, entries, coercivity, name="custom"):
        self._entries = entries
        self.coercivity = float(coercivity)
        self.name = name
        if self.coercivity <= 0:
            raise ValueError("coercivity must be positive")

    @classmethod
    def identity(cls, scale=1.0):
        def entries(t, grid):
            return tuple(np.full(grid.shape, float(scale)) for _ in range(grid.dim))

        return cls(entries, coercivity=2.0 * scale, name=f"identity*{scale:g}")

    @classmethod
    def diagonal(cls, fns, coercivity):
        """fns: per-axis callables (t, pts) -> per-cell values."""

        def entries(t, grid):
            pts = grid.cell_centers().reshape(-1, grid.dim)
            return tuple(np.asarray(fn(t, pts), dtype=float).reshape(grid.shape) for fn in fns)

        return cls(entries, coercivity=coercivity, name="diagonal")

    def entries(self, t, grid):
        out = self._entries(t, grid)
        if len(out) != grid.dim:
            raise ValueError("diffusion tensor entry count does not match grid dim")
        return out

    def sample_coercivity(self, grid, times):
        """Min over samples of Spec(A + A^T) (diagonal: 2*min entry)."""
        worst = np.inf
        for t in np.atleast_1d(times):
            worst = min(worst, 2.0 * min(float(np.min(e)) for e in self.entries(t, grid)))
        return worst

    def check_coercivity(self, grid, times):
        sampled = self.sample_coercivity(grid, times)
        if sampled < self.coercivity - 1e-12:
            raise ValueError(
                f"sampled Spec(A+A^T) = {sampled:.3e} below declared coercivity {self.coercivity:.3e}")
        return sampled


def _face_coefficients(entries, grid, axis):
    """Arithmetic-mean face values of a cellwise coefficient along one axis;
    boundary faces take the adjacent cell's value."""
    pad = [(int(a == axis),) * 2 for a in range(grid.dim)]
    a = np.pad(entries[axis], pad, mode="edge")
    below, above, _ = _axis_slices(grid.dim, axis)
    return 0.5 * (a[below] + a[above])


def _backward_euler(u_k, delta, A, phi, bc, t):
    """Residual and Newton matrix of one backward-Euler step, as functions of
    the flat state u: F(u) = u - u_k + delta L_A (phi(u) - phi(0)) and
    dF/du = I + delta L_A diag(max(phi'(u), JACOBIAN_CLAMP))."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if bc not in ("noflux", "dirichlet0"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    grid = u_k.grid
    entries = A.entries(t, grid)
    coef = [_face_coefficients(entries, grid, a) / h ** 2 for a, h in enumerate(grid.spacing)]
    edge = [2.0 * c if bc == "dirichlet0" else 0.0 for c in coef]
    L, _ = face_laplacian(grid, np.ones(grid.shape, dtype=bool), coef, edge)
    u0 = u_k.values.reshape(-1)
    phi0 = float(phi.phi(np.zeros(1))[0])
    rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
    on_diag = L.indices == rows

    def residual(u):
        return u - u0 + delta * (L @ (phi.phi(u) - phi0))

    def newton_matrix(u):
        # L_A is symmetric, so its CSR arrays scaled by row are L_A diag(.) in CSC
        data = L.data * (delta * np.maximum(phi.dphi(u), JACOBIAN_CLAMP))[rows]
        data[on_diag] += 1.0
        return scipy.sparse.csc_matrix((data, L.indices, L.indptr), shape=L.shape)

    return residual, newton_matrix


class NewtonFailure(RuntimeError):
    """Newton stalled; usually a degenerate Jacobian on the data range."""


def semi_implicit_step(u_k, delta, A, phi, bc="noflux", t=0.0):
    """One backward-Euler step; returns u_{k+1} with residual <= 1e-10 in the
    max norm relative to ||u_k||_inf + 1.  Newton records are dropped; use
    run_scheme to keep them."""
    out, _ = _newton_step(u_k, delta, A, phi, bc, t)
    return out


def _newton_step(u_k, delta, A, phi, bc, t):
    residual, newton_matrix = _backward_euler(u_k, delta, A, phi, bc, t)
    u = u_k.values.reshape(-1).copy()
    scale = float(np.max(np.abs(u))) + 1.0
    history = []
    for _ in range(NEWTON_MAX_ITERS):
        F = residual(u)
        res = float(np.max(np.abs(F))) / scale
        history.append(res)
        if res <= NEWTON_TOL:
            return ScalarField(u_k.grid, u, mask=u_k.mask), history
        u = u - scipy.sparse.linalg.spsolve(newton_matrix(u), F)
    raise NewtonFailure(
        f"Newton did not reach residual {NEWTON_TOL:g} in {NEWTON_MAX_ITERS} iterations "
        f"(last {history[-1]:.3e}); degenerate Jacobian on the data range?")


@dataclass
class SchemeRun:
    """run_scheme output: the left-endpoint step series plus the full state
    list and Newton records."""

    series: StepTimeSeries
    states: tuple
    newton_iters: list
    final_residuals: list

    @property
    def final_state(self):
        return self.states[-1]


def run_scheme(u0, n_steps, interval, A, phi, bc="noflux"):
    """Iterate the semi-implicit step over a uniform partition of `interval`.

    The returned series places state u_k on (t_k, t_{k+1}); the state at the
    final time is exposed via `states[-1]`.
    """
    a, b = interval
    delta = (b - a) / n_steps
    states = [u0]
    iters, residuals = [], []
    for k in range(n_steps):
        nxt, history = _newton_step(states[-1], delta, A, phi, bc, t=a + (k + 1) * delta)
        states.append(nxt)
        iters.append(len(history))
        residuals.append(history[-1])
    series = StepTimeSeries((a, b), tuple(states[:-1]))
    return SchemeRun(series, tuple(states), iters, residuals)


def mass(f):
    return float(np.sum(f.values) * f.grid.cell_volume)


# ---------------------------------------------------------------------------
# energy identity and hypothesis monitor


@dataclass
class EnergyReport:
    rows: list = field(default_factory=list)  # (k, lhs, rhs, dissipation, coercive_lhs)
    violations: list = field(default_factory=list)
    rel_tol: float = 1e-8

    @property
    def ok(self):
        return not self.violations

    @property
    def max_relative_violation(self):
        if not self.rows:
            return 0.0
        return max((lhs - rhs) / (abs(rhs) + 1.0) for _, lhs, rhs, _, _ in self.rows)


def energy_report(s, A, phi, rel_tol=1e-8):
    """Per transition u_k -> u_{k+1} inside the series, check
    int psi(u_{k+1}) + delta <grad phi(u_{k+1}), A grad phi(u_{k+1})> <= int psi(u_k),
    and the coercive variant with the declared lambda."""
    report = EnergyReport(rel_tol=rel_tol)
    delta = s.delta
    grid = s.grid
    vol = grid.cell_volume
    times = s.times()
    for k in range(s.n_steps - 1):
        u_next = s.fields[k + 1]
        entries = A.entries(times[k + 1], grid)
        g = gradient(u_next.map(phi.phi))
        diss = 0.0
        grad_sq = 0.0
        for a in range(grid.dim):
            coef = _face_coefficients(entries, grid, a)
            diss += float(np.sum(coef * g.components[a] ** 2) * vol)
            grad_sq += float(np.sum(g.components[a] ** 2) * vol)
        rhs = float(np.sum(phi.psi(s.fields[k].values)) * vol)
        lhs = float(np.sum(phi.psi(u_next.values)) * vol) + delta * diss
        coercive_lhs = float(np.sum(phi.psi(u_next.values)) * vol) + delta * 0.5 * A.coercivity * grad_sq
        report.rows.append((k, lhs, rhs, delta * diss, coercive_lhs))
        if lhs - rhs > rel_tol * (abs(rhs) + 1.0):
            report.violations.append(k)
    return report


def time_derivative_tv(s, m, domain):
    """Total variation of the jump measure d_t u in H^{-m}: the sum of the jump
    norms at the interior partition points."""
    total = 0.0
    for k in range(1, s.n_steps):
        total += h_minus_m_norm(s.fields[k] - s.fields[k - 1], m, domain)
    return float(total)


def grad_phi_l2(s, phi):
    """L^2(I x Omega) norm of grad phi(u) over the series."""
    vol = s.grid.cell_volume
    total = 0.0
    for f in s.fields:
        g = gradient(f.map(phi.phi))
        total += sum(float(np.sum(c ** 2)) for c in g.components) * vol
    return float(np.sqrt(total * s.delta))


@dataclass
class MonitorReport:
    rows: list
    verdict: bool
    failures: list

    def csv_lines(self):
        return ["N,l2_norm,grad_phi_l2,tv_hminus_m,cauchy_to_prev"] + [
            ",".join([str(row[0])] + [repr(float(x)) for x in row[1:]]) for row in self.rows]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")

    @property
    def verdict_text(self):
        return ("consistent with strong L2 compactness" if self.verdict
                else "inconsistent: " + "; ".join(self.failures))


def hypothesis_monitor(series_list, phi, m, domain, bound_factor=2.0):
    """Tabulate the three hypothesis norms and the cross-refinement Cauchy
    column; positive verdict iff the norms are uniformly bounded (max/min <=
    bound_factor) and the Cauchy column strictly decreases."""
    rows = []
    prev = None
    for s in series_list:
        l2 = series_l2(s)
        gphi = grad_phi_l2(s, phi)
        tv = time_derivative_tv(s, m, domain)
        cauchy = np.nan if prev is None else series_distance(s, prev)
        rows.append((s.n_steps, l2, gphi, tv, cauchy))
        prev = s
    failures = []
    names = ["l2_norm", "grad_phi_l2", "tv_hminus_m"]
    for col, name in enumerate(names, start=1):
        vals = np.array([r[col] for r in rows])
        floor = 1e-12 * (np.max(vals) + 1.0)
        lo = max(np.min(vals), floor)
        if np.max(vals) > bound_factor * lo and np.max(vals) > floor:
            failures.append(f"{name} unbounded (x{np.max(vals) / lo:.2f} across refinements)")
    cauchy = [r[4] for r in rows[1:]]
    if any(b >= a for a, b in zip(cauchy[:-1], cauchy[1:])):
        failures.append("cross-refinement Cauchy column not strictly decreasing")
    return MonitorReport(rows, verdict=not failures, failures=failures)


# ---------------------------------------------------------------------------
# closed-form porous-medium benchmark profile (1D)


def barenblatt_profile(m, mass=1.0):
    """Closed-form self-similar source solution of d_t u = (u^m)_xx in 1D,
    normalized to the given mass; returns u(x, t)."""
    if m <= 1:
        raise ValueError("self-similar profile needs m > 1")
    alpha = 1.0 / (m + 1.0)
    kappa = alpha * (m - 1.0) / (2.0 * m)
    p = 1.0 / (m - 1.0)
    beta_int = np.sqrt(np.pi) * scipy.special.gamma(p + 1.0) / scipy.special.gamma(p + 1.5)
    C = (mass * np.sqrt(kappa) / beta_int) ** (1.0 / (p + 0.5))

    def profile(x, t):
        x = np.asarray(x, dtype=float)
        core = C - kappa * x ** 2 * t ** (-2.0 * alpha)
        return t ** (-alpha) * np.where(core > 0, core, 0.0) ** p

    return profile
