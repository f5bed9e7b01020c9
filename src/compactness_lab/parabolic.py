"""Semi-implicit scheme for d_t u = Delta phi(u), step-in-time series, and the
hypothesis monitor for the degenerate-parabolic compactness diagnostics.

The scheme is backward Euler in the flux: (u_{k+1} - u_k)/delta =
Delta phi(u_{k+1}).  L = -Delta is assembled with `grid.face_laplacian` (face
coefficients 1/h^2, 2/h^2 on the box edges under `dirichlet0` and 0 under
`noflux`), together with the place of each of its entries in the Newton
matrix's band storage, once per `run_scheme`.  Each step solves
u - u_k + delta L (phi(u) - phi(0)) = 0 by Newton.  The Newton matrix
I + delta L diag(phi') is the exact derivative of that residual, with phi'
clamped at 1e-12 to guard the degenerate cells where phi' = 0; each Newton
iteration is one banded LU solve of it (`scipy.linalg.solve_banded`), in 1D
and 2D alike.  With no-flux faces the discrete mass telescopes exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy

from .grid import (RasterDomain, ScalarField, StaggeredVectorField,
                   dirichlet_factor, face_laplacian, gradient, h_minus_m_norm,
                   inner, lp_norm, staggered_l2)

NEWTON_MAX_ITERS = 50
NEWTON_TOL = 1e-10
JACOBIAN_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class StepTimeSeries:
    """Piecewise-constant-in-time family: slice k rules (t_k, t_{k+1}).  The
    slices are all ScalarFields or all StaggeredVectorFields on one grid."""

    interval: tuple
    fields: tuple

    def __post_init__(self):
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise ValueError("a step series needs at least one field")
        kind = type(self.fields[0])
        if kind not in (ScalarField, StaggeredVectorField):
            raise TypeError("series slices must be ScalarFields or StaggeredVectorFields")
        g = self.fields[0].grid
        for f in self.fields:
            if type(f) is not kind or f.grid != g:
                raise ValueError("series fields must share one grid and one field type")

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

    def map(self, fn):
        return StepTimeSeries(self.interval, tuple(fn(f) for f in self.fields))

    def restricted(self, domains):
        """Slice k restricted to the raster domains[k]."""
        return StepTimeSeries(self.interval, tuple(
            f.restricted(d) for f, d in zip(self.fields, domains, strict=True)))

    def _zip(self, other, op):
        if other.interval != self.interval or other.n_steps != self.n_steps:
            raise ValueError("series partitions differ")
        return StepTimeSeries(self.interval, tuple(op(a, b) for a, b in zip(self.fields, other.fields)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __mul__(self, other):
        return self._zip(other, operator.mul)


def constant_series(f, interval, n_steps):
    return StepTimeSeries(interval, (f,) * n_steps)


def slices_l2(slices, domains, delta):
    """L^2(I x Omega) norm of the step series with these slices on partition
    step `delta`, slice k measured over domains[k] (None: its mask, or the
    whole box), reading one slice at a time; face slices are measured by
    `staggered_l2` (boundary faces half-weighted)."""
    total = 0.0
    for f, d in zip(slices, domains, strict=True):
        total += (lp_norm(f, 2, d) if isinstance(f, ScalarField) else staggered_l2(f, d)) ** 2
    return float(np.sqrt(total * delta))


def series_l2(s, domains=None):
    """L^2(I x Omega) norm of a step series, optionally on per-slice rasters
    (slice k measured over domains[k], bitwise as on `s.restricted(domains)`)."""
    return slices_l2(s.fields, [None] * s.n_steps if domains is None else domains, s.delta)


def series_inner(s, theta):
    """Pairing of a series against a static spatial test function."""
    return float(s.delta * sum(inner(f, theta) for f in s.fields))


def series_distance(fine, coarse):
    """L^2(I x Omega) distance between two step series on nested partitions of
    the same interval, the coarser one read piecewise-constantly on the finer."""
    if fine.interval != coarse.interval:
        raise ValueError("series intervals differ")
    if fine.n_steps % coarse.n_steps != 0:
        raise ValueError("partitions are not nested")
    ratio = fine.n_steps // coarse.n_steps
    return series_l2(fine - StepTimeSeries(fine.interval, tuple(
        f for f in coarse.fields for _ in range(ratio))))


def _flux_operator(grid, bc):
    """L = -Delta on the whole box, as (L, band, slots): band is the
    half-width of the Newton matrix (1 in 1D, one raster row in 2D, as cells
    are numbered row-major) and slots the flat place of each stored entry of
    L in its LAPACK band layout, ab[band + i - j, j] = J[i, j]."""
    if bc not in ("noflux", "dirichlet0"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    L = face_laplacian(RasterDomain.full(grid), 2.0 if bc == "dirichlet0" else 0.0)
    n = L.shape[0]
    band = int(np.prod(grid.shape[1:]))
    rows = np.repeat(np.arange(n), np.diff(L.indptr))
    slots = (band + rows - L.indices) * n + L.indices
    return L, band, slots


def _backward_euler(u_k, delta, flux_operator, phi):
    """Residual and Newton matrix of one backward-Euler step with the
    `_flux_operator` (L, band, slots), as functions of the flat state u:
    F(u) = u - u_k + delta L (phi(u) - phi(0)) and
    dF/du = I + delta L diag(max(phi'(u), JACOBIAN_CLAMP)).  The Newton
    matrix comes as the (2 band + 1, n) array `ab` in the band layout that
    `scipy.linalg.solve_banded` takes."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    L, band, slots = flux_operator
    u0 = u_k.values.reshape(-1)
    phi0 = float(phi.phi(np.zeros(1))[0])
    n = L.shape[0]
    cols = L.indices

    def residual(u):
        return u - u0 + delta * (L @ (phi.phi(u) - phi0))

    def newton_matrix(u):
        ab = np.zeros((2 * band + 1, n))
        ab.flat[slots] = L.data * (delta * np.maximum(phi.dphi(u), JACOBIAN_CLAMP))[cols]
        ab[band] += 1.0
        return ab

    return residual, newton_matrix


class NewtonFailure(RuntimeError):
    """Newton stalled; usually a degenerate Jacobian on the data range."""


def _newton_step(u_k, delta, flux_operator, phi):
    residual, newton_matrix = _backward_euler(u_k, delta, flux_operator, phi)
    u = u_k.values.reshape(-1).copy()
    scale = float(np.max(np.abs(u))) + 1.0
    history = []
    for _ in range(NEWTON_MAX_ITERS):
        F = residual(u)
        res = float(np.max(np.abs(F))) / scale
        history.append(res)
        if res <= NEWTON_TOL:
            return ScalarField(u_k.grid, u, mask=u_k.mask), history
        ab = newton_matrix(u)
        band = len(ab) // 2
        u = u - scipy.linalg.solve_banded((band, band), ab, F)
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


def run_scheme(u0, n_steps, interval, phi, bc="noflux"):
    """Iterate the semi-implicit step over a uniform partition of `interval`.

    The returned series places state u_k on (t_k, t_{k+1}); the state at the
    final time is exposed via `states[-1]`.  L is assembled once, before the
    first step.
    """
    a, b = interval
    delta = (b - a) / n_steps
    flux = _flux_operator(u0.grid, bc)
    states = [u0]
    iters, residuals = [], []
    for _ in range(n_steps):
        nxt, history = _newton_step(states[-1], delta, flux, phi)
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
    rows: list = field(default_factory=list)  # (k, lhs, rhs, dissipation)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def energy_report(s, phi, rel_tol=1e-8):
    """Per transition u_k -> u_{k+1} inside the series, check
    int psi(u_{k+1}) + delta int |grad phi(u_{k+1})|^2 <= int psi(u_k); psi
    is integrated once per state."""
    report = EnergyReport()
    delta = s.delta
    vol = s.grid.cell_volume
    psi = [float(np.sum(phi.psi(f.values)) * vol) for f in s.fields]
    for k in range(s.n_steps - 1):
        g = gradient(s.fields[k + 1].map(phi.phi))
        diss = 0.0
        for c in g.components:
            diss += float(np.sum(c ** 2) * vol)
        rhs = psi[k]
        lhs = psi[k + 1] + delta * diss
        report.rows.append((k, lhs, rhs, delta * diss))
        if lhs - rhs > rel_tol * (abs(rhs) + 1.0):
            report.violations.append(k)
    return report


def time_derivative_tv(s, m, factor):
    """Total variation of the jump measure d_t u in H^{-m}: the sum of the jump
    norms at the interior partition points, on the raster of `factor`, its
    `dirichlet_factor`."""
    total = 0.0
    for k in range(1, s.n_steps):
        total += h_minus_m_norm(s.fields[k] - s.fields[k - 1], m, factor)
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

    columns = ("N", "l2_norm", "grad_phi_l2", "tv_hminus_m", "cauchy_to_prev")


def hypothesis_monitor(series_list, phi, m, domain):
    """Tabulate the three hypothesis norms and the cross-refinement Cauchy
    column; positive verdict iff the norms are uniformly bounded (max/min <= 2)
    and the Cauchy column strictly decreases.  The H^{-m} norms of every
    series share one `dirichlet_factor` of `domain`."""
    factor = dirichlet_factor(domain)
    rows = []
    prev = None
    for s in series_list:
        l2 = series_l2(s)
        gphi = grad_phi_l2(s, phi)
        tv = time_derivative_tv(s, m, factor)
        cauchy = np.nan if prev is None else series_distance(s, prev)
        rows.append((s.n_steps, l2, gphi, tv, cauchy))
        prev = s
    failures = []
    names = ["l2_norm", "grad_phi_l2", "tv_hminus_m"]
    for col, name in enumerate(names, start=1):
        vals = np.array([r[col] for r in rows])
        floor = 1e-12 * (np.max(vals) + 1.0)
        lo = max(np.min(vals), floor)
        if np.max(vals) > 2.0 * lo and np.max(vals) > floor:
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
    g_num, g_den = scipy.special.gamma(p + 1.0), scipy.special.gamma(p + 1.5)
    if not np.isfinite(g_den):
        raise ValueError("m too close to 1 for the profile: Gamma(1/(m - 1) + 1.5) overflows")
    beta_int = np.sqrt(np.pi) * g_num / g_den
    C = (mass * np.sqrt(kappa) / beta_int) ** (1.0 / (p + 0.5))

    def profile(x, t):
        x = np.asarray(x, dtype=float)
        core = C - kappa * x ** 2 * t ** (-2.0 * alpha)
        return t ** (-alpha) * np.where(core > 0, core, 0.0) ** p

    return profile
