"""Discrete divergence-free calculus: normal traces, Neumann-harmonic extension,
projection onto zero-normal-trace fields, the dual seminorm, and per-slice
versions on moving domains, where a time-indexed face field is read one
`StaggeredVectorField` slice at a time: the slices of a
`parabolic.StepTimeSeries`, or a stream of them.

Divergence-free means the exact MAC stencil zero, so "u is div-free" and
"trace of the projection vanishes" are floating-point statements, not modeling
ones.  H^{-1/2} boundary norms are replaced throughout by the harmonic-extension
surrogate ||grad v||_2, which the projection identity makes computable; all
inequalities using it carry measured constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (RasterDomain, RasterFactor, ScalarField,
                   StaggeredVectorField, _axis_slices, divergence, gradient,
                   neumann_laplacian, staggered_l2)


def face_measure(grid, axis):
    """Transverse measure of a face (1 in 1D, h_perp in 2D)."""
    return grid.cell_volume / grid.spacing[axis]


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Outward-normal values on the boundary faces of a raster."""

    domain: RasterDomain
    values: tuple  # per axis, full face-array shape, zero off the boundary

    def total_flux(self):
        g = self.domain.grid
        return float(sum(np.sum(self.values[a]) * face_measure(g, a)
                         for a in range(g.dim)))

    def abs_flux(self):
        g = self.domain.grid
        return float(sum(np.sum(np.abs(self.values[a])) * face_measure(g, a)
                         for a in range(g.dim)))

    def check_compatibility(self):
        """Raise unless the net flux is at most 1e-10 of the absolute flux."""
        scale = self.abs_flux() + 1e-300
        defect = abs(self.total_flux()) / scale
        if defect > 1e-10:
            raise ValueError(f"incompatible Neumann data: relative net flux {defect:.3e}")
        return defect


def normal_trace(u, domain):
    """Outward-normal face components on the raster boundary."""
    return BoundaryData(domain, tuple(np.where(boundary, sign * c, 0.0) for (_, boundary, sign), c
                                      in zip(domain.face_masks, u.components)))


def neumann_factor(domain):
    """The factor of the pinned Neumann matrix L + e_0 e_0^T of a connected
    raster, for `neumann_harmonic`.  Build it once per raster and pass it to
    every solve on that raster; it refuses any other raster."""
    if not domain.is_connected():
        raise ValueError("harmonic extension needs a connected raster")
    L = neumann_laplacian(domain)
    L[0, 0] += 1.0  # in place: every row of L stores its diagonal
    return RasterFactor(domain, L)


def neumann_harmonic(g_data, domain, factor):
    """Solve Delta v = 0 on the raster with prescribed outward normal flux and
    zero mean.

    One solve of (L + e_0 e_0^T) v = b - mean(b) with the raster's
    `neumann_factor`; the matrix is nonsingular on a connected raster.  The
    columns of the Neumann Laplacian L sum to zero, so summing the rows gives
    v_0 = 0, and v also solves L v = b - mean(b)."""
    factor.check(domain)
    g_data.check_compatibility()
    grid = domain.grid
    rhs = np.zeros(grid.shape)
    for a, (_, _, sign) in enumerate(domain.face_masks):
        below, above, _ = _axis_slices(grid.dim, a)
        flux = g_data.values[a] / grid.spacing[a]
        # a boundary face feeds its one inside cell: outward sign +1 when it is
        # that cell's high face, -1 when it is its low face
        rhs += np.where(sign[above] > 0, flux[above], 0.0)
        rhs += np.where(sign[below] < 0, flux[below], 0.0)
    b = rhs[domain.inside]
    sol = factor.solve(b - b.mean())
    sol -= sol.mean()
    vals = np.zeros(grid.shape)
    vals[domain.inside] = sol
    return ScalarField(grid, vals, mask=domain)


def harmonic_gradient(v, domain, g_data):
    """Face gradient of the harmonic extension: interior differences plus the
    prescribed flux on boundary faces (signed back to face components)."""
    grad = gradient(v.restricted(domain))
    return grad.with_components([np.where(boundary, sign * gd, c) for (_, boundary, sign), gd, c
                                 in zip(domain.face_masks, g_data.values, grad.components)])


DIV_RESIDUAL_TOL = 1e-10


def _helmholtz_split(u, domain, factor):
    """(u on the raster, grad v, P u = u - grad v), v the harmonic extension of
    the normal trace of u, with the raster's `neumann_factor`."""
    u = u.restricted(domain)
    g = normal_trace(u, domain)
    gv = harmonic_gradient(neumann_harmonic(g, domain, factor), domain, g)
    return u, gv, u - gv


def _check_residuals(u, pu, domain):
    """Raise unless the projection adds no divergence, div(P u) = div(u) inside,
    to tolerance relative to ||u||_2.  P u is only as div-free as u, which may
    itself be round-off (P u on a raster whose zero-trace div-free space is
    {0}), its divergence not small against ||u||_2.  The trace of P u is exact
    zero, as `harmonic_gradient` writes u's own component on every boundary face."""
    scale = staggered_l2(u) + 1e-300
    h = min(domain.grid.spacing)
    added = divergence(pu - u).values[domain.inside]
    div_res = float(np.max(np.abs(added)))
    if div_res > 10 * DIV_RESIDUAL_TOL * scale / h:
        raise RuntimeError(f"projected field divergence residual {div_res:.3e} out of tolerance")


def project_divfree0(u, domain, factor):
    """Orthogonal projection of a div-free field onto the zero-normal-trace
    subspace: P u = u - grad v, v the harmonic extension of the trace.

    Checks the divergence residual.  `factor` is the raster's
    `neumann_factor`."""
    u, _, pu = _helmholtz_split(u, domain, factor)
    _check_residuals(u, pu, domain)
    return pu


@dataclass
class DualNormReport:
    """`seminorm` is N(u) = sup <u, psi> over zero-trace div-free psi with
    ||psi||_2 <= 1, realized as ||P u||_2; `surrogate` is ||grad v||_2, v the
    Neumann-harmonic extension of the normal trace of u, equivalent to the
    H^{-1/2} norm of that trace up to domain constants, not equal to it."""

    l2: float
    seminorm: float
    surrogate: float
    slack: float
    projected: StaggeredVectorField  # P u, residual-checked as in project_divfree0

    @property
    def ok(self):
        return self.slack >= -1e-8 * (self.l2 + 1e-300)


def dual_norm_check(u, domain, c_poincare, factor):
    """Check ||u||_2 <= N(u) + (1 + C_Omega) * surrogate-trace-norm(gamma_n u),
    with the raster's Poincare constant C_Omega and `neumann_factor`.

    One Helmholtz split serves the check and the report's P u, which passes the
    same residual checks as `project_divfree0`."""
    u, gv, pu = _helmholtz_split(u, domain, factor)
    _check_residuals(u, pu, domain)
    l2 = staggered_l2(u)
    seminorm = staggered_l2(pu)
    surrogate = staggered_l2(gv)
    slack = seminorm + (1.0 + c_poincare) * surrogate - l2
    return DualNormReport(l2, seminorm, surrogate, slack, pu)


# ---------------------------------------------------------------------------
# time-indexed fields on moving domains


def per_slice_project(series_list, nc, eps):
    """Apply the zero-trace projection slice by slice on the A_t(Omega_eps)
    rasters to every series of `series_list`, each an iterable of face slices
    with one slice per slice of `nc`.  Yields, for each slice k, one
    (slice, surrogate, projection) per series: slice k as read, the surrogate
    trace norm ||grad v||_2 of its Helmholtz split and P u.  A whole-series
    caller collects the yields; the space-time surrogate trace norm is the
    square root of the time integral of the squared slice surrogates.

    Slices are the outer loop: slice k's `neumann_factor` is built once,
    projects slice k of every series, and is dropped before the caller reads
    the splits, so one factor is alive at a time; slice k of each series is
    read only then, so a caller that streams its series and drops each yield
    once read holds no whole series.  A series with another slice count is
    zip's ValueError."""
    for k, *slices in zip(range(nc.n_slices), *series_list, strict=True):
        domain = nc.transported(k, eps)
        factor = neumann_factor(domain)
        splits = []
        for f in slices:
            _, gv, pu = _helmholtz_split(f, domain, factor)
            splits.append((f, staggered_l2(gv), pu))
        del factor
        yield splits
