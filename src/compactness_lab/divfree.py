"""Discrete divergence-free calculus: normal traces, Neumann-harmonic extension,
projection onto zero-normal-trace fields, the dual seminorm, and per-slice
versions on moving domains.

Divergence-free means the exact MAC stencil zero, so "u is div-free" and
"trace of the projection vanishes" are floating-point statements, not modeling
ones.  H^{-1/2} boundary norms are replaced throughout by the harmonic-extension
surrogate ||grad v||_2, which the projection identity makes computable; all
inequalities using it carry measured constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (Grid, RasterDomain, ScalarField, StaggeredVectorField,
                   _axis_slices, divergence, face_masks, gradient,
                   neumann_laplacian, staggered_inner, staggered_l2)
from .movedom import poincare_constant

CG_TOL = 1e-10
CG_MAX_ITERS = 50000


def face_measure(grid, axis):
    """Transverse measure of a face (1 in 1D, h_perp in 2D)."""
    return grid.cell_volume / grid.spacing[axis]


def restrict_staggered(u, domain):
    """Zero all faces not adjacent to an inside cell; attaches the raster."""
    masks = face_masks(domain.inside)
    comps = []
    for a in range(u.grid.dim):
        interior, boundary, _ = masks[a]
        comps.append(np.where(interior | boundary, u.components[a], 0.0))
    return StaggeredVectorField(u.grid, tuple(comps), mask=domain)


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

    def check_compatibility(self, tol=1e-10):
        scale = self.abs_flux() + 1e-300
        defect = abs(self.total_flux()) / scale
        if defect > tol:
            raise ValueError(f"incompatible Neumann data: relative net flux {defect:.3e}")
        return defect

    def __mul__(self, s):
        return BoundaryData(self.domain, tuple(v * s for v in self.values))

    __rmul__ = __mul__


def normal_trace(u, domain):
    """Outward-normal face components on the raster boundary."""
    masks = face_masks(domain.inside)
    vals = []
    for a in range(u.grid.dim):
        _, boundary, sign = masks[a]
        vals.append(np.where(boundary, sign * u.components[a], 0.0))
    return BoundaryData(domain, tuple(vals))


def _cg_mean_zero(L, b, tol=CG_TOL):
    """Conjugate gradients on the mean-zero subspace of the Neumann Laplacian."""
    n = L.shape[0]
    b = b - b.mean()
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(n)
    if b_norm == 0.0:
        return x, 0.0
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(CG_MAX_ITERS):
        Ap = L @ p
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if it % 50 == 49:
            r -= r.mean()
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b_norm:
            x -= x.mean()
            return x, np.sqrt(rs_new) / b_norm
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise RuntimeError(f"CG stalled at relative residual {np.sqrt(rs) / b_norm:.3e}")


def neumann_harmonic(g_data, domain):
    """Solve Delta v = 0 on the raster with prescribed outward normal flux and
    zero mean (CG to relative residual 1e-10)."""
    if not domain.is_connected():
        raise ValueError("harmonic extension needs a connected raster")
    g_data.check_compatibility()
    grid = domain.grid
    L, _ = neumann_laplacian(domain)
    rhs = np.zeros(grid.shape)
    for a, (_, _, sign) in enumerate(face_masks(domain.inside)):
        below, above, _ = _axis_slices(grid.dim, a)
        flux = g_data.values[a] / grid.spacing[a]
        # a boundary face feeds its one inside cell: outward sign +1 when it is
        # that cell's high face, -1 when it is its low face
        rhs += np.where(sign[above] > 0, flux[above], 0.0)
        rhs += np.where(sign[below] < 0, flux[below], 0.0)
    sol, _ = _cg_mean_zero(L, rhs[domain.inside])
    vals = np.zeros(grid.shape)
    vals[domain.inside] = sol
    return ScalarField(grid, vals, mask=domain)


def harmonic_gradient(v, domain, g_data=None):
    """Face gradient of the harmonic extension: interior differences plus the
    prescribed flux on boundary faces (signed back to face components)."""
    grad = gradient(v.restricted(domain))
    if g_data is None:
        return grad
    masks = face_masks(domain.inside)
    return grad.with_components([np.where(boundary, sign * gd, c) for (_, boundary, sign), gd, c
                                 in zip(masks, g_data.values, grad.components)])


def interior_dirichlet_energy(v, domain):
    """Interior-face Dirichlet energy <grad v, grad v> (the variational one)."""
    g = harmonic_gradient(v, domain, g_data=None)
    return staggered_inner(g, g)


def trace_norm_surrogate(g_data, domain):
    """||grad v||_2 with v the Neumann-harmonic extension; equivalent to the
    H^{-1/2} boundary norm up to domain constants, not equal to it."""
    v = neumann_harmonic(g_data, domain)
    return staggered_l2(harmonic_gradient(v, domain, g_data))


DIV_RESIDUAL_TOL = 1e-10


def _helmholtz_split(u, domain):
    """(u on the raster, grad v, P u = u - grad v), v the harmonic extension of
    the normal trace of u."""
    u = restrict_staggered(u, domain)
    g = normal_trace(u, domain)
    gv = harmonic_gradient(neumann_harmonic(g, domain), domain, g)
    return u, gv, restrict_staggered(u - gv, domain)


def project_divfree0(u, domain, verify=False):
    """Orthogonal projection of a div-free field onto the zero-normal-trace
    subspace: P u = u - grad v, v the harmonic extension of the trace.

    Always checks the divergence and trace residuals; `verify=True` also checks
    idempotence and sampled orthogonality (extra solves)."""
    u, _, pu = _helmholtz_split(u, domain)
    scale = staggered_l2(u) + 1e-300
    h = min(domain.grid.spacing)
    div_res = float(np.max(np.abs(divergence(pu).values[domain.inside]))) if domain.n_inside else 0.0
    if div_res > 10 * DIV_RESIDUAL_TOL * scale / h:
        raise RuntimeError(f"projected field divergence residual {div_res:.3e} out of tolerance")
    tr = normal_trace(pu, domain)
    tr_max = max(float(np.max(np.abs(tv))) for tv in tr.values)
    if tr_max > 10 * DIV_RESIDUAL_TOL * scale:
        raise RuntimeError(f"projected field trace residual {tr_max:.3e} out of tolerance")
    if verify:
        ppu = restrict_staggered(project_divfree0(pu, domain), domain)
        if staggered_l2(ppu - pu) > 1e-8 * scale:
            raise RuntimeError("projection is not idempotent at 1e-8")
    return pu


def dual_seminorm(u, domain):
    """N(u) = sup <u, psi> over zero-trace div-free psi with ||psi|| <= 1,
    realized as ||P u||_2."""
    return staggered_l2(project_divfree0(u, domain))


@dataclass
class DualNormReport:
    l2: float
    seminorm: float
    surrogate: float
    c_poincare: float
    slack: float

    @property
    def ok(self):
        return self.slack >= -1e-8 * (self.l2 + 1e-300)


def dual_norm_check(u, domain, c_poincare=None):
    """Check ||u||_2 <= N(u) + (1 + C_Omega) * surrogate-trace-norm(gamma_n u)."""
    if c_poincare is None:
        c_poincare = poincare_constant(domain)
    u, gv, pu = _helmholtz_split(u, domain)
    l2 = staggered_l2(u)
    seminorm = staggered_l2(pu)
    surrogate = staggered_l2(gv)
    slack = seminorm + (1.0 + c_poincare) * surrogate - l2
    return DualNormReport(l2, seminorm, surrogate, c_poincare, slack)


# ---------------------------------------------------------------------------
# time-indexed fields on moving domains


@dataclass(frozen=True, eq=False)
class VectorStepSeries:
    """Piecewise-constant-in-time staggered fields (slice k rules (t_k, t_{k+1}))."""

    interval: tuple
    fields: tuple

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise ValueError("empty series")

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
        return VectorStepSeries(self.interval, tuple(fn(f) for f in self.fields))

    def __sub__(self, other):
        return VectorStepSeries(self.interval, tuple(a - b for a, b in zip(self.fields, other.fields)))


def vector_series_l2(s, slice_domains=None):
    total = 0.0
    for k, f in enumerate(s.fields):
        if slice_domains is not None:
            f = restrict_staggered(f, slice_domains[k])
        total += staggered_l2(f) ** 2
    return float(np.sqrt(total * s.delta))


def shift_vector_series_steps(s, j):
    zero = s.fields[0] * 0.0
    n = s.n_steps
    fields = []
    for k in range(n):
        src = k - j
        fields.append(s.fields[src] if 0 <= src < n else zero)
    return VectorStepSeries(s.interval, tuple(fields))


@dataclass
class PerSliceProjection:
    projected: VectorStepSeries
    slice_surrogates: list
    spacetime_trace_norm: float
    pythagoras_defect: float


def per_slice_project(series, nc, eps):
    """Apply the zero-trace projection slice by slice on the A_t(Omega_eps)
    rasters; also returns the space-time surrogate trace norm
    (time integral of squared slice surrogates, square root)."""
    if series.n_steps != nc.n_slices:
        raise ValueError("series and domain slice counts differ")
    out = []
    surrs = []
    pyth = 0.0
    for k, u in enumerate(series.fields):
        u_r, gv, pu = _helmholtz_split(u, nc.transported(k, eps))
        out.append(pu)
        surr = staggered_l2(gv)
        surrs.append(surr)
        lhs = staggered_l2(u_r) ** 2
        rhs = staggered_l2(pu) ** 2 + surr ** 2
        pyth = max(pyth, abs(lhs - rhs) / (lhs + 1e-300))
    projected = VectorStepSeries(series.interval, tuple(out))
    st_norm = float(np.sqrt(series.delta * sum(s ** 2 for s in surrs)))
    return PerSliceProjection(projected, surrs, st_norm, pyth)


# ---------------------------------------------------------------------------
# .sgrid text format: `dim nx [ny]`, `Lx [Ly]`, then x-face values row-major,
# then y-face values


def write_sgrid_file(path, u):
    g = u.grid
    with open(path, "w") as fh:
        fh.write(f"{g.dim} " + " ".join(str(n) for n in g.shape) + "\n")
        fh.write(" ".join(repr(L) for L in g.extent) + "\n")
        for comp in u.components:
            for v in comp.reshape(-1):
                fh.write(f"{v:.17e}\n")


def read_sgrid_file(path):
    with open(path) as fh:
        head = fh.readline().split()
        dim = int(head[0])
        shape = tuple(int(x) for x in head[1:1 + dim])
        extent = tuple(float(x) for x in fh.readline().split())
        grid = Grid(shape, extent)
        comps = []
        for a in range(dim):
            cshape = list(shape)
            cshape[a] += 1
            n = int(np.prod(cshape))
            comps.append(np.array([float(fh.readline()) for _ in range(n)]).reshape(cshape))
    return StaggeredVectorField(grid, tuple(comps))
