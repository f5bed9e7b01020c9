"""Space-only mollifiers, shift operators, and the product commutator
a (b * phi_k) - (a b) * phi_k whose uniform L^1 decay drives the product-limit
argument.

Kernels are the standard bump exp(-1/(1-|kx|^2)) rasterized on the grid lattice
and renormalized to discrete mass one.  Convolution is direct summation over
the kernel footprint with zero extension: `np.convolve` on 1D rasters and face
families, `scipy.ndimage.convolve` in 2D.  Both skip every tap whose weight
times the cell volume is at most DBL_EPSILON in magnitude (`ndimage` does so
internally; the 1D path zeroes those taps first), so both sum the same taps.
Direct summation, unlike an FFT, leaves exact zeros outside the support of the
input dilated by the kernel; checks such as the relative Neumann compatibility
test on eroded domains and the vanishing commutator of a constant factor rely
on them.  A step series convolves slice by slice:
`convolve_space(s, mol)` for scalar slices, `s.map(lambda u:
convolve_staggered(u, mol))` for face slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .grid import ScalarField, StaggeredVectorField
from .parabolic import StepTimeSeries


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Rasterized bump of radius 1/k with discrete integral exactly one."""

    k: int
    grid: object
    weights: np.ndarray  # footprint box, zero outside the support ball


def make_mollifier(k, grid):
    """Standard bump at scale k; requires 1/k >= 2h so the kernel is resolvable."""
    k = int(k)
    if k <= 0:
        raise ValueError("k must be a positive integer")
    hmax = max(grid.spacing)
    if 1.0 / k < 2.0 * hmax:
        raise ValueError(f"kernel under-resolved: 1/k = {1.0 / k:g} < 2h = {2 * hmax:g}")
    radii = [int(np.floor(1.0 / (k * h))) for h in grid.spacing]
    axes = [np.arange(-r, r + 1) * h for r, h in zip(radii, grid.spacing)]
    if grid.dim == 1:
        rho2 = (k * axes[0]) ** 2
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        rho2 = (k * X) ** 2 + (k * Y) ** 2
    w = np.zeros_like(rho2)
    inside = rho2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    total = np.sum(w) * grid.cell_volume
    if total <= 0:
        raise ValueError("kernel rasterized to zero mass")
    return Mollifier(k, grid, w / total)


def _convolve_values(values, mol):
    # direct footprint summation, zero extension
    w = mol.weights * mol.grid.cell_volume
    if values.ndim == 1:
        w[np.abs(w) <= np.finfo(float).eps] = 0.0
        # "full" then slice: mode="same" returns the longer input's length, and
        # the kernel can be longer than the raster
        r = w.size // 2
        return np.convolve(values, w)[r:r + values.size]
    return scipy.ndimage.convolve(values, w, mode="constant", cval=0.0)


def convolve_space(f, mol):
    """Space convolution with a mollifier; a ScalarField, or a StepTimeSeries of
    them slice by slice.  Inputs are read zero-extended outside their mask; the
    output is unmasked (its support grows by the kernel radius)."""
    if isinstance(f, StepTimeSeries):
        return f.map(lambda g: convolve_space(g, mol))
    if f.grid != mol.grid:
        raise ValueError("grid mismatch between field and mollifier")
    return ScalarField(f.grid, _convolve_values(f.values, mol))


def convolve_staggered(u, mol):
    """Componentwise space convolution of a MAC field; each face family lives on
    its own uniform lattice with the grid spacing, so divergence commutes with
    the convolution exactly."""
    comps = tuple(_convolve_values(c, mol) for c in u.components)
    return StaggeredVectorField(u.grid, comps)


def shift_space(f, h_vec):
    """tau_h f(x) = f(x - h); the shift must be a lattice vector (integer cells)."""
    h_vec = np.atleast_1d(np.asarray(h_vec, dtype=float))
    g = f.grid
    if h_vec.shape != (g.dim,):
        raise ValueError("shift dimension mismatch")
    steps = []
    for a in range(g.dim):
        r = h_vec[a] / g.spacing[a]
        j = round(r)
        if abs(r - j) > 1e-9:
            raise ValueError(f"non-lattice space shift {h_vec[a]:g} (spacing {g.spacing[a]:g})")
        steps.append(int(j))
    out = np.zeros_like(f.values)
    src = []
    dst = []
    for a, j in enumerate(steps):
        n = g.shape[a]
        if abs(j) >= n:
            return ScalarField(g, out)  # shifted out of the box
        if j >= 0:
            dst.append(slice(j, n))
            src.append(slice(0, n - j))
        else:
            dst.append(slice(0, n + j))
            src.append(slice(-j, n))
    out[tuple(dst)] = f.values[tuple(src)]
    return ScalarField(g, out)


def _commutator_slice(a_vals, b_vals, mol):
    """S = a (b * phi_k) - (a b) * phi_k on one slice: two convolutions."""
    conv_b = _convolve_values(b_vals, mol)
    conv_ab = _convolve_values(a_vals * b_vals, mol)
    return a_vals * conv_b - conv_ab


def commutator(a, b, mol):
    """S = a (b * phi_k) - (a b) * phi_k per slice, plus its L^1(time x space) norm."""
    if a.interval != b.interval or a.n_steps != b.n_steps:
        raise ValueError("mismatched time partitions")
    fields = []
    l1 = 0.0
    vol = a.grid.cell_volume
    for fa, fb in zip(a.fields, b.fields):
        s_vals = _commutator_slice(fa.values, fb.values, mol)
        fields.append(ScalarField(a.grid, s_vals))
        l1 += float(np.sum(np.abs(s_vals))) * vol
    series = StepTimeSeries(a.interval, tuple(fields))
    return series, float(l1 * a.delta)


def separable_commutator_l1(a, b, coefs, interval, mol):
    """L^1(interval x space) norm of the commutator S for each member of a
    separable family: row n of `coefs` holds member n's slice coefficients, and
    slice j of member n is the pair (c_nj a, c_nj b) of ScalarFields.  Member n's
    value equals `commutator(a_n, b_n, mol)[1]` bit for bit.

    S is evaluated once per distinct |c|, and its L^1 is kept as a float and
    reused wherever the slice recurs.  This is exact.  A slice is a * c, one
    IEEE multiply per cell, so equal c gives equal bytes.  Round-to-nearest is
    symmetric under negation, so a (-c) = -(a c) and (-x)(-y) = x y; and every
    partial sum of a convolution of -x is the negative of the same partial
    sum of x, whatever the summation order or FMA use.  Hence
    (-a) (-b * phi) = a (b * phi) and ((-a)(-b)) * phi = (a b) * phi, so
    S(-a, -b) = S(a, b) bit for bit.  Each member's slice values are summed in
    slice order and scaled by the step length, exactly as `commutator` does."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.ndim != 2 or coefs.shape[1] == 0:
        raise ValueError("coefs must be a (members, slices) array with at least one slice")
    t0, t1 = float(interval[0]), float(interval[1])
    delta = (t1 - t0) / coefs.shape[1]
    vol = a.grid.cell_volume
    slice_l1 = {}  # |c| -> L^1 over space of S at that slice
    out = []
    for row in coefs:
        l1 = 0.0
        for c in row.tolist():
            s_l1 = slice_l1.get(abs(c))
            if s_l1 is None:
                s_vals = _commutator_slice((a * c).values, (b * c).values, mol)
                s_l1 = slice_l1[abs(c)] = float(np.sum(np.abs(s_vals))) * vol
            l1 += s_l1
        out.append(float(l1 * delta))
    return out
