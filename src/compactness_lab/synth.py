"""Seeded synthetic fields and families used by the diagnostics and demos.

Velocities come from corner-sampled stream functions, so their discrete
divergence is zero up to round-off.  All randomness flows through a
counter-based generator keyed by an explicit seed.
"""

from __future__ import annotations

import operator

import numpy as np

from .grid import ScalarField, StaggeredVectorField
from .parabolic import StepTimeSeries, constant_series


def generator(seed):
    return np.random.default_rng(np.random.Philox(int(seed)))


def bump(rho):
    """The standard compactly supported bump exp(-1/(1-rho^2)) on |rho| < 1."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = np.abs(rho) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - rho[inside] ** 2))
    return out


def random_smooth_field(grid, rng, modes=4):
    """Low-order random trigonometric polynomial on the box."""
    pts = grid.cell_centers().reshape(-1, grid.dim)
    out = np.zeros(len(pts))
    for _ in range(modes):
        kvec = rng.integers(0, 4, size=grid.dim)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.normal()
        arg = sum(2.0 * np.pi * kvec[a] * pts[:, a] / grid.extent[a] for a in range(grid.dim))
        out += amp * np.cos(arg + phase)
    return ScalarField(grid, out.reshape(grid.shape))


# ---------------------------------------------------------------------------
# stream functions and their div-free velocities (2D)


def curl_velocity(grid, psi_corners):
    """MAC curl of a corner stream function: u = (d psi/dy, -d psi/dx)."""
    hx, hy = grid.spacing
    ux = (psi_corners[:, 1:] - psi_corners[:, :-1]) / hy
    uy = -(psi_corners[1:, :] - psi_corners[:-1, :]) / hx
    return StaggeredVectorField(grid, (ux, uy))


def stream_from_function(grid, fn):
    corners = grid.corner_coords().reshape(-1, grid.dim)
    return np.asarray(fn(corners), dtype=float).reshape([n + 1 for n in grid.shape])


def random_stream_velocity(grid, rng):
    """Curl of a random stream of four trigonometric modes."""
    def fn(pts):
        out = np.zeros(len(pts))
        for _ in range(4):
            kvec = rng.integers(1, 4, size=grid.dim)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.normal()
            arg = sum(2.0 * np.pi * kvec[a] * pts[:, a] / grid.extent[a] for a in range(grid.dim))
            out += amp * np.sin(arg + phase)
        return out

    return curl_velocity(grid, stream_from_function(grid, fn))


def disk_bump_velocity(grid, center, radius, modulation=None):
    """Velocity given by a bump stream supported in the disk of the given
    radius; optional smooth scalar modulation of the stream."""
    c = np.asarray(center, dtype=float)

    def fn(pts):
        rho = np.linalg.norm(pts - c, axis=1) / radius
        out = bump(rho)
        if modulation is not None:
            out = out * modulation(pts)
        return out

    return curl_velocity(grid, stream_from_function(grid, fn))


# ---------------------------------------------------------------------------
# families for the probes


def perturbation_scalar_family(base, pert, interval, n_slices, n_members):
    """f_n = base + pert/n, constant in time (the Cauchy-in-n model family)."""
    return [constant_series(base + (1.0 / n) * pert, interval, n_slices)
            for n in range(1, n_members + 1)]


def oscillation_coefficients(ns, n_slices):
    """The (len(ns), n_slices) array c_nj = sin(2 pi n t_j), one row per
    frequency n of `ns`, at the midpoints t_j = (j + 1/2)/N of N = n_slices
    equal slices of [0, 1].

    The phase is reduced exactly in integers: c_nj = sin(pi m / N) with
    m = n (2j + 1) mod 2N, and each n is first reduced mod 2N in Python
    integers, so any integer n is taken, past int64 too (a non-integer n is a
    TypeError), and equal n mod 2N give equal rows.  With r = m mod N folded
    to r' = min(r, N - r), the entry is +sin(pi r' / N) for m < N and
    -sin(pi r' / N) otherwise.  So mathematically equal |c| are equal bit for
    bit, c is exactly +-0.0 where n (2j + 1) is a multiple of N, and a row
    repeats bit for bit after every whole period of its sine.  Only the
    argument pi r' / N <= pi/2 and its sine are rounded: at (1..16, 32) every
    entry is within 0.83 ulp of the exact value, against up to 982 ulp for
    np.sin(2 pi n t_j); over every residue of every N <= 128 the error stays
    below 2 ulp."""
    N = n_slices
    reduced = np.array([operator.index(n) % (2 * N) for n in ns], dtype=np.int64).reshape(-1, 1)
    m = reduced * (2 * np.arange(N) + 1) % (2 * N)
    r = m % N
    folded = np.minimum(r, N - r)
    return np.where(m < N, 1.0, -1.0) * np.sin(np.pi * folded / N)


def oscillating_family(g, interval, n_slices, osc_list):
    """f_n = sin(2 pi n t) g(x) for each n of `osc_list`, g a cell or a face
    field, sampled at the midpoints of n_slices equal slices of the interval
    with the exactly reduced `oscillation_coefficients` (with g = curl psi, the
    adversarial div-free family on a static domain; with n_slices = 2n, the
    member is +g, -g, +g, ... exactly)."""
    return [StepTimeSeries(interval, tuple(g * c for c in row.tolist()))
            for row in oscillation_coefficients(osc_list, n_slices)]


def translating_disk_ns_family(grid, interval, n_slices, n_members, center,
                               disk_radius, velocity, stream_fraction=0.7):
    """Convergent moving-domain family: u_n = curl of a bump stream riding the
    translating disk, plus an O(1/n) smooth perturbation; div-free, zero normal
    trace well inside every slice."""
    a, b = interval
    mids = a + (np.arange(n_slices) + 0.5) * (b - a) / n_slices
    c0 = np.asarray(center, dtype=float)
    v = np.asarray(velocity, dtype=float)
    members = []
    for n in range(1, n_members + 1):
        fields = []
        for t in mids:
            c = c0 + t * v

            def modulation(pts, n=n):
                return 1.0 + np.cos(2.0 * np.pi * pts[:, 0] / grid.extent[0]) / n

            fields.append(disk_bump_velocity(grid, c, stream_fraction * disk_radius,
                                             modulation=modulation))
        members.append(StepTimeSeries(interval, tuple(fields)))
    return members
