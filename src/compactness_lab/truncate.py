"""Nonlinearities with finite critical sets and the C^1 truncation that erases them.

The truncation equals the identity away from the critical set, a shifted copy of
the nonlinearity on the inner half of each critical interval, and a cubic
Hermite blend in between (the minimal-degree C^1 interpolant matching values and
slopes at both junctions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _axis_slices, gradient


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar map phi with derivative, anti-derivative and declared critical points.

    Critical points are user-declared, not root-found.
    """

    phi: object
    dphi: object
    psi: object
    critical_points: tuple

    def __post_init__(self):
        object.__setattr__(self, "critical_points", tuple(sorted(self.critical_points)))


def nonlinearity_preset(name):
    """Presets selectable by name: `cubic` (phi = z^3) and `porous:m`
    (phi = sign(z)|z|^m, m > 1)."""
    if name == "cubic":
        return Nonlinearity(
            phi=lambda z: np.asarray(z, dtype=float) ** 3,
            dphi=lambda z: 3.0 * np.asarray(z, dtype=float) ** 2,
            psi=lambda z: np.asarray(z, dtype=float) ** 4 / 4,
            critical_points=(0.0,),
        )
    if name.startswith("porous:"):
        m = float(name.split(":", 1)[1])
        if m <= 1:
            raise ValueError(f"porous preset needs m > 1, got {m}")

        def phi(z):
            z = np.asarray(z, dtype=float)
            return np.sign(z) * np.abs(z) ** m

        def dphi(z):
            z = np.asarray(z, dtype=float)
            return m * np.abs(z) ** (m - 1)

        def psi(z):
            z = np.asarray(z, dtype=float)
            return np.abs(z) ** (m + 1) / (m + 1)

        return Nonlinearity(phi, dphi, psi, (0.0,))
    raise ValueError(f"unknown nonlinearity preset {name!r}")


def _hermite(z, a, b, va, vb, sa, sb):
    """Cubic Hermite on [a,b] with end values/slopes; returns (value, derivative)."""
    w = b - a
    t = (z - a) / w
    t2, t3 = t * t, t * t * t
    val = ((2 * t3 - 3 * t2 + 1) * va + (t3 - 2 * t2 + t) * w * sa
           + (-2 * t3 + 3 * t2) * vb + (t3 - t2) * w * sb)
    der = ((6 * t2 - 6 * t) * va + (3 * t2 - 4 * t + 1) * w * sa
           + (-6 * t2 + 6 * t) * vb + (3 * t2 - 2 * t) * w * sb) / w
    return val, der


class TruncationBeta:
    """Piecewise C^1 truncation: identity outside the critical intervals,
    graft `z_i + phi(z) - phi(z_i)` on the inner halves, cubic Hermite blends
    in between.  Callable on scalars or arrays."""

    def __init__(self, source, eps):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        zs = source.critical_points
        for a, b in zip(zs[:-1], zs[1:]):
            if b - a <= 2 * eps:
                raise ValueError(f"critical intervals overlap for eps={eps} (gap {b - a})")
        self.source = source
        self.eps = float(eps)
        self.deviation_constant = 0.0
        self._measure_deviation()

    def _pieces(self, z, want_derivative=False):
        phi, dphi = self.source.phi, self.source.dphi
        eps = self.eps
        z = np.asarray(z, dtype=float)
        val = z.copy()
        der = np.ones_like(z)
        for zi in self.source.critical_points:
            graft = np.abs(z - zi) <= eps / 2
            if np.any(graft):
                val[graft] = zi + phi(z[graft]) - phi(np.array([zi]))[0]
                der[graft] = dphi(z[graft])
            for side in (+1, -1):
                a = zi + side * eps / 2
                b = zi + side * eps
                lo, hi = (a, b) if side > 0 else (b, a)
                blend = (z > lo) & (z < hi) if side > 0 else (z >= lo) & (z < hi)
                # half-open so the graft edge belongs to the graft piece
                blend &= np.abs(z - zi) > eps / 2
                if not np.any(blend):
                    continue
                va = zi + phi(np.array([a]))[0] - phi(np.array([zi]))[0]
                sa = dphi(np.array([a]))[0]
                v, d = _hermite(z[blend], a, b, va, b, sa, 1.0)
                val[blend] = v
                der[blend] = d
        return (val, der) if want_derivative else val

    def __call__(self, z):
        scalar = np.isscalar(z)
        out = self._pieces(np.atleast_1d(np.asarray(z, dtype=float)))
        return float(out[0]) if scalar else out.reshape(np.shape(z))

    def _measure_deviation(self):
        sup = 0.0
        sup_slope = 1.0
        for zi in self.source.critical_points:
            zz = np.linspace(zi - self.eps, zi + self.eps, 20001)
            v, d = self._pieces(zz, want_derivative=True)
            sup = max(sup, float(np.max(np.abs(v - zz))))
            sup_slope = max(sup_slope, float(np.max(np.abs(d))))
        self.deviation_constant = sup / self.eps if self.source.critical_points else 0.0
        self.sup_slope = sup_slope

    def junction_mismatch(self):
        """Max value and derivative jumps over the 4 junction points per critical
        point, each piece evaluated analytically from its own formula."""
        phi, dphi = self.source.phi, self.source.dphi
        eps = self.eps
        worst_val = 0.0
        worst_der = 0.0
        for zi in self.source.critical_points:
            phi_zi = phi(np.array([zi]))[0]
            for side in (+1, -1):
                a = zi + side * eps / 2
                b = zi + side * eps
                va = zi + phi(np.array([a]))[0] - phi_zi
                sa = dphi(np.array([a]))[0]
                # inner junction: graft piece vs blend piece
                bv, bd = _hermite(np.array([a]), a, b, va, b, sa, 1.0)
                worst_val = max(worst_val, abs(bv[0] - va))
                worst_der = max(worst_der, abs(bd[0] - sa))
                # outer junction: blend piece vs identity
                bv, bd = _hermite(np.array([b]), a, b, va, b, sa, 1.0)
                worst_val = max(worst_val, abs(bv[0] - b))
                worst_der = max(worst_der, abs(bd[0] - 1.0))
        return worst_val, worst_der


def build_beta(phi, eps):
    """C^1 truncation of a Nonlinearity; precondition: the critical intervals
    [z_i - eps, z_i + eps] are pairwise disjoint."""
    return TruncationBeta(phi, eps)


@dataclass
class ChainGradientReport:
    """Facewise audit of the two-zone gradient transfer."""

    n_inner_faces: int
    n_outer_faces: int
    n_crossing_faces: int
    inner_max_abs_err: float
    outer_violations: int
    outer_bound: float


def chain_gradient_check(u, beta, phi):
    """Verify facewise: inside the inner zone the gradients of beta(u) and
    phi(u) coincide; outside, |grad beta(u)| <= (sup|beta'| / inf_out |phi'|)
    * |grad phi(u)|.  Faces whose two cells land in different zones (or straddle
    a critical point) are counted separately, not as violations."""
    vals = u.values
    gb = gradient(u.map(beta))
    gp = gradient(u.map(lambda z: phi.phi(z)))
    eps = beta.eps
    # lower bound of |phi'| outside the inner zone, over the data range
    zz = np.linspace(float(vals.min()) - 1e-9, float(vals.max()) + 1e-9, 4001)
    outer = _zone_index(zz, beta) < 1
    inf_out = float(np.min(np.abs(phi.dphi(zz[outer])))) if np.any(outer) else np.inf
    bound = beta.sup_slope / inf_out if inf_out > 0 else np.inf

    n_inner = n_outer = n_cross = violations = 0
    inner_err = 0.0
    scale = float(np.max(np.abs(gp.components[0]))) + 1e-30
    zones = _zone_index(vals, beta)
    for a in range(u.grid.dim):
        below, above, mid = _axis_slices(u.grid.dim, a)
        zl, zh = zones[below], zones[above]
        b_faces = gb.components[a][mid]
        p_faces = gp.components[a][mid]
        same_inner = (zl == zh) & (zl >= 1)
        same_outer = (zl == zh) & (zl < 0)
        cross = ~(same_inner | same_outer)
        n_inner += int(np.count_nonzero(same_inner))
        n_outer += int(np.count_nonzero(same_outer))
        n_cross += int(np.count_nonzero(cross))
        if np.any(same_inner):
            inner_err = max(inner_err, float(np.max(np.abs(b_faces[same_inner] - p_faces[same_inner]))))
        if np.any(same_outer):
            bad = np.abs(b_faces[same_outer]) > bound * np.abs(p_faces[same_outer]) + 1e-9 * scale
            violations += int(np.count_nonzero(bad))
    return ChainGradientReport(n_inner, n_outer, n_cross, inner_err, violations, bound)


def _zone_index(vals, beta):
    """Labels: i+1 inside the graft zone of critical point i, -(j+1) for the
    j-th monotone interval strictly outside the full zone, 0 for blend zones."""
    zs = beta.source.critical_points
    out = np.zeros(vals.shape, dtype=int)
    edges = [-np.inf, *zs, np.inf]
    for j in range(len(edges) - 1):
        lo = edges[j] + (beta.eps if np.isfinite(edges[j]) else 0.0)
        hi = edges[j + 1] - (beta.eps if np.isfinite(edges[j + 1]) else 0.0)
        out[(vals > lo) & (vals < hi)] = -(j + 1)
    for i, zi in enumerate(zs):
        out[np.abs(vals - zi) <= beta.eps / 2] = i + 1
    return out
