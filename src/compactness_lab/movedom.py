"""Diffeomorphism families, non-cylindrical domains, epsilon-interior geometry,
and the uniform constants (Jacobian bounds, bilipschitz frame, Poincare
transport) that the moving-domain compactness argument consumes.

All set identities are raster statements: erosion thresholds the inside
side of the membership's exact Euclidean distance transform and dilation its
outside side, each computed on first read and kept by the raster
(`RasterDomain.edt_inside` / `edt_outside`); they are asserted up to a
one-cell band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .grid import RasterDomain, RasterFactor, neumann_laplacian

TIME_SAMPLES_PER_UNIT = 64


# ---------------------------------------------------------------------------
# raster geometry


def _eps_offset(d, eps, side, keep):
    """Cells of d whose exact EDT passes `keep(sd, eps)`, read from the one
    side of d's transform (`edt_inside` or `edt_outside`) that decides it."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return d
    return RasterDomain(d.grid, keep(getattr(d, side), eps))


def eps_interior(d, eps):
    """Cells of d at raster distance > eps from the complement (exact EDT)."""
    return _eps_offset(d, eps, "edt_inside", lambda sd, e: sd > e)


def eps_exterior(d, eps):
    """d dilated by a (closed) ball of radius eps on the raster."""
    return _eps_offset(d, eps, "edt_outside", lambda sd, e: sd >= -e)


def symmetric_difference_band(d1, d2, reference_sd, level):
    """Count symmetric-difference cells lying deeper than two cells away from
    the {reference_sd = level} contour."""
    sym = d1.inside ^ d2.inside
    band = 2.0 * max(d1.grid.spacing)
    return int(np.count_nonzero(sym & (np.abs(reference_sd - level) > band)))


# ---------------------------------------------------------------------------
# domain presets (analytic signed distances are exact Euclidean)


def make_domain(name, grid, center=None):
    """Presets: `disk:r`, `square:L`; centered in the box unless `center` is
    given."""
    c = np.array([e / 2 for e in grid.extent]) if center is None else np.asarray(center, dtype=float)
    parts = name.split(":")
    kind = parts[0]
    if kind == "disk":
        r = float(parts[1])

        def disk_sdf(pts):
            return r - np.linalg.norm(pts - c, axis=1)

        return RasterDomain.from_sdf(grid, disk_sdf)
    if kind == "square":
        L = float(parts[1])
        half = L / 2.0

        def square_sdf(pts):
            q = np.abs(pts - c) - half
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            inside = np.minimum(np.max(q, axis=1), 0.0)
            return -(outside + inside)

        return RasterDomain.from_sdf(grid, square_sdf)
    raise ValueError(f"unknown domain preset {name!r}")


# ---------------------------------------------------------------------------
# diffeomorphism families


@dataclass(frozen=True, eq=False)
class DiffeoFamily:
    """The affine family A_t(x) = c + M(t)(x - c) + t v.

    `mat` and `inv` map t to M(t) and M(t)^{-1}; grad A_t = M(t) at every x,
    so every constant of the motion is a statement about `mats()`.
    inverse: (t, pts (n,d)) -> (n,d).
    """

    interval: tuple
    mat: object
    inv: object
    center: np.ndarray
    velocity: np.ndarray

    def inverse(self, t, pts):
        c = self.center
        return c + (np.asarray(pts, dtype=float) - c - t * self.velocity) @ self.inv(t).T

    def times(self):
        a, b = self.interval
        n = max(2, int(np.ceil((b - a) * TIME_SAMPLES_PER_UNIT)) + 1)
        return np.linspace(a, b, n)

    def mats(self):
        """M(t) at every t of `times()`, stacked as (n_times, d, d)."""
        return np.array([self.mat(t) for t in self.times()])


def make_family(name, interval, **params):
    """Presets: identity | translation (velocity) | dilation (amplitude, center)."""
    eye = np.eye(2)
    center, velocity = np.zeros(2), np.zeros(2)

    def unit(t):
        return eye

    mat = inv = unit
    if name == "translation":
        velocity = np.asarray(params["velocity"], dtype=float)
    elif name == "dilation":
        amp = float(params.get("amplitude", 0.25))
        center = np.asarray(params["center"], dtype=float)

        def scale(t):
            return 1.0 + amp * np.sin(t)

        mat, inv = (lambda t: scale(t) * eye), (lambda t: eye / scale(t))
    elif name != "identity":
        raise ValueError(f"unknown family preset {name!r}")
    return DiffeoFamily((float(interval[0]), float(interval[1])), mat, inv, center, velocity)


# ---------------------------------------------------------------------------
# uniform constants of the motion


@dataclass(frozen=True)
class JacobianBounds:
    alpha: float
    beta: float
    raw_min: float
    raw_max: float

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise ValueError("need 0 < alpha <= beta")


SAFETY_SHRINK = 0.99
SAFETY_INFLATE = 1.01


def jacobian_bounds(family):
    """Min/max of |det grad A_t| = |det M(t)| over `family.times()`: the raw
    extremes, and alpha/beta with the declared 0.99/1.01 safety factors."""
    dets = np.abs(np.linalg.det(family.mats()))
    lo, hi = float(dets.min()), float(dets.max())
    return JacobianBounds(alpha=SAFETY_SHRINK * lo, beta=SAFETY_INFLATE * hi,
                          raw_min=lo, raw_max=hi)


def bilipschitz(family):
    """The two-sided Lipschitz constant K of A_t over `family.times()`: A_t is
    affine with gradient M(t), so K = max_t max(sigma_max, 1/sigma_min) of
    M(t) exactly (Golub & Van Loan, Matrix Computations, 2.4); eta = 1/K."""
    sv = np.linalg.svd(family.mats(), compute_uv=False)
    return float(max(sv[:, 0].max(), (1.0 / sv[:, -1]).max()))


def grad_sup_norm(family):
    """Sup over `family.times()` of the spectral norm of grad A_t = M(t)."""
    return float(np.linalg.svd(family.mats(), compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# the moving domain


def _pull_back(family, base, t):
    """Membership of A_t(base): the cells whose centres A_t^{-1} maps into base."""
    centers = base.grid.cell_centers().reshape(-1, base.grid.dim)
    return (base.sd_at(family.inverse(t, centers)) > 0).reshape(base.grid.shape)


class NonCylindricalDomain:
    """Time-sliced rasters of Omega^t = A_t(Omega) on a shared grid.

    Slice k represents the interval (t_k, t_{k+1}) and is rasterized at the
    interval midpoint.  Erosions Omega_eps, transported erosions
    A_t(Omega_eps) (eps = 0 gives the slice), slice erosions (Omega^t)_eps and
    slice inflations (Omega^t)_{-eps} share one cache keyed by (kind, slice,
    eps), with eps rounded to 12 decimals.
    """

    def __init__(self, family, reference, n_slices):
        self.family = family
        self.reference = reference
        self.grid = reference.grid
        self.n_slices = int(n_slices)
        self.interval = family.interval
        self._rasters = {}

    @property
    def delta(self):
        a, b = self.interval
        return (b - a) / self.n_slices

    def slice_times(self):
        a, _ = self.interval
        return a + (np.arange(self.n_slices) + 0.5) * self.delta

    def _cached(self, kind, k, eps, build):
        key = (kind, k, round(float(eps), 12))
        if key not in self._rasters:
            self._rasters[key] = build()
        return self._rasters[key]

    def eroded_reference(self, eps):
        return self._cached("eroded", None, eps, lambda: eps_interior(self.reference, eps))

    def slice_raster(self, k):
        return self.transported(k, 0.0)

    def transported(self, k, eps):
        """Raster of A_{t_k}(Omega_eps)."""
        def build():
            base = self.eroded_reference(eps)
            return RasterDomain(self.grid, _pull_back(self.family, base, self.slice_times()[k]))
        return self._cached("transported", k, eps, build)

    def slice_eroded(self, k, eps):
        """Raster of (Omega^t_k) eroded by eps."""
        return self._cached("slice_eroded", k, eps, lambda: eps_interior(self.slice_raster(k), eps))

    def slice_exterior(self, k, eps):
        """Raster of (Omega^t_k) dilated by eps."""
        return self._cached("exterior", k, eps, lambda: eps_exterior(self.slice_raster(k), eps))

    def compact_core(self, eps):
        """The cells inside A_t(Omega_eps) on every slice, eroded by two cells."""
        inside = np.logical_and.reduce(
            [self.transported(k, eps).inside for k in range(self.n_slices)])
        return eps_interior(RasterDomain(self.grid, inside), 2 * max(self.grid.spacing))


@dataclass
class FramingReport:
    eta: float
    eps: float
    inner_violations: int
    outer_violations: int
    inner_violations_banded: int
    outer_violations_banded: int

    @property
    def ok(self):
        return self.inner_violations_banded == 0 and self.outer_violations_banded == 0


def framing_check(nc, eps, band_cells=1.5):
    """Rasterized check of (Omega^t)_{eps/eta} subset A_t(Omega_eps) subset
    (Omega^t)_{eta*eps} on every slice of `nc`, eta = 1/K with K the exact
    `bilipschitz` constant; violations past a band of `band_cells` cells must
    be zero.

    Violations lie outside the raster they escape, so the band is measured
    with that raster's `edt_outside` alone; all the rasters stay cached in
    `nc`, the transported ones for `peel_measure`.  For a translation eta is
    exactly 1, so both erosions of a slice are one raster."""
    eta = 1.0 / bilipschitz(nc.family)
    band = band_cells * max(nc.grid.spacing)
    raw_in = raw_out = band_in = band_out = 0
    for k in range(nc.n_slices):
        mid = nc.transported(k, eps)
        viol1 = nc.slice_eroded(k, eps / eta).inside & ~mid.inside
        outer = nc.slice_eroded(k, eta * eps)
        viol2 = mid.inside & ~outer.inside
        raw_in += int(np.count_nonzero(viol1))
        raw_out += int(np.count_nonzero(viol2))
        band_in += int(np.count_nonzero(viol1 & (mid.edt_outside < -band)))
        band_out += int(np.count_nonzero(viol2 & (outer.edt_outside < -band)))
    return FramingReport(eta, eps, raw_in, raw_out, band_in, band_out)


@dataclass
class PeelReport:
    measured_sup: float
    bound: float

    @property
    def ok(self):
        return self.measured_sup <= self.bound * 1.02


def peel_measure(nc, eps):
    """sup_t of the rasterized measure of Omega^t minus A_t(Omega_eps), against
    the transport bound beta * mu(Omega minus Omega_eps)."""
    worst = 0.0
    for k in range(nc.n_slices):
        peel = nc.slice_raster(k).inside & ~nc.transported(k, eps).inside
        worst = max(worst, float(np.count_nonzero(peel)) * nc.grid.cell_volume)
    ref_peel = (nc.reference.measure - nc.eroded_reference(eps).measure)
    return PeelReport(worst, jacobian_bounds(nc.family).beta * ref_peel)


# ---------------------------------------------------------------------------
# Poincare constants


def poincare_constant(domain):
    """1/sqrt(lambda_1) with lambda_1 the smallest nonzero Neumann eigenvalue on
    the raster.

    A raster whose inside cells fill their bounding box, m_a cells along axis
    a, takes the closed form: its Neumann Laplacian is the Kronecker sum of
    1D Neumann second differences, which the DCT-II diagonalises (Strang,
    SIAM Review 41, 1999), so lambda_1 = min over axes with m_a >= 2 of
    (4/h_a^2) sin^2(pi/(2 m_a)), with no matrix and no iteration.  Every
    raster of a default run is such a box: `movedom`'s unit square and its
    eps-interiors, `divfree`'s full square.

    Every other raster (a disk, an eroded disk, a disconnected raster) takes
    shift-invert Lanczos for the four eigenvalues of L nearest
    sigma = -1e-3 max diag(L), with (L - sigma I)^{-1} applied by a
    `RasterFactor` of L - sigma I; a raster of at most four cells, where ARPACK
    cannot run, takes a dense `eigh`.  Exactly one numerical zero must be among
    them: disconnected rasters raise."""
    if domain.n_inside < 2:
        raise ValueError("domain too small for a Poincare constant")
    counts = [int(idx.max() - idx.min()) + 1 for idx in np.nonzero(domain.inside)]
    if int(np.prod(counts)) == domain.n_inside:
        # 1/sqrt(lambda_1) = h_a / (2 sin(pi/(2 m_a))) on the axis that sets lambda_1
        return float(max(h / (2.0 * np.sin(np.pi / (2 * m)))
                         for h, m in zip(domain.grid.spacing, counts) if m >= 2))
    L = neumann_laplacian(domain)
    n = L.shape[0]
    scale = float(L.diagonal().max())
    zero_tol = 1e-8 * scale
    k = 4
    if n <= k:
        lam = scipy.linalg.eigh(L.toarray(), eigvals_only=True)
    else:
        sigma = -1e-3 * scale
        factor = RasterFactor(domain, L - sigma * scipy.sparse.identity(n, format="csr"))
        op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=factor.solve, dtype=float)
        # a seeded generic start: the constant vector spans the kernel, so a
        # Krylov space grown from it meets the other eigenvectors only through
        # round-off, and on a 268-cell interval it returned lambda_2
        v0 = np.random.default_rng(np.random.Philox(0)).standard_normal(n)
        lam, _ = scipy.sparse.linalg.eigsh(L, k=k, sigma=sigma, which="LM", tol=0,
                                           v0=v0, OPinv=op_inv)
        lam = np.sort(lam)
    positive = [x for x in lam if x > zero_tol]
    n_zero = len(lam) - len(positive)
    if n_zero != 1 or not positive:
        raise ValueError(
            f"no spectral gap at zero ({n_zero} numerical kernel vectors): disconnected raster?")
    return 1.0 / float(np.sqrt(positive[0]))


def transported_poincare(family, domain, eps_list):
    """Closed-form transported constant sqrt(beta/alpha) * C_{Omega,gamma} *
    sup|grad A_t| from the measured ingredients (raw sampled Jacobian extremes,
    so the identity family reproduces C_{Omega,gamma} exactly), with
    C_{Omega,gamma} the largest Poincare constant of the eps-interiors over
    `eps_list`."""
    c_common = max(poincare_constant(eps_interior(domain, e)) for e in eps_list)
    jb = jacobian_bounds(family)
    sup_grad = grad_sup_norm(family)
    return float(np.sqrt(jb.raw_max / jb.raw_min) * c_common * sup_grad)
