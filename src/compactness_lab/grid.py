"""Uniform Cartesian grids (1D/2D), scalar and MAC-staggered fields, discrete calculus.

Scalars are cell-centered, vectors live on faces (MAC layout), so the discrete
divergence of a face field is exact on cells and gradient/divergence are
skew-adjoint up to boundary terms.  All norms and inner products use midpoint
quadrature with weight h^d per cell (and per face), so they are mutually
consistent.

Every face stencil goes through one slice helper (cells below / above each
interior face, and the interior faces) and `face_masks`.  The one operator
assembler, `face_laplacian`, builds -div(c grad .) on a raster's inside cells
from per-face coefficients plus a boundary-face closure: the Dirichlet and
Neumann Laplacians are two calls to it, and the parabolic scheme's Newton
matrix is built from the same operator.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box, dim 1 or 2.

    shape: cells per axis; extent: physical box lengths per axis.
    """

    shape: tuple
    extent: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        extent = tuple(float(L) for L in np.atleast_1d(self.extent))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extent", extent)
        if len(shape) not in (1, 2) or len(extent) != len(shape):
            raise ValueError(f"grid must be 1D or 2D with matching extents, got {shape}, {extent}")
        if any(n <= 0 for n in shape) or any(L <= 0 for L in extent):
            raise ValueError("cells and extents must be strictly positive")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def spacing(self):
        return tuple(L / n for L, n in zip(self.extent, self.shape))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def n_cells(self):
        return int(np.prod(self.shape))

    def axis_centers(self, axis):
        h = self.spacing[axis]
        return (np.arange(self.shape[axis]) + 0.5) * h

    def cell_centers(self):
        """Cell-center coordinates, shape (*shape, dim)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([X, Y], axis=-1)

    def corner_coords(self):
        """Cell-corner coordinates, shape (nx+1[, ny+1], dim)."""
        axes = [np.arange(n + 1) * h for n, h in zip(self.shape, self.spacing)]
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([X, Y], axis=-1)


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RasterDomain:
    """Rasterized open set: boolean membership per cell plus signed distance (positive inside).

    `sdf` optionally keeps the analytic signed-distance callable the raster was
    built from; geometric ops use it for sub-cell accuracy when present.
    """

    grid: Grid
    inside: np.ndarray
    signed_distance: np.ndarray
    sdf: object = field(default=None, repr=False)

    def __post_init__(self):
        inside = np.asarray(self.inside, dtype=bool).reshape(self.grid.shape)
        inside.setflags(write=False)
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "signed_distance", _readonly(np.reshape(self.signed_distance, self.grid.shape)))
        if not np.array_equal(self.inside, self.signed_distance > 0):
            raise ValueError("membership must coincide with {signed distance > 0}")

    @classmethod
    def from_membership(cls, grid, inside):
        inside = np.asarray(inside, dtype=bool).reshape(grid.shape)
        return cls(grid, inside, signed_distance_transform(grid, inside))

    @classmethod
    def from_sdf(cls, grid, sdf):
        pts = grid.cell_centers()
        d = np.asarray(sdf(pts.reshape(-1, grid.dim))).reshape(grid.shape)
        return cls(grid, d > 0, d, sdf=sdf)

    @classmethod
    def full(cls, grid):
        """The whole box (signed distance to the box boundary)."""

        def box_sdf(pts):
            d = np.minimum.reduce([np.minimum(pts[:, a], grid.extent[a] - pts[:, a])
                                   for a in range(grid.dim)])
            return d

        return cls.from_sdf(grid, box_sdf)

    @property
    def measure(self):
        return float(np.count_nonzero(self.inside)) * self.grid.cell_volume

    @property
    def n_inside(self):
        return int(np.count_nonzero(self.inside))

    def is_connected(self):
        lab, num = scipy.ndimage.label(self.inside)
        return num <= 1

    def sd_at(self, pts):
        """Signed distance sampled at arbitrary points (analytic if available,
        else multilinear interpolation of the cellwise values; far outside the
        box counts as deep outside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.sdf is not None:
            return np.asarray(self.sdf(pts), dtype=float)
        h = self.grid.spacing
        idx = [pts[:, a] / h[a] - 0.5 for a in range(self.grid.dim)]
        out = scipy.ndimage.map_coordinates(self.signed_distance, np.array(idx),
                                            order=1, mode="constant",
                                            cval=-float(max(self.grid.extent)))
        return out


def signed_distance_transform(grid, inside):
    """Exact Euclidean distance transform, positive inside.

    EDT distances are center-to-center; half a cell is subtracted on both sides
    as the center-to-boundary estimate (inside cells stay >= h/2 > 0, outside
    <= -h/2 < 0, so the sign still encodes membership).
    """
    inside = np.asarray(inside, dtype=bool)
    h = grid.spacing
    half = 0.5 * min(h)
    if inside.all():
        # no complement cells: distance to the raster's edge is unbounded; use box distance
        pts = grid.cell_centers().reshape(-1, grid.dim)
        d = np.minimum.reduce([np.minimum(pts[:, a], grid.extent[a] - pts[:, a])
                               for a in range(grid.dim)])
        return d.reshape(grid.shape)
    if not inside.any():
        return np.full(grid.shape, -float(max(grid.extent)))
    d_in = scipy.ndimage.distance_transform_edt(inside, sampling=h)
    d_out = scipy.ndimage.distance_transform_edt(~inside, sampling=h)
    return np.where(inside, d_in - half, -(d_out - half))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Grid-sampled scalar function; masked-out cells hold exactly zero."""

    grid: Grid
    values: np.ndarray
    mask: RasterDomain = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if self.mask is not None:
            if self.mask.grid is not self.grid and self.mask.grid != self.grid:
                raise ValueError("mask grid differs from field grid")
            v = np.where(self.mask.inside, v, 0.0)
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_function(cls, grid, fn, mask=None):
        pts = grid.cell_centers().reshape(-1, grid.dim)
        vals = np.asarray(fn(pts), dtype=float).reshape(grid.shape)
        return cls(grid, vals, mask=mask)

    @classmethod
    def constant(cls, grid, c, mask=None):
        return cls(grid, np.full(grid.shape, float(c)), mask=mask)

    def with_values(self, values):
        return ScalarField(self.grid, values, mask=self.mask)

    def map(self, fn):
        return self.with_values(fn(self.values))

    def restricted(self, domain):
        return ScalarField(self.grid, self.values, mask=domain)

    def __add__(self, other):
        return self.with_values(self.values + _vals(other))

    def __sub__(self, other):
        return self.with_values(self.values - _vals(other))

    def __mul__(self, other):
        return self.with_values(self.values * _vals(other))

    __rmul__ = __mul__


def _vals(x):
    return x.values if isinstance(x, ScalarField) else x


@dataclass(frozen=True, eq=False)
class StaggeredVectorField:
    """MAC face field: `components[a]` holds the a-normal components, shape grows
    by one along axis a.  1D has a single component."""

    grid: Grid
    components: tuple
    mask: RasterDomain = None

    def __post_init__(self):
        comps = []
        for a in range(self.grid.dim):
            shape = list(self.grid.shape)
            shape[a] += 1
            c = np.asarray(self.components[a], dtype=float).reshape(shape)
            comps.append(_readonly(c))
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def zero(cls, grid, mask=None):
        comps = []
        for a in range(grid.dim):
            shape = list(grid.shape)
            shape[a] += 1
            comps.append(np.zeros(shape))
        return cls(grid, tuple(comps), mask=mask)

    @classmethod
    def constant(cls, grid, vec, mask=None):
        u = cls.zero(grid, mask=mask)
        comps = tuple(np.full_like(c, float(v)) for c, v in zip(u.components, np.atleast_1d(vec)))
        return cls(grid, comps, mask=mask)

    def with_components(self, comps):
        return StaggeredVectorField(self.grid, tuple(comps), mask=self.mask)

    def __add__(self, other):
        return self.with_components([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return self.with_components([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, s):
        return self.with_components([c * s for c in self.components])

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# norms and inner products


def lp_norm(f, p):
    """Midpoint-rule L^p norm over the field's masked cells; p = inf gives the max."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    v = f.values
    if f.mask is not None:
        v = v[f.mask.inside]
    if p == np.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    vol = f.grid.cell_volume
    return float((np.sum(np.abs(v) ** p) * vol) ** (1.0 / p))


def inner(f, g):
    """L^2 inner product of two scalar fields on the same grid."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    return float(np.sum(f.values * g.values) * f.grid.cell_volume)


def _axis_slices(dim, axis):
    """(below, above, inner) index tuples along `axis`.  On a cell array, below
    and above pick the cells on either side of each interior face; on a face
    array they pick each cell's low and high face, and inner the interior faces."""
    below = [slice(None)] * dim
    above, inner = list(below), list(below)
    below[axis], above[axis], inner[axis] = slice(None, -1), slice(1, None), slice(1, -1)
    return tuple(below), tuple(above), tuple(inner)


def face_masks(inside):
    """(interior, boundary, outward_sign) per axis for a boolean cell raster: a
    face is interior when both adjacent cells are inside, boundary when exactly
    one is (grid edges count as outside)."""
    out = []
    for a in range(inside.ndim):
        below, above, _ = _axis_slices(inside.ndim, a)
        shape = list(inside.shape)
        shape[a] += 1
        low, high = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        low[above] = inside  # the cell below each face
        high[below] = inside  # the cell above it
        out.append((low & high, low ^ high, low.astype(float) - high))
    return out


def _face_weights(grid, mask):
    """Per-axis quadrature weights: h^d per interior face, h^d/2 on the
    domain's boundary faces (their volume share), 0 outside.  mask=None means
    the whole box."""
    vol = grid.cell_volume
    return [np.where(interior, vol, boundary * (vol / 2))
            for interior, boundary, _ in face_masks(
                mask.inside if mask is not None else np.ones(grid.shape, dtype=bool))]


def staggered_l2(u):
    """L^2 norm of a face field over its domain (boundary faces half-weighted,
    so constants have their exact continuum norm)."""
    w = _face_weights(u.grid, u.mask)
    return float(np.sqrt(sum(np.sum(wa * c ** 2) for wa, c in zip(w, u.components))))


def staggered_inner(u, v):
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    w = _face_weights(u.grid, u.mask if u.mask is not None else v.mask)
    return float(sum(np.sum(wa * a * b)
                     for wa, a, b in zip(w, u.components, v.components)))


# ---------------------------------------------------------------------------
# discrete calculus


def gradient(f):
    """Cell field -> face field; interior-face differences, zero on boundary faces.

    With a mask, a face is interior only when both adjacent cells are inside, so
    stencils never cross the mask.
    """
    g = f.grid
    comps = []
    for a in range(g.dim):
        below, above, inner = _axis_slices(g.dim, a)
        shape = list(g.shape)
        shape[a] += 1
        out = np.zeros(shape)
        diff = np.diff(f.values, axis=a) / g.spacing[a]
        if f.mask is not None:
            diff = np.where(f.mask.inside[below] & f.mask.inside[above], diff, 0.0)
        out[inner] = diff
        comps.append(out)
    return StaggeredVectorField(g, tuple(comps), mask=f.mask)


def divergence(u):
    """Face field -> cell field; exact MAC divergence."""
    g = u.grid
    vals = np.zeros(g.shape)
    for a in range(g.dim):
        vals = vals + np.diff(u.components[a], axis=a) / g.spacing[a]
    return ScalarField(g, vals, mask=u.mask)


# ---------------------------------------------------------------------------
# the face-stencil operator, Dirichlet eigenbasis and the discrete H^{-m} norm


def face_laplacian(grid, inside, coef, boundary_coef):
    """-div(c grad .) on the inside cells of a raster: CSR matrix and cell index
    (row number per cell, -1 outside).

    `coef[a]` and `boundary_coef[a]` are scalars or face arrays of axis a.  A
    face between two inside cells couples them with weight coef; a face with
    exactly one inside neighbour adds boundary_coef to that cell's diagonal
    (grid edges count as outside).  Every row stores its diagonal entry.
    """
    n = int(np.count_nonzero(inside))
    if n == 0:
        raise ValueError("empty domain")
    index = -np.ones(grid.shape, dtype=int)
    index[inside] = np.arange(n)
    rows, cols, vals = [], [], []
    diag = np.zeros(grid.shape)
    for a, (interior, boundary, _) in enumerate(face_masks(inside)):
        below, above, inner = _axis_slices(grid.dim, a)
        c = np.broadcast_to(coef[a], interior.shape)
        w = np.where(interior, c, boundary * boundary_coef[a])
        diag += w[above]
        diag += w[below]
        link = interior[inner]
        i, j = index[below][link], index[above][link]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-c[inner][link]] * 2)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag[inside])
    L = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return L, index


def dirichlet_laplacian(domain):
    """5-point (3-point in 1D) Dirichlet Laplacian on a raster's inside cells, CSR."""
    c = [1.0 / h ** 2 for h in domain.grid.spacing]
    return face_laplacian(domain.grid, domain.inside, c, c)


def neumann_laplacian(domain):
    """5-point Neumann (no-flux) Laplacian on a raster's inside cells, CSR; the
    diagonal counts interior faces only, so constants are in the kernel exactly."""
    c = [1.0 / h ** 2 for h in domain.grid.spacing]
    return face_laplacian(domain.grid, domain.inside, c, [0.0] * len(c))


MAX_EIGENPAIRS = 512
EIG_TOL = 1e-9


class DirichletEigenbasis:
    """Retained Dirichlet-Laplacian eigenpairs on a raster domain.

    Keeps min(n_cells, 512) smallest pairs; eigenvectors are orthonormal in the
    discrete L^2 inner product.  `tail_mass` reports the L^2 mass a projection
    misses when the basis is truncated.
    """

    def __init__(self, domain, n_pairs=None):
        self.domain = domain
        L, index = dirichlet_laplacian(domain)
        n = L.shape[0]
        k = min(n, MAX_EIGENPAIRS if n_pairs is None else n_pairs)
        if k == n:
            lam, vec = scipy.linalg.eigh(L.toarray())
        else:
            v0 = np.ones(n)
            lam, vec = scipy.sparse.linalg.eigsh(L, k=k, sigma=0.0, which="LM",
                                                 tol=EIG_TOL, v0=v0)
            order = np.argsort(lam)
            lam, vec = lam[order], vec[:, order]
        vol = domain.grid.cell_volume
        self.eigenvalues = lam
        # orthonormal wrt <f,g> = vol * sum f g
        self.eigenvectors = vec / np.sqrt(vol)
        self._index = index
        self.truncated = k < n

    def coefficients(self, f):
        v = f.values[self.domain.inside]
        return self.eigenvectors.T @ v * self.domain.grid.cell_volume

    def tail_mass(self, f):
        """||f||_2^2 minus the retained spectral mass (zero for a complete basis)."""
        c = self.coefficients(f)
        v = f.values[self.domain.inside]
        total = float(np.sum(v ** 2) * self.domain.grid.cell_volume)
        return max(0.0, total - float(np.sum(c ** 2)))


_eigenbasis_cache = weakref.WeakKeyDictionary()


def dirichlet_eigenbasis(domain):
    basis = _eigenbasis_cache.get(domain)
    if basis is None:
        basis = DirichletEigenbasis(domain)
        _eigenbasis_cache[domain] = basis
    return basis


def h_minus_m_norm(f, m, domain):
    """Discrete H^{-m} norm: (sum_k (1+lambda_k)^{-m} |<f,e_k>|^2)^{1/2}.

    Truncated tails are accounted at the weight of the largest retained
    eigenvalue, which keeps m=0 equal to the L^2 norm and the value
    nonincreasing in m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if domain.n_inside == 0:
        raise ValueError("empty domain")
    basis = dirichlet_eigenbasis(domain)
    c = basis.coefficients(f)
    s = float(np.sum((1.0 + basis.eigenvalues) ** (-float(m)) * c ** 2))
    if basis.truncated:
        s += (1.0 + basis.eigenvalues[-1]) ** (-float(m)) * basis.tail_mass(f)
    return float(np.sqrt(max(s, 0.0)))


def h_m_norm_dual_weight(phi, m, domain):
    """(sum_k (1+lambda_k)^m |<phi,e_k>|^2)^{1/2}: the dual side of the H^{-m} pairing bound."""
    basis = dirichlet_eigenbasis(domain)
    c = basis.coefficients(phi)
    return float(np.sqrt(np.sum((1.0 + basis.eigenvalues) ** float(m) * c ** 2)))


# ---------------------------------------------------------------------------
# .grid text format: line 1 `dim nx [ny]`, line 2 `Lx [Ly]`, one value per
# line, row-major, >= 17 significant digits


def write_grid_file(path, f):
    g = f.grid
    with open(path, "w") as fh:
        fh.write(f"{g.dim} " + " ".join(str(n) for n in g.shape) + "\n")
        fh.write(" ".join(repr(L) for L in g.extent) + "\n")
        for v in f.values.reshape(-1):
            fh.write(f"{v:.17e}\n")


def read_grid_file(path):
    with open(path) as fh:
        head = fh.readline().split()
        dim = int(head[0])
        shape = tuple(int(x) for x in head[1:1 + dim])
        extent = tuple(float(x) for x in fh.readline().split())
        vals = np.array([float(fh.readline()) for _ in range(int(np.prod(shape)))])
    grid = Grid(shape, extent)
    return ScalarField(grid, vals.reshape(shape))
