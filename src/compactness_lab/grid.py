"""Uniform Cartesian grids (1D/2D), scalar and MAC-staggered fields, discrete calculus.

Scalars are cell-centered, vectors live on faces (MAC layout), so the discrete
divergence of a face field is exact on cells and gradient/divergence are
skew-adjoint up to boundary terms.  All norms and inner products use midpoint
quadrature with weight h^d per cell (and per face), so they are mutually
consistent.

Every face stencil goes through one slice helper (cells below / above each
interior face, and the interior faces) and `face_masks`.  A raster's
derived data is derived on first read, per side, and cached read-only on the
frozen object that owns the cells: `RasterDomain.face_masks` (and
`Grid.face_masks` for the whole box), which every stencil, weight and trace
reads, and the inside and outside sides of the exact distance transform
(`RasterDomain.edt_inside`, `edt_outside`), one EDT each, run by
`signed_distance_transform`.  A membership raster assembles its signed
distance from the two sides only where all of it is read.

One mask rule serves cell and face fields: a field with a mask holds exact
zero off its raster (a cell field on the cells outside it, a face field on
the faces next to no inside cell) from the moment it is built, so
`restricted` only re-masks, and a sum or difference of fields on two rasters
carries no mask and loses no value.  Norms take the raster they measure over
(`lp_norm`, `staggered_l2`), so a field is measured on another raster
without a restricted copy.

The one operator assembler, `face_laplacian`, builds -Delta on a raster's
inside cells with a boundary-face closure: the Dirichlet and Neumann
Laplacians are two calls to it, and the parabolic scheme's Newton matrix is
built from the same operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy


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

    @functools.cached_property
    def spacing(self):
        return tuple(L / n for L, n in zip(self.extent, self.shape))

    @functools.cached_property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def n_cells(self):
        return int(np.prod(self.shape))

    @functools.cached_property
    def face_masks(self):
        """`face_masks` of the whole box, built once per grid."""
        return face_masks(np.ones(self.shape, dtype=bool))

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
        """Cell-corner coordinates of a 2D grid, shape (nx+1, ny+1, 2)."""
        axes = [np.arange(n + 1) * h for n, h in zip(self.shape, self.spacing)]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([X, Y], axis=-1)


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RasterDomain:
    """Rasterized open set: boolean membership per cell, with a signed
    distance (positive inside) derived on first read.

    `sdf` optionally keeps the analytic signed-distance callable the raster was
    built from; its samples at the cell centres are the raster's signed
    distance, and geometric ops use it for sub-cell accuracy.  Whatever built
    the raster, `edt_inside` and `edt_outside` are the two sides of the exact
    distance transform of `inside`, each computed on its first read.
    """

    grid: Grid
    inside: np.ndarray
    sdf: object = field(default=None, repr=False)

    def __post_init__(self):
        inside = np.asarray(self.inside, dtype=bool).reshape(self.grid.shape)
        inside.setflags(write=False)
        object.__setattr__(self, "inside", inside)

    @classmethod
    def from_sdf(cls, grid, sdf):
        return cls(grid, _sample(grid, sdf) > 0, sdf=sdf)

    @classmethod
    def full(cls, grid):
        """The whole box (signed distance to the box boundary)."""
        return cls.from_sdf(grid, lambda pts: _box_distance(grid, pts))

    @functools.cached_property
    def edt_inside(self):
        """`signed_distance_transform(..., side="inside")` of the cells, once."""
        return _readonly(signed_distance_transform(self.grid, self.inside, side="inside"))

    @functools.cached_property
    def edt_outside(self):
        """`signed_distance_transform(..., side="outside")` of the cells, once."""
        return _readonly(signed_distance_transform(self.grid, self.inside, side="outside"))

    @functools.cached_property
    def _sdf_samples(self):
        return _readonly(_sample(self.grid, self.sdf))

    @property
    def signed_distance(self):
        """Signed distance per cell: the `sdf` samples, or else the exact EDT
        assembled from its two cached sides (the assembly itself is not kept)."""
        if self.sdf is not None:
            return self._sdf_samples
        return _readonly(np.where(self.inside, self.edt_inside, self.edt_outside))

    @functools.cached_property
    def face_masks(self):
        """`face_masks` of the raster, built once: `inside` is read-only."""
        return face_masks(self.inside)

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


def _box_distance(grid, pts):
    """Distance from points (n, dim) to the box boundary, positive inside the box."""
    return np.minimum.reduce([np.minimum(pts[:, a], grid.extent[a] - pts[:, a])
                              for a in range(grid.dim)])


def _sample(grid, sdf):
    """An analytic signed distance at the cell centres."""
    pts = grid.cell_centers().reshape(-1, grid.dim)
    return np.asarray(sdf(pts)).reshape(grid.shape)


def signed_distance_transform(grid, inside, side):
    """One side of the exact Euclidean signed distance, positive inside.

    EDT distances are center-to-center; half a cell is subtracted on both sides
    as the center-to-boundary estimate (inside cells stay >= h/2 > 0, outside
    <= -h/2 < 0, so the sign still encodes membership).  `side="inside"` runs
    only the EDT of the inside cells: the result is the signed distance on
    them and -h/2 on the others.  `side="outside"` runs only the EDT of the
    complement: the signed distance on the outside cells and +h/2 on the
    others.  Either side thresholds like the whole transform at any level on
    its own side of 0.

    The EDT of an all-False array is all 0.0, so an empty raster's inside
    side and a full raster's outside side need no case of their own: the
    general line gives exactly -h/2 and +h/2.  A full raster's inside side
    (the EDT of an all-True array measures to a phantom background) and an
    empty raster's outside side (no inside cell to measure to) do.
    """
    inside = np.asarray(inside, dtype=bool)
    h = grid.spacing
    half = 0.5 * min(h)
    if side == "inside":
        if inside.all():
            # no complement cells: distance to the raster's edge is unbounded; use box distance
            return _box_distance(grid, grid.cell_centers().reshape(-1, grid.dim)).reshape(grid.shape)
        return scipy.ndimage.distance_transform_edt(inside, sampling=h) - half
    if side == "outside":
        if not inside.any():
            return np.full(grid.shape, -float(max(grid.extent)))
        return -(scipy.ndimage.distance_transform_edt(~inside, sampling=h) - half)
    raise ValueError(f"side must be 'inside' or 'outside', got {side!r}")


def _check_mask(field):
    mask = field.mask
    if mask is not None and mask.grid is not field.grid and mask.grid != field.grid:
        raise ValueError("mask grid differs from field grid")


def _face_shape(cells, axis):
    """Shape of the `axis`-normal face array over a cell array of shape `cells`."""
    return tuple(n + (a == axis) for a, n in enumerate(cells))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Grid-sampled scalar function; cells outside the mask hold exact zero."""

    grid: Grid
    values: np.ndarray
    mask: RasterDomain = None

    def __post_init__(self):
        _check_mask(self)
        v = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if self.mask is not None:
            v = np.where(self.mask.inside, v, 0.0)
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_function(cls, grid, fn):
        pts = grid.cell_centers().reshape(-1, grid.dim)
        vals = np.asarray(fn(pts), dtype=float).reshape(grid.shape)
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid, c, mask=None):
        return cls(grid, np.full(grid.shape, float(c)), mask=mask)

    def with_values(self, values):
        return ScalarField(self.grid, values, mask=self.mask)

    def map(self, fn):
        return self.with_values(fn(self.values))

    def restricted(self, domain):
        """The same values on `domain`: the cells outside it zeroed.  On its
        own mask a field is already that, and is returned as it is."""
        if domain is self.mask:
            return self
        return ScalarField(self.grid, self.values, mask=domain)

    def __add__(self, other):
        return ScalarField(self.grid, self.values + _vals(other), mask=_sum_mask(self, other))

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _vals(other), mask=_sum_mask(self, other))

    def __mul__(self, other):
        return self.with_values(self.values * _vals(other))

    __rmul__ = __mul__


def _vals(x):
    return x.values if isinstance(x, ScalarField) else x


def _sum_mask(a, b):
    """The mask of a + b and a - b: a's, unless b is masked on another raster.
    Then none, since each operand already holds exact zero off its own raster."""
    b_mask = getattr(b, "mask", None)
    return a.mask if b_mask is None or b_mask is a.mask else None


@dataclass(frozen=True, eq=False)
class StaggeredVectorField:
    """MAC face field: `components[a]` holds the a-normal components, shape grows
    by one along axis a.  1D has a single component.  Faces next to no inside
    cell of the mask hold exact zero."""

    grid: Grid
    components: tuple
    mask: RasterDomain = None

    def __post_init__(self):
        _check_mask(self)
        comps = []
        for a in range(self.grid.dim):
            c = np.asarray(self.components[a], dtype=float).reshape(_face_shape(self.grid.shape, a))
            if self.mask is not None:
                interior, boundary, _ = self.mask.face_masks[a]
                c = np.where(interior | boundary, c, 0.0)
            comps.append(_readonly(c))
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def constant(cls, grid, vec, mask=None):
        return cls(grid, tuple(np.full(_face_shape(grid.shape, a), float(v))
                               for a, v in enumerate(np.atleast_1d(vec))), mask=mask)

    def with_components(self, comps):
        return StaggeredVectorField(self.grid, tuple(comps), mask=self.mask)

    def restricted(self, domain):
        """The same components on `domain`: the faces next to no inside cell
        zeroed.  On its own mask a field is already that, and is returned as
        it is."""
        if domain is self.mask:
            return self
        return StaggeredVectorField(self.grid, self.components, mask=domain)

    def __sub__(self, other):
        comps = [a - b for a, b in zip(self.components, other.components)]
        return StaggeredVectorField(self.grid, comps, mask=_sum_mask(self, other))

    def __mul__(self, s):
        return self.with_components([c * s for c in self.components])

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# norms and inner products


def lp_norm(f, p, domain=None):
    """Midpoint-rule L^p norm over the inside cells of `domain` (default: the
    field's mask, or the whole box without one); p = inf gives the max."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    domain = f.mask if domain is None else domain
    v = f.values
    if domain is not None:
        v = v[domain.inside]
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
    one is (grid edges count as outside).  The sign is int8 (+1, -1 or 0, so
    products with it are exact) and every array is read-only; read them through
    `RasterDomain.face_masks` or `Grid.face_masks`, which build them once."""
    out = []
    for a in range(inside.ndim):
        below, above, _ = _axis_slices(inside.ndim, a)
        shape = _face_shape(inside.shape, a)
        low, high = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        low[above] = inside  # the cell below each face
        high[below] = inside  # the cell above it
        masks = (low & high, low ^ high, low.astype(np.int8) - high)
        for m in masks:
            m.setflags(write=False)
        out.append(masks)
    return tuple(out)


def _face_weights(grid, mask):
    """Per-axis quadrature weights: h^d per interior face, h^d/2 on the
    domain's boundary faces (their volume share), 0 outside.  mask=None means
    the whole box."""
    vol = grid.cell_volume
    return [np.where(interior, vol, boundary * (vol / 2))
            for interior, boundary, _ in (grid if mask is None else mask).face_masks]


def staggered_l2(u, domain=None):
    """L^2 norm of a face field over `domain` (default: its mask, or the whole
    box without one), boundary faces half-weighted so constants have their
    exact continuum norm.  Faces of no inside cell weigh 0, so the norm equals
    that of `u.restricted(domain)` bitwise."""
    return _weighted_l2(u.components, _face_weights(u.grid, u.mask if domain is None else domain))


def _weighted_l2(components, weights):
    """sqrt(sum_a sum(w_a c_a^2)) of face components under per-axis weights
    (`_face_weights`): `staggered_l2` of bare component arrays, for a caller
    that weighs many of them over one raster."""
    return float(np.sqrt(sum(np.sum(wa * c ** 2) for wa, c in zip(weights, components))))


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
        _, _, inner = _axis_slices(g.dim, a)
        out = np.zeros(_face_shape(g.shape, a))
        diff = np.diff(f.values, axis=a) / g.spacing[a]
        if f.mask is not None:
            interior, _, _ = f.mask.face_masks[a]
            diff = np.where(interior[inner], diff, 0.0)
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
# the face-stencil operator, the one sparse LU factorisation, and the exact
# discrete H^{-m} norm from sparse solves of I+L (L the Dirichlet Laplacian);
# a dense eigenbasis as reference


def face_laplacian(domain, edge):
    """-Delta on the inside cells of a raster, as a CSR matrix whose rows are
    the inside cells in row-major order.

    A face of axis a between two inside cells couples them with weight
    1/h_a^2; a face with exactly one inside neighbour adds edge/h_a^2 to that
    cell's diagonal (grid edges count as outside): edge = 1 closes the
    raster with a Dirichlet condition, 0 with a Neumann one.  Every row
    stores its diagonal entry.
    """
    grid, inside = domain.grid, domain.inside
    n = domain.n_inside
    if n == 0:
        raise ValueError("empty domain")
    index = -np.ones(grid.shape, dtype=int)
    index[inside] = np.arange(n)
    rows, cols, vals = [], [], []
    diag = np.zeros(grid.shape)
    for a, (interior, boundary, _) in enumerate(domain.face_masks):
        below, above, inner = _axis_slices(grid.dim, a)
        c = 1.0 / grid.spacing[a] ** 2
        w = np.where(interior, c, boundary * (edge * c))
        diag += w[above]
        diag += w[below]
        link = interior[inner]
        i, j = index[below][link], index[above][link]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([np.full(i.size, -c)] * 2)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag[inside])
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def dirichlet_laplacian(domain):
    """5-point (3-point in 1D) Dirichlet Laplacian on a raster's inside cells, CSR."""
    return face_laplacian(domain, 1.0)


def neumann_laplacian(domain):
    """5-point Neumann (no-flux) Laplacian on a raster's inside cells, CSR; the
    diagonal counts interior faces only, so constants are in the kernel exactly."""
    return face_laplacian(domain, 0.0)


class DirichletEigenbasis:
    """All Dirichlet-Laplacian eigenpairs on a raster domain, by a dense
    `eigh`: the reference the sparse H^{-m} norm is checked against.
    Eigenvectors are orthonormal in the discrete L^2 inner product."""

    def __init__(self, domain):
        self.domain = domain
        L = dirichlet_laplacian(domain)
        lam, vec = scipy.linalg.eigh(L.toarray())
        self.eigenvalues = lam
        # orthonormal wrt <f,g> = vol * sum f g
        self.eigenvectors = vec / np.sqrt(domain.grid.cell_volume)

    def coefficients(self, f):
        v = f.values[self.domain.inside]
        return self.eigenvectors.T @ v * self.domain.grid.cell_volume


class RasterFactor:
    """A sparse operator on the inside cells of one raster and its sparse LU
    factor.  The factor remembers its raster: `check(domain)` raises
    ValueError for any other raster."""

    def __init__(self, domain, matrix):
        self.grid = domain.grid
        self.inside = domain.inside
        self.matrix = matrix.tocsc()
        # minimum degree on A + A^T: the default COLAMD ordering solved the
        # 64x64 Neumann matrix 1.3-1.5x slower
        self._lu = scipy.sparse.linalg.splu(self.matrix, permc_spec="MMD_AT_PLUS_A")

    def check(self, domain):
        if domain.inside is not self.inside and (
                domain.grid != self.grid or not np.array_equal(domain.inside, self.inside)):
            raise ValueError("factor was built on another raster")

    def solve(self, b):
        return self._lu.solve(b)


def dirichlet_factor(domain):
    """The factor of I+L, L the Dirichlet Laplacian of a raster, for
    `h_minus_m_norm`.  Build it once per raster and pass it to every norm on
    that raster."""
    L = dirichlet_laplacian(domain)
    return RasterFactor(domain, scipy.sparse.identity(L.shape[0], format="csr") + L)


def _check_order(m):
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m!r}")


def h_minus_m_norm(f, m, factor):
    """Discrete H^{-m} norm for an integer m >= 0, exact (no truncation), on
    the raster of `factor`, its `dirichlet_factor`:
    ||f||_{-m}^2 = vol f^T (I+L)^{-m} f = sum_k (1+lambda_k)^{-m} |<f,e_k>|^2
    over all Dirichlet eigenpairs of the raster.  With w = (I+L)^{-ceil(m/2)} f
    that is vol |w|^2 for even m and vol w^T (I+L) w for odd m.
    """
    _check_order(m)
    w = f.values[factor.inside]
    for _ in range((m + 1) // 2):
        w = factor.solve(w)
    s = w @ (factor.matrix @ w) if m % 2 else w @ w
    return float(np.sqrt(s * factor.grid.cell_volume))


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
    """The cell field of a .grid file; a truncated or overlong file raises."""
    with open(path) as fh:
        head = fh.readline().split()
        dim = int(head[0])
        shape = tuple(int(x) for x in head[1:1 + dim])
        extent = tuple(float(x) for x in fh.readline().split())
        tokens = fh.read().split()
    grid = Grid(shape, extent)
    if len(tokens) != grid.n_cells:
        raise ValueError(f"{path}: expected {grid.n_cells} values after the header, "
                         f"found {len(tokens)}")
    return ScalarField(grid, np.array([float(t) for t in tokens]).reshape(grid.shape))
