"""Lattice types (geometry, affine maps, images, deformation fields),
interpolation, resampling and cropping.

Conventions used throughout the toolkit:

* volumes are 3D arrays indexed (i, j, k), voxel (i, j, k) sits at world
  position ``affine @ (i, j, k, 1)`` in mm;
* all resampling is pull-back: the supplied transform maps *target* world
  coordinates into *source* world coordinates;
* out-of-bounds samples read as 0 (background for labelmaps);
* the image type fixes the interpolation: trilinear for a VolumeGrid,
  nearest neighbour for a LabelVolume.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.ndimage import map_coordinates

from .atomic import atomic_open
from .errors import (
    AllBackground,
    DataError,
    EmptyBox,
    GeometryMismatch,
    NonInvertibleTransform,
)

_DET_EPS = 1e-12
_AFFINE_ATOL = 1e-5  # two lattices are the same if their affines agree to this


def _is_int(v):
    """True for a Python or numpy integer, but not a bool: a count of voxels or levels."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def sq_norms(v):
    """Squared length of each 3-vector of a (..., 3) array, summed (x0² + x1²) + x2².

    That is the order in which numpy sums a length-3 axis, so the result is
    bit for bit ``(v**2).sum(axis=-1)``, 4-9x faster on (N, 3) arrays. As sqrt
    is monotone and correctly rounded, ``sqrt(sq_norms(v).max())`` is bit for
    bit ``np.linalg.norm(v, axis=-1).max()``.
    """
    return (v[..., 0] ** 2 + v[..., 1] ** 2) + v[..., 2] ** 2


class AffineTransform:
    """Affine 4x4 point map, world->world or a lattice's index->world; matrix is a read-only copy.

    The one rule for every affine the package builds or reads: the last row is
    exactly (0, 0, 0, 1), the 3x4 part is finite and |det| > _DET_EPS. The
    inverse of a valid transform keeps that last row exactly.
    """

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.shape != (4, 4):
            raise NonInvertibleTransform("transform matrix must be 4x4")
        if self.matrix[3].tolist() != [0.0, 0.0, 0.0, 1.0]:  # NaN fails the comparison
            raise NonInvertibleTransform("last row must be (0,0,0,1)")
        # before the determinant, which warns on a NaN or inf
        if not np.isfinite(self.matrix[:3]).all():
            raise NonInvertibleTransform("transform is not finite")
        if abs(np.linalg.det(self.matrix[:3, :3])) <= _DET_EPS:
            raise NonInvertibleTransform("singular transform")
        self.matrix.flags.writeable = False
        self._block_t = (np.ascontiguousarray(self.matrix[:3, :3].T), self.matrix[:3, :3].T)

    @classmethod
    def identity(cls):
        return cls(np.eye(4))

    def map_points(self, pts):
        """(N, 3) points through the map: bit for bit pts @ A[:3, :3].T + A[:3, 3].

        numpy multiplies two or more points by gemm, which gives the same bits
        for either layout of the block and runs about 3x faster on the
        contiguous one; a single point goes through gemv, whose summation
        order follows the layout, so it keeps the view. tests/test_grid.py
        checks both cases against the plain expression.
        """
        contiguous, view = self._block_t
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = pts @ (contiguous if len(pts) > 1 else view)
        out += self.matrix[:3, 3]
        return out

    def inverse(self):
        return AffineTransform(np.linalg.inv(self.matrix))


@dataclass(frozen=True, eq=False)
class Geometry:
    """Lattice description: voxel counts and the index->world affine (mm).

    Its point maps are the AffineTransform of the affine and that transform's
    inverse, and ``affine`` is its read-only matrix: neither map can go stale.
    ``==`` is identity, as an array field gives no truth value; close_to
    compares two lattices. A pickled lattice is rebuilt by its constructor,
    so it carries no grid and its arrays are read-only again.
    """

    dims: tuple
    affine: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise GeometryMismatch(f"bad dims {self.dims}")
        if np.shape(self.affine) != (4, 4):
            raise GeometryMismatch("affine must be 4x4")
        object.__setattr__(self, "_to_world", AffineTransform(self.affine))
        object.__setattr__(self, "affine", self._to_world.matrix)
        object.__setattr__(self, "_to_index", self._to_world.inverse())

    def __reduce__(self):
        return (Geometry, (self.dims, self.affine))

    @property
    def spacing(self) -> np.ndarray:
        """Voxel edge lengths in mm: the column norms of the affine's 3x3 block."""
        return np.linalg.norm(self.affine[:3, :3], axis=0)

    @property
    def voxel_volume(self) -> float:
        return float(np.prod(self.spacing))

    def index_to_world(self, idx: np.ndarray) -> np.ndarray:
        """Map (N, 3) voxel indices to (N, 3) world mm."""
        return self._to_world.map_points(idx)

    def world_to_index(self, pts: np.ndarray) -> np.ndarray:
        return self._to_index.map_points(pts)

    def grid_world(self) -> np.ndarray:
        """World coordinates of every voxel center, shape (nvox, 3), C order, read-only.

        Built on the first call and kept with the lattice. Two threads that ask a fresh
        lattice at once may each build it; the arrays are read-only and bit-identical.
        """
        if not hasattr(self, "_grid"):
            grid = self._voxel_centers()
            grid.flags.writeable = False
            object.__setattr__(self, "_grid", grid)
        return self._grid

    def _voxel_centers(self) -> np.ndarray:
        ii, jj, kk = np.meshgrid(
            np.arange(self.dims[0]),
            np.arange(self.dims[1]),
            np.arange(self.dims[2]),
            indexing="ij",
        )
        idx = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
        return self.index_to_world(idx)

    def contains_index(self, idx: np.ndarray) -> np.ndarray:
        """Mask of the (N, 3) voxel indices that lie in the lattice box [0, d - 1]."""
        # per-column tests: about 5x faster than np.all(..., axis=1) on (N, 3)
        inside = np.ones(len(idx), dtype=bool)
        for a, d in enumerate(self.dims):
            inside &= (idx[:, a] >= 0) & (idx[:, a] <= d - 1)
        return inside

    def world_corners(self) -> np.ndarray:
        """World positions of the lattice's 8 corner voxel centers, shape (8, 3)."""
        return self.index_to_world(CropBox((0, 0, 0), np.subtract(self.dims, 1)).corners())

    def close_to(self, other: "Geometry") -> bool:
        return self.dims == other.dims and np.allclose(self.affine, other.affine, atol=_AFFINE_ATOL)


@dataclass(frozen=True)
class LabelEntry:
    code: int
    abbrev: str
    name: str
    hemisphere: str  # "right", "left" or "" for midline/background


class LabelScheme:
    """Mapping from integer label codes to nucleus names."""

    def __init__(self, entries):
        self.entries = {}
        for e in entries:
            if not _is_int(e.code) or e.code < 1:
                raise GeometryMismatch(f"label code {e.code!r} is not a positive integer (0 is background)")
            if e.code in self.entries:
                raise GeometryMismatch(f"duplicate label code {e.code}")
            self.entries[e.code] = e

    def codes(self):
        return sorted(self.entries)

    def __getitem__(self, code) -> LabelEntry:
        return self.entries[code]

    def __eq__(self, other):
        return isinstance(other, LabelScheme) and self.entries == other.entries

    def bilateral_pairs(self):
        """(right_code, left_code) pairs matched by abbreviation."""
        right = {e.abbrev: c for c, e in self.entries.items() if e.hemisphere == "right"}
        left = {e.abbrev: c for c, e in self.entries.items() if e.hemisphere == "left"}
        return [(right[a], left[a]) for a in right if a in left]

    def to_json(self, path):
        rows = [
            {"code": c, "abbrev": e.abbrev, "name": e.name, "hemisphere": e.hemisphere}
            for c, e in sorted(self.entries.items())
        ]
        with atomic_open(path) as f:
            json.dump(rows, f, indent=2)

    @classmethod
    def _from_rows(cls, rows):
        """Scheme from the dicts to_json writes, one per code."""
        return cls([LabelEntry(r["code"], r["abbrev"], r["name"], r["hemisphere"]) for r in rows])


def default_scheme() -> LabelScheme:
    """The shipped 12-structure bilateral thalamic scheme (right 1..12, left +100)."""
    text = resources.files("atlasfuse.data").joinpath("default_scheme.json").read_text()
    return LabelScheme._from_rows(json.loads(text))


class _Image:
    """3-D data on a Geometry: the lattice code VolumeGrid and LabelVolume share."""

    _ORDER = 1  # spline order of sample(): trilinear

    def __init__(self, data, affine):
        if data.ndim != 3:
            raise GeometryMismatch(f"expected 3D data, got shape {data.shape}")
        self.data = data
        self.geometry = Geometry(data.shape, affine)

    def sample(self, world_pts):
        """Values at (N, 3) world points, in the data's dtype; out-of-bounds reads as 0."""
        idx = self.geometry.world_to_index(world_pts)
        return map_coordinates(self.data, idx.T, order=self._ORDER, mode="constant", cval=0)

    def with_data(self, data, geometry: Geometry | None = None):
        """The same type holding data, on this lattice or on geometry."""
        geometry = self.geometry if geometry is None else geometry
        if np.shape(data) != geometry.dims:
            raise GeometryMismatch(f"data shape {np.shape(data)} is not lattice {geometry.dims}")
        return type(self)(data, geometry.affine)


class VolumeGrid(_Image):
    """3D scalar image on a voxel lattice."""

    def __init__(self, data, affine):
        super().__init__(np.asarray(data, dtype=np.float64), affine)


class LabelVolume(_Image):
    """3D integer codes on a lattice; 0 is background. imgio.read_volume checks them against a scheme."""

    _ORDER = 0  # nearest neighbour: codes are never blended

    def __init__(self, data, affine):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.integer):
            raise GeometryMismatch("labelmap data must be integer")
        super().__init__(data.astype(np.int32), affine)
        if np.any(self.data < 0):
            raise GeometryMismatch("negative label codes")


class DeformationField:
    """Per-voxel mm displacement on a fixed-image lattice (pull-back)."""

    def __init__(self, geometry: Geometry, disp):
        self.geometry = geometry
        self.disp = np.asarray(disp, dtype=np.float64)
        if self.disp.shape != geometry.dims + (3,):
            raise NonInvertibleTransform(
                f"field shape {self.disp.shape} does not match geometry {geometry.dims}"
            )
        if not np.all(np.isfinite(self.disp)):
            raise NonInvertibleTransform("non-finite displacement components")

    @classmethod
    def zero(cls, geometry: Geometry):
        return cls(geometry, np.zeros(geometry.dims + (3,)))

    def sample_disp(self, world_pts):
        """Trilinear displacement at world points; outside the lattice reads 0."""
        return self._sample_index(self.geometry.world_to_index(world_pts))

    def _sample_index(self, idx):
        """Trilinear displacement at (N, 3) voxel indices; outside the lattice reads 0."""
        out = np.empty((idx.shape[0], 3))
        for a in range(3):
            out[:, a] = map_coordinates(
                self.disp[..., a], idx.T, order=1, mode="constant", cval=0.0
            )
        return out

    def jacobian_determinants(self) -> np.ndarray:
        """det(I + du/dx_world) per voxel via central differences."""
        ainv = np.linalg.inv(self.geometry.affine[:3, :3])
        jac = np.empty(self.geometry.dims + (3, 3))
        for a in range(3):
            gi = np.gradient(self.disp[..., a], axis=(0, 1, 2))
            dvox = np.stack(gi, axis=-1)  # du_a / d(index)
            jac[..., a, :] = dvox @ ainv
        jac += np.eye(3)
        return np.linalg.det(jac)

    def positive_jacobian_fraction(self) -> float:
        det = self.jacobian_determinants()
        return float(np.mean(det > 0.0))


@dataclass
class CropBox:
    """Inclusive voxel-index box."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = tuple(self.lo), tuple(self.hi)
        if any(len(c) != 3 or not all(map(_is_int, c)) for c in (lo, hi)):
            raise DataError(f"box corners must be three integers each, not {lo}..{hi}")
        self.lo, self.hi = tuple(map(int, lo)), tuple(map(int, hi))
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise EmptyBox(f"empty box {self.lo}..{self.hi}")

    def clipped(self, dims) -> "CropBox":
        if any(b < 0 or a > d - 1 for a, b, d in zip(self.lo, self.hi, dims)):
            raise EmptyBox(f"box {self.lo}..{self.hi} lies outside the lattice {tuple(dims)}")
        lo = tuple(min(max(v, 0), d - 1) for v, d in zip(self.lo, dims))
        hi = tuple(min(max(v, 0), d - 1) for v, d in zip(self.hi, dims))
        return CropBox(lo, hi)

    @property
    def extent(self):
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def corners(self) -> np.ndarray:
        """The 8 corner voxel indices, shape (8, 3), as floats."""
        return np.array(list(itertools.product(*zip(self.lo, self.hi))), dtype=float)

    def to_dict(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["lo"]), tuple(d["hi"]))


def require_common_grid(*volumes):
    """Raise GeometryMismatch unless every volume lies on the first one's lattice."""
    g0 = volumes[0].geometry
    if not all(v.geometry.close_to(g0) for v in volumes[1:]):
        raise GeometryMismatch("inputs are not on a common grid; resample first")


def resample(source, target_geometry: Geometry, transform=None):
    """Resample onto target_geometry; transform maps target world -> source world.

    transform may be None (identity), an AffineTransform, or a DeformationField
    on target_geometry's own lattice, which moves each voxel centre by its
    stored displacement; a field on another lattice is a GeometryMismatch. The
    source's type fixes the interpolation: trilinear for a VolumeGrid, nearest
    neighbour for a LabelVolume.
    """
    pts = target_geometry.grid_world()
    if isinstance(transform, DeformationField):
        if not transform.geometry.close_to(target_geometry):
            raise GeometryMismatch("a deformation field resamples only onto its own lattice")
        pts = pts + transform.disp.reshape(-1, 3)
    elif transform is not None:
        pts = transform.map_points(pts)
    return source.with_data(source.sample(pts).reshape(target_geometry.dims), target_geometry)


def crop(volume, box: CropBox):
    """Extract a sub-volume; world coordinates of retained voxels are unchanged."""
    box = box.clipped(volume.geometry.dims)
    lo, hi = box.lo, box.hi
    sub = volume.data[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1]
    affine = volume.geometry.affine.copy()
    affine[:3, 3] = volume.geometry.index_to_world([lo])[0]
    return volume.with_data(sub.copy(), Geometry(box.extent, affine))


def uncrop(sub, box: CropBox, full_geometry: Geometry):
    """Paste a cropped volume back into the full frame at its box position, zero elsewhere."""
    box = box.clipped(full_geometry.dims)
    if sub.geometry.dims != box.extent:
        raise GeometryMismatch("sub-volume extent does not match box")
    out = np.zeros(full_geometry.dims, dtype=sub.data.dtype)
    lo, hi = box.lo, box.hi
    out[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] = sub.data
    return sub.with_data(out, full_geometry)


def label_bounding_box(labels: LabelVolume, margin: int = 0) -> CropBox:
    """Tightest box around nonzero voxels, dilated by margin, clipped to dims."""
    nz = np.nonzero(labels.data)
    if nz[0].size == 0:
        raise AllBackground("labelmap has no nonzero voxels")
    lo = [int(a.min()) - margin for a in nz]
    hi = [int(a.max()) + margin for a in nz]
    return CropBox(lo, hi).clipped(labels.geometry.dims)
