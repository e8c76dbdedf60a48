"""Voxel-grid types, interpolation, resampling and cropping.

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
import weakref
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.ndimage import map_coordinates

from .atomic import atomic_open
from .errors import (
    AllBackground,
    EmptyBox,
    GeometryMismatch,
    NonInvertibleTransform,
)

_DET_EPS = 1e-12
_AFFINE_ATOL = 1e-5  # two lattices are the same if their affines agree to this


def _is_int(v):
    """True for a Python or numpy integer, but not a bool: a count of voxels or levels."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _linear_parts(matrix):
    """What _map needs of a 4x4 affine: its 3x3 block transposed, as a
    C-contiguous copy and as a view, and its shift."""
    block_t = matrix[:3, :3].T
    return np.ascontiguousarray(block_t), block_t, matrix[:3, 3]


def _map(pts, parts):
    """(N, 3) points through an affine split by _linear_parts: bit for bit pts @ A[:3, :3].T + A[:3, 3].

    numpy multiplies two or more points by gemm, which gives the same bits
    for either layout of the block and runs about 3x faster on the
    contiguous one; a single point goes through gemv, whose summation
    order follows the layout, so it keeps the view. tests/test_grid.py
    checks both cases against the plain expression.
    """
    contiguous, view, shift = parts
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = pts @ (contiguous if len(pts) > 1 else view)
    out += shift
    return out


@dataclass(frozen=True)
class Geometry:
    """Lattice description: voxel counts and the index->world affine (mm).

    The affine is a read-only copy of the one passed in, so the point maps a
    lattice prepares when it is made, and the grid it shares, cannot go stale.
    """

    dims: tuple
    affine: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        affine = np.array(self.affine, dtype=float)
        affine.flags.writeable = False
        object.__setattr__(self, "affine", affine)
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise GeometryMismatch(f"bad dims {self.dims}")
        if self.affine.shape != (4, 4):
            raise GeometryMismatch("affine must be 4x4")
        if abs(np.linalg.det(self.affine[:3, :3])) <= _DET_EPS:
            raise NonInvertibleTransform("affine 3x3 block is singular")
        object.__setattr__(self, "_to_world", _linear_parts(affine))
        object.__setattr__(self, "_to_index", _linear_parts(np.linalg.inv(affine)))

    @property
    def spacing(self) -> np.ndarray:
        """Voxel edge lengths in mm: the column norms of the affine's 3x3 block."""
        return np.linalg.norm(self.affine[:3, :3], axis=0)

    @property
    def voxel_volume(self) -> float:
        return float(np.prod(self.spacing))

    def index_to_world(self, idx: np.ndarray) -> np.ndarray:
        """Map (N, 3) voxel indices to (N, 3) world mm."""
        return _map(idx, self._to_world)

    def world_to_index(self, pts: np.ndarray) -> np.ndarray:
        return _map(pts, self._to_index)

    def grid_world(self) -> np.ndarray:
        """World coordinates of every voxel center, shape (nvox, 3), C order, read-only.

        The lattice holds the grid weakly: calls return the same array for as
        long as a caller keeps one, so a loop that holds it builds it once,
        while a lattice that outlives its users keeps no 24 bytes a voxel.
        """
        ref = getattr(self, "_grid", None)
        grid = None if ref is None else ref()
        if grid is None:
            grid = self._voxel_centers()
            grid.flags.writeable = False
            object.__setattr__(self, "_grid", weakref.ref(grid))
        return grid

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

    def world_bounds(self):
        """Axis-aligned world bounding box of the voxel-center lattice."""
        w = self.world_corners()
        return w.min(axis=0), w.max(axis=0)

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
            if e.code in self.entries:
                raise GeometryMismatch(f"duplicate label code {e.code}")
            if e.code == 0:
                raise GeometryMismatch("code 0 is reserved for background")
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
        return cls([LabelEntry(int(r["code"]), r["abbrev"], r["name"], r["hemisphere"]) for r in rows])


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

    @property
    def dims(self):
        return self.geometry.dims

    @property
    def spacing(self):
        return self.geometry.spacing

    @property
    def affine(self):
        return self.geometry.affine

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


@dataclass
class CropBox:
    """Inclusive voxel-index box."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        self.lo = tuple(int(v) for v in self.lo)
        self.hi = tuple(int(v) for v in self.hi)
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise EmptyBox(f"empty box {self.lo}..{self.hi}")

    def clipped(self, dims) -> "CropBox":
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
    (both from atlasfuse.register). The source's type fixes the interpolation:
    trilinear for a VolumeGrid, nearest neighbour for a LabelVolume.
    """
    pts = target_geometry.grid_world()
    if transform is not None:
        pts = transform.map_points(pts)
    return source.with_data(source.sample(pts).reshape(target_geometry.dims), target_geometry)


def crop(volume, box: CropBox):
    """Extract a sub-volume; world coordinates of retained voxels are unchanged."""
    box = box.clipped(volume.dims)
    lo, hi = box.lo, box.hi
    sub = volume.data[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1]
    affine = volume.affine.copy()
    affine[:3, 3] = volume.geometry.index_to_world([lo])[0]
    return volume.with_data(sub.copy(), Geometry(box.extent, affine))


def uncrop(sub, box: CropBox, full_geometry: Geometry):
    """Paste a cropped volume back into the full frame at its box position, zero elsewhere."""
    box = box.clipped(full_geometry.dims)
    if tuple(sub.dims) != box.extent:
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
    return CropBox(lo, hi).clipped(labels.dims)
