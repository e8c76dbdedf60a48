"""Geometry, resampling, cropping and label-scheme behavior."""

import weakref

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from atlasfuse.errors import (
    AllBackground,
    EmptyBox,
    GeometryMismatch,
    NonInvertibleTransform,
)
from atlasfuse.grid import (
    CropBox,
    Geometry,
    LabelEntry,
    LabelScheme,
    LabelVolume,
    VolumeGrid,
    crop,
    default_scheme,
    label_bounding_box,
    resample,
    uncrop,
)
from atlasfuse.register import AffineTransform


def _translation(t):
    m = np.eye(4)
    m[:3, 3] = t
    return AffineTransform(m)


def test_geometry_validation():
    with pytest.raises(GeometryMismatch):
        Geometry((0, 4, 4), np.eye(4))
    with pytest.raises(NonInvertibleTransform):
        Geometry((4, 4, 4), np.zeros((4, 4)))


def test_index_world_inverse_roundtrip():
    rng = np.random.default_rng(0)
    aff = np.eye(4)
    aff[:3, :3] = np.diag([0.7, 1.1, 1.3])
    aff[:3, 3] = (5.0, -3.0, 2.0)
    g = Geometry((10, 10, 10), aff)
    idx = rng.uniform(0, 9, size=(50, 3))
    assert np.allclose(g.world_to_index(g.index_to_world(idx)), idx, atol=1e-9)


def _random_affine(rng, kind):
    """A random oblique, anisotropic or mirrored (negative-determinant) affine with a shift."""
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot *= np.sign(np.linalg.det(rot))
    lin = {
        "oblique": rot,
        "anisotropic": rot @ np.diag(rng.uniform(0.3, 3.0, 3)),
        "mirrored": rot @ np.diag([-1.0, 1.0, 1.0]) * rng.uniform(0.5, 2.0),
    }[kind]
    aff = np.eye(4)
    aff[:3, :3] = lin
    aff[:3, 3] = rng.uniform(-100.0, 100.0, 3)
    return aff


@pytest.mark.parametrize("kind", ["oblique", "anisotropic", "mirrored"])
@pytest.mark.parametrize("n", [1, 7, 50_000])
def test_point_maps_give_the_bits_of_the_plain_matmul(kind, n):
    """index_to_world, world_to_index and map_points equal x @ A[:3, :3].T + A[:3, 3] exactly,
    for contiguous and row-strided points."""
    rng = np.random.default_rng(n)
    for _ in range(10):
        aff = _random_affine(rng, kind)
        inv = np.linalg.inv(aff)
        geom, transform = Geometry((4, 5, 6), aff), AffineTransform(aff)
        x = rng.uniform(-60.0, 60.0, (2 * n, 3))
        for pts in (x[:n], x[::2]):
            assert np.array_equal(geom.index_to_world(pts), pts @ aff[:3, :3].T + aff[:3, 3])
            assert np.array_equal(geom.world_to_index(pts), pts @ inv[:3, :3].T + inv[:3, 3])
            assert np.array_equal(transform.map_points(pts), pts @ aff[:3, :3].T + aff[:3, 3])


def test_lattice_and_transform_keep_their_own_matrix():
    """Writing to the array a Geometry or AffineTransform was made from changes neither."""
    aff = _random_affine(np.random.default_rng(5), "anisotropic")
    geom, transform = Geometry((3, 4, 5), aff), AffineTransform(aff)
    pts = np.random.default_rng(6).uniform(-10.0, 10.0, (7, 3))

    def maps():
        return [geom.index_to_world(pts), geom.world_to_index(pts), geom.grid_world().copy(), transform.map_points(pts)]

    before = maps()
    aff[:3, :3] *= 3.0
    aff[:3, 3] = -9.0
    assert all(np.array_equal(a, b) for a, b in zip(maps(), before))


def test_lattice_arrays_are_read_only():
    geom, transform = Geometry((3, 4, 5), np.eye(4)), AffineTransform(np.eye(4))
    for arr in (geom.affine, transform.matrix, geom.grid_world()):
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
        with pytest.raises(ValueError):
            np.add(arr, 1.0, out=arr)


def test_grid_world_is_shared_while_held_and_not_kept():
    """Calls share one grid while a caller holds it; the lattice itself does not keep it."""
    aff = _random_affine(np.random.default_rng(8), "mirrored")
    geom = Geometry((6, 7, 8), aff)
    grid = geom.grid_world()
    assert geom.grid_world() is grid
    idx = np.stack(np.meshgrid(*(np.arange(d) for d in geom.dims), indexing="ij"), axis=-1).reshape(-1, 3)
    assert np.array_equal(grid, idx @ aff[:3, :3].T + aff[:3, 3])
    center = grid.mean(axis=0)  # what the linear registration takes as its rotation center
    ref = weakref.ref(grid)
    del grid
    assert ref() is None
    assert np.array_equal(geom.grid_world().mean(axis=0), center)


def test_voxel_volume():
    g = Geometry((4, 4, 4), np.diag([0.5, 2.0, 1.5, 1.0]))
    assert g.voxel_volume == pytest.approx(1.5)


def test_trilinear_ramp_midpoint():
    """A linear ramp v(x)=x sampled halfway between voxels reads 1.5."""
    data = np.zeros((4, 4, 4))
    data[:] = np.arange(4)[:, None, None]
    vol = VolumeGrid(data, np.eye(4))
    assert vol.sample([(1.5, 1.0, 1.0)])[0] == pytest.approx(1.5, abs=1e-12)


def test_sampling_at_voxel_centers_reproduces_values():
    rng = np.random.default_rng(1)
    vol = VolumeGrid(rng.standard_normal((6, 6, 6)), np.eye(4))
    pts = vol.geometry.grid_world()
    vals = vol.sample(pts).reshape(vol.dims)
    assert np.allclose(vals, vol.data, atol=1e-6)


def test_out_of_bounds_reads_zero():
    vol = VolumeGrid(np.ones((4, 4, 4)), np.eye(4))
    assert vol.sample([(-10.0, 0.0, 0.0)])[0] == 0.0


def test_resample_identity_equals_input():
    rng = np.random.default_rng(2)
    vol = VolumeGrid(rng.standard_normal((8, 8, 8)), np.eye(4))
    out = resample(vol, vol.geometry, None)
    assert np.allclose(out.data, vol.data, atol=1e-9)


def test_resample_labels_cannot_invent_codes():
    rng = np.random.default_rng(3)
    lab = LabelVolume(rng.integers(0, 5, size=(12, 12, 12), dtype=np.int32), np.eye(4))
    out = resample(lab, lab.geometry, _translation((0.3, -0.7, 1.2)))
    assert set(np.unique(out.data)) <= set(np.unique(lab.data)) | {0}


def test_resample_interpolation_follows_the_image_type():
    """Labels are sampled nearest-neighbour as int32 codes, bit for bit what
    order-0 map_coordinates gives on their float copy, half-voxel ties included;
    the same codes as intensities are blended trilinearly."""
    codes = np.arange(4 * 4 * 4, dtype=np.int32).reshape(4, 4, 4) % 7
    lab = LabelVolume(codes, np.eye(4))
    target = Geometry((7, 7, 7), np.diag([0.5, 0.5, 0.5, 1.0]))  # every other point is a tie
    out = resample(lab, target)
    idx = lab.geometry.world_to_index(target.grid_world())
    want = map_coordinates(codes.astype(float), idx.T, order=0, mode="constant").reshape(target.dims)
    assert type(out) is LabelVolume
    assert out.data.dtype == np.int32
    assert np.array_equal(out.data, want)
    blended = resample(VolumeGrid(codes, np.eye(4)), target)
    trilinear = map_coordinates(codes.astype(float), idx.T, order=1, mode="constant")
    assert np.array_equal(blended.data, trilinear.reshape(target.dims))
    assert not np.array_equal(blended.data, want)


def test_label_affine_roundtrip_recovers_blocky_phantom():
    """Nearest warp then inverse warp recovers >= 99% of voxels on 4+ voxel blocks."""
    data = np.zeros((32, 32, 32), dtype=np.int32)
    data[6:14, 6:14, 6:14] = 1
    data[18:26, 16:24, 8:16] = 2
    lab = LabelVolume(data, np.eye(4))
    m = np.eye(4)
    m[:3, :3] = np.diag([1.05, 0.97, 1.02])
    m[:3, 3] = (0.4, -0.3, 0.6)
    fwd = AffineTransform(m)
    warped = resample(lab, lab.geometry, fwd)
    back = resample(warped, lab.geometry, fwd.inverse())
    assert np.mean(back.data == lab.data) >= 0.99


def test_crop_preserves_world_coordinates():
    rng = np.random.default_rng(4)
    aff = np.diag([0.8, 1.2, 1.0, 1.0])
    aff[:3, 3] = (3.0, -1.0, 2.5)
    vol = VolumeGrid(rng.standard_normal((16, 16, 16)), aff)
    box = CropBox((2, 3, 4), (10, 12, 9))
    sub = crop(vol, box)
    assert sub.dims == box.extent
    # retained voxels keep their world positions (affine comparison, 1e-9 mm)
    expect = vol.geometry.index_to_world([box.lo])[0]
    assert np.allclose(sub.affine[:3, 3], expect, atol=1e-9)
    assert np.allclose(sub.affine[:3, :3], vol.affine[:3, :3], atol=1e-9)
    # sampling any retained world point matches the original
    pts = vol.geometry.index_to_world(
        rng.uniform(low=box.lo, high=box.hi, size=(40, 3))
    )
    assert np.allclose(sub.sample(pts), vol.sample(pts), atol=1e-9)


def test_crop_single_voxel_world_position():
    vol = VolumeGrid(np.zeros((8, 8, 8)), np.eye(4))
    sub = crop(vol, CropBox((2, 3, 4), (2, 3, 4)))
    assert sub.dims == (1, 1, 1)
    assert np.allclose(sub.geometry.index_to_world([(0, 0, 0)])[0], (2.0, 3.0, 4.0))


def test_crop_full_volume_is_identity():
    rng = np.random.default_rng(5)
    vol = VolumeGrid(rng.standard_normal((6, 6, 6)), np.eye(4))
    sub = crop(vol, CropBox((0, 0, 0), (5, 5, 5)))
    assert np.array_equal(sub.data, vol.data)
    assert np.allclose(sub.affine, vol.affine)


def test_empty_box_rejected():
    with pytest.raises(EmptyBox):
        CropBox((5, 0, 0), (2, 5, 5))


def test_uncrop_inverts_crop():
    rng = np.random.default_rng(6)
    lab = LabelVolume(rng.integers(0, 3, size=(10, 10, 10), dtype=np.int32), np.eye(4))
    box = CropBox((1, 2, 3), (8, 7, 9))
    sub = crop(lab, box)
    full = uncrop(sub, box, lab.geometry)
    inside = np.zeros(lab.dims, dtype=bool)
    inside[1:9, 2:8, 3:10] = True
    assert np.array_equal(full.data[inside], lab.data[inside])
    assert np.all(full.data[~inside] == 0)


def test_uncrop_extent_mismatch():
    sub = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32), np.eye(4))
    with pytest.raises(GeometryMismatch):
        uncrop(sub, CropBox((0, 0, 0), (4, 4, 4)), Geometry((8, 8, 8), np.eye(4)))


def _image(kind):
    """A 10^3 intensity image or labelmap on an anisotropic lattice."""
    rng = np.random.default_rng(9)
    aff = np.diag([0.8, 1.2, 1.0, 1.0])
    aff[:3, 3] = (3.0, -1.0, 2.5)
    if kind == "intensity":
        return VolumeGrid(rng.standard_normal((10, 10, 10)), aff)
    return LabelVolume(rng.integers(0, 3, size=(10, 10, 10), dtype=np.int32), aff)


@pytest.mark.parametrize("kind", ["intensity", "labels"])
def test_crop_uncrop_resample_keep_type_dtype_and_scheme(kind):
    img = _image(kind)
    box = CropBox((1, 2, 3), (8, 7, 9))
    sub = crop(img, box)
    full = uncrop(sub, box, img.geometry)
    target = Geometry((6, 5, 4), np.diag([1.5, 1.5, 1.5, 1.0]))
    moved = resample(full, target, _translation((0.3, -0.7, 1.2)))
    assert sub.dims == box.extent
    assert full.geometry.close_to(img.geometry)
    assert moved.geometry.close_to(target)
    for out in (sub, full, moved):
        assert type(out) is type(img)
        assert out.data.dtype == img.data.dtype


@pytest.mark.parametrize("kind", ["intensity", "labels"])
def test_with_data_checks_the_lattice(kind):
    img = _image(kind)
    small = np.zeros((4, 4, 4), dtype=img.data.dtype)
    other = Geometry((4, 4, 4), img.affine)
    with pytest.raises(GeometryMismatch):
        img.with_data(small)
    with pytest.raises(GeometryMismatch):
        img.with_data(img.data, other)
    out = img.with_data(small, other)
    assert type(out) is type(img)
    assert out.geometry.close_to(other)


def test_label_bounding_box_examples():
    data = np.zeros((64, 64, 64), dtype=np.int32)
    data[10, 10, 10] = 1
    lab = LabelVolume(data, np.eye(4))
    box = label_bounding_box(lab, margin=2)
    assert box.lo == (8, 8, 8) and box.hi == (12, 12, 12)

    data = np.zeros((64, 64, 64), dtype=np.int32)
    data[0, 0, 0] = 1
    box = label_bounding_box(LabelVolume(data, np.eye(4)), margin=2)
    assert box.lo == (0, 0, 0) and box.hi == (2, 2, 2)


def test_label_bounding_box_scan_oracle():
    rng = np.random.default_rng(7)
    data = (rng.random((20, 20, 20)) < 0.01).astype(np.int32)
    data[5, 5, 5] = 1  # guarantee nonempty
    lab = LabelVolume(data, np.eye(4))
    box = label_bounding_box(lab, margin=1)
    for i, j, k in np.argwhere(data):
        assert all(box.lo[a] <= (i, j, k)[a] <= box.hi[a] for a in range(3))


def test_label_bounding_box_all_background():
    lab = LabelVolume(np.zeros((4, 4, 4), dtype=np.int32), np.eye(4))
    with pytest.raises(AllBackground):
        label_bounding_box(lab)


def test_label_volume_validation():
    with pytest.raises(GeometryMismatch):
        LabelVolume(np.zeros((4, 4, 4)), np.eye(4))  # float data
    with pytest.raises(GeometryMismatch):
        LabelVolume(np.full((4, 4, 4), -1, dtype=np.int32), np.eye(4))


def test_label_scheme_rules():
    with pytest.raises(GeometryMismatch):
        LabelScheme([LabelEntry(1, "A", "a", "right"), LabelEntry(1, "B", "b", "left")])
    with pytest.raises(GeometryMismatch):
        LabelScheme([LabelEntry(0, "BG", "background", "")])


def test_default_scheme_structure():
    scheme = default_scheme()
    codes = scheme.codes()
    assert codes == list(range(1, 13)) + list(range(101, 113))
    pairs = scheme.bilateral_pairs()
    assert sorted(pairs) == [(c, c + 100) for c in range(1, 13)]
    for right, left in pairs:
        assert scheme[right].abbrev == scheme[left].abbrev
