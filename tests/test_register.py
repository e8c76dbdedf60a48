"""Transforms, displacement-field algebra, and registration behavior."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, map_coordinates

from atlasfuse import register
from atlasfuse.errors import (
    DegenerateInput,
    InversionDiverged,
    NonInvertibleTransform,
)
from atlasfuse.grid import CropBox, Geometry, LabelVolume, VolumeGrid, crop, label_bounding_box, resample, sq_norms
from atlasfuse.phantom import WarpSpec, random_diffeo
from atlasfuse.register import (
    AffineTransform,
    DeformationField,
    RegConfig,
    _coordinate_descent,
    _min_steps,
    _MiCost,
    _params_to_matrix,
    _smooth_field,
    compose_fields,
    invert_field,
    register_affine,
    register_deformable,
    register_rigid,
    resample_field,
    warp_labels,
)

GEOM16 = Geometry((16, 16, 16), np.eye(4))


def _translation(t):
    m = np.eye(4)
    m[:3, 3] = t
    return AffineTransform(m)


def _const_field(geometry, t):
    disp = np.broadcast_to(np.asarray(t, dtype=float), geometry.dims + (3,)).copy()
    return DeformationField(geometry, disp)


def _affine_field(transform, geometry):
    """The displacement field of an affine map on a lattice: A(x) - x at each voxel centre."""
    pts = geometry.grid_world()
    return DeformationField(geometry, (transform.map_points(pts) - pts).reshape(geometry.dims + (3,)))


def _header_shifted(vol, t):
    """vol's voxels stored under a header translated by t mm: its anatomy moves by t."""
    affine = vol.geometry.affine.copy()
    affine[:3, 3] += t
    return VolumeGrid(vol.data, affine)


def _placed(vol, init):
    """vol under the header that init, a map into vol's world, places it by: init^-1 A.
    A start map reads vol at init(y); the placed image reads the same voxel at y."""
    return VolumeGrid(vol.data, init.inverse().matrix @ vol.geometry.affine)


# --- AffineTransform ---


def test_affine_validation():
    with pytest.raises(NonInvertibleTransform):
        AffineTransform(np.zeros((4, 4)))
    bad_row = np.eye(4)
    bad_row[3] = (0, 0, 1, 1)
    with pytest.raises(NonInvertibleTransform):
        AffineTransform(bad_row)
    shear = np.eye(4)
    shear[0, 1] = 0.5
    AffineTransform(shear)  # fine as a general affine


def test_affine_inverse():
    rng = np.random.default_rng(0)
    m = np.eye(4)
    m[:3, :3] += 0.1 * rng.standard_normal((3, 3))
    m[:3, 3] = rng.standard_normal(3)
    a = AffineTransform(m)
    pts = rng.standard_normal((20, 3))
    assert np.allclose(a.inverse().map_points(a.map_points(pts)), pts, atol=1e-9)


# --- DeformationField basics ---


def test_field_shape_must_match_geometry():
    with pytest.raises(NonInvertibleTransform):
        DeformationField(GEOM16, np.zeros((8, 8, 8, 3)))


def test_field_rejects_non_finite():
    disp = np.zeros(GEOM16.dims + (3,))
    disp[0, 0, 0, 0] = np.nan
    with pytest.raises(NonInvertibleTransform):
        DeformationField(GEOM16, disp)


def test_resample_field_exact_on_lattice():
    f = random_diffeo(WarpSpec(seed=3), GEOM16)
    again = resample_field(f, GEOM16)
    assert np.allclose(again.disp, f.disp, atol=1e-12)


# --- compose / invert ---


def test_compose_constant_fields_add():
    f1 = _const_field(GEOM16, (1.0, 0.0, -0.5))
    f2 = _const_field(GEOM16, (0.25, 2.0, 0.5))
    out = compose_fields(f1, f2)
    # interior only: out-of-lattice samples of the inner field read 0
    inner = out.disp[4:12, 4:12, 4:12]
    assert np.allclose(inner, (1.25, 2.0, 0.0), atol=1e-12)


def test_compose_zero_field_is_identity_element():
    f = random_diffeo(WarpSpec(seed=3), GEOM16)
    z = DeformationField.zero(GEOM16)
    assert np.allclose(compose_fields(f, z).disp, f.disp, atol=1e-12)
    assert np.allclose(compose_fields(z, f).disp, f.disp, atol=1e-12)


def test_compose_matches_sequential_warping():
    geom = Geometry((32, 32, 32), np.eye(4))
    rng = np.random.default_rng(4)
    vol = VolumeGrid(gaussian_filter(rng.standard_normal(geom.dims), 3.0), np.eye(4))
    f_outer = random_diffeo(WarpSpec(seed=11, max_displacement_mm=2.0), geom)
    f_inner = random_diffeo(WarpSpec(seed=12, max_displacement_mm=2.0), geom)
    once = resample(vol, geom, compose_fields(f_outer, f_inner))
    twice = resample(resample(vol, geom, f_inner), geom, f_outer)
    rms = float(np.sqrt(np.mean((once.data - twice.data) ** 2)))
    # the two-pass result carries one extra interpolation, so allow a small
    # smoothing discrepancy relative to the image range
    assert rms < 5e-3 * float(np.ptp(vol.data))


def test_invert_zero_field():
    z = DeformationField.zero(GEOM16)
    assert np.array_equal(invert_field(z).disp, z.disp)


def test_invert_constant_field_exact():
    t = (1.5, -2.0, 0.75)
    f = _const_field(GEOM16, t)
    inv = invert_field(f)
    assert np.array_equal(inv.disp, np.broadcast_to(-np.asarray(t), inv.disp.shape))


def test_invert_random_diffeo_composition_residual():
    geom = Geometry((64, 64, 64), np.eye(4))
    f = random_diffeo(WarpSpec(seed=5, smoothness_mm=12.0, edge_taper_voxels=20), geom)
    inv = invert_field(f)
    assert inv.converged
    res = compose_fields(f, inv)
    assert float(np.sqrt((res.disp**2).sum(axis=-1)).max()) < 0.05


def _linear_field(gain):
    """disp_x = gain * (i - 15.5) on a 32^3 1 mm lattice. Every gain gives an invertible
    map, but the fixed-point iteration contracts only below gain 1, more slowly near it."""
    geom = Geometry((32, 32, 32), np.eye(4))
    ii = np.indices(geom.dims).transpose(1, 2, 3, 0).astype(float)
    disp = np.zeros(geom.dims + (3,))
    disp[..., 0] = gain * (ii[..., 0] - 15.5)
    return DeformationField(geom, disp)


@pytest.mark.parametrize(
    "gain, want_res",
    [(0.95, 1.133), (0.99, None), (1.0, None), (1.1, None)],
    ids=["0.95", "0.99", "1.0", "1.1"],
)
def test_invert_linear_field(gain, want_res):
    """After _INVERT_ITERS iterations the best residual decides: within two voxels
    the unconverged inverse is returned, beyond them InversionDiverged is raised.
    Gains 0.99 and 1.0 used to return an inverse 9.28 and 15.5 mm off in silence."""
    field = _linear_field(gain)
    if want_res is None:
        with pytest.raises(InversionDiverged, match="above 2 voxels"):
            invert_field(field)
        return
    inv = invert_field(field)
    assert not inv.converged
    assert inv.residual_mm == pytest.approx(want_res, abs=5e-4)


def test_jacobian_of_affine_field_matches_determinant():
    m = np.eye(4)
    m[:3, :3] = np.diag([1.1, 0.9, 1.05])
    f = _affine_field(AffineTransform(m), GEOM16)
    det = f.jacobian_determinants()
    # interior voxels see the exact constant Jacobian of the linear map
    assert np.allclose(det[2:-2, 2:-2, 2:-2], 1.1 * 0.9 * 1.05, atol=1e-9)


# --- warp_labels ---


def test_warp_labels_identity_and_shift_oracle():
    rng = np.random.default_rng(6)
    data = rng.integers(0, 4, size=(12, 12, 12), dtype=np.int32)
    lab = LabelVolume(data, np.eye(4))
    out = warp_labels(lab, AffineTransform.identity(), lab.geometry)
    assert np.array_equal(out.data, data)
    # whole-voxel translation: pull-back x -> x + 2 on axis 0 shifts content by -2
    out = warp_labels(lab, _translation((2.0, 0.0, 0.0)), lab.geometry)
    expect = np.zeros_like(data)
    expect[:-2] = data[2:]
    assert np.array_equal(out.data, expect)
    assert set(np.unique(out.data)) <= set(np.unique(data)) | {0}


# --- registration ---


def test_rigid_self_registration_is_identity(base):
    wmn, _, _ = base
    t = register_rigid(wmn, wmn)
    trans = np.linalg.norm(t.matrix[:3, 3])
    angle = np.degrees(np.arccos(np.clip((np.trace(t.matrix[:3, :3]) - 1) / 2, -1, 1)))
    assert trans < 0.1
    assert angle < 0.1


def test_affine_self_registration_near_identity(base):
    wmn, _, _ = base
    t = register_affine(wmn, wmn)
    assert np.max(np.abs(t.matrix - np.eye(4))) < 1e-3


def test_rigid_recovers_a_large_header_translation(base):
    """A 25 mm header translation, past the reach of a search from the identity alone,
    is recovered to within 0.5 mm at every corner of the lattice."""
    wmn, _, _ = base
    shift = np.array([25.0, 0.0, 0.0])
    t = register_rigid(wmn, _header_shifted(wmn, shift))
    corners = wmn.geometry.world_corners()
    assert np.abs(t.map_points(corners) - (corners + shift)).max() < 0.5


def test_rigid_allocates_under_four_volumes_at_full_resolution():
    """The MI samples and the rotation centre come from the lattice's shape, so rigid
    registration of a 128^3 pair builds no index or world array per voxel of it."""
    rng = np.random.default_rng(5)
    fixed = VolumeGrid(gaussian_filter(rng.standard_normal((128, 128, 128)), 2.0), np.eye(4))
    moving = _header_shifted(fixed, (1.5, -1.0, 0.5))
    config = RegConfig(shrink_factors=(4, 2, 1), linear_iters=(3, 2, 1), deform_iters=(0, 0, 0))
    tracemalloc.start()
    try:
        register_rigid(fixed, moving, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * fixed.data.nbytes


def test_rigid_registration_deterministic(base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    fixed = crop(wmn, box)
    moving = resample(wmn, wmn.geometry, _translation((-1.5, 0.5, 0.0)))
    moving = crop(moving, box)
    t1 = register_rigid(fixed, moving)
    t2 = register_rigid(fixed, moving)
    assert np.array_equal(t1.matrix, t2.matrix)


def test_degenerate_input_rejected():
    flat = VolumeGrid(np.zeros((16, 16, 16)), np.eye(4))
    bump = VolumeGrid(np.random.default_rng(7).standard_normal((16, 16, 16)), np.eye(4))
    with pytest.raises(DegenerateInput):
        register_rigid(flat, bump)


@pytest.mark.parametrize(
    "dims, factor, level",
    [((16, 16, 16), 16, (1, 1, 1)), ((16, 16, 16), 64, (1, 1, 1)), ((16, 2, 16), 2, (8, 1, 8)), ((16, 16, 1), 1, (16, 16, 1))],
    ids=["cube-at-16", "cube-at-64", "two-wide-at-2", "one-slice-at-1"],
)
@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_one_voxel_pyramid_level_rejected(dims, factor, level, side):
    """A pyramid level with an axis of one voxel has no MI sample and no gradient.
    Each registration rejects it as DegenerateInput, naming the shrink factor and
    the level's dims. Unchecked, MI kept the identity there and demons raised
    numpy's ValueError."""
    rng = np.random.default_rng(3)
    images = {"fixed": VolumeGrid(rng.standard_normal((16, 16, 16)), np.eye(4))}
    images["moving"] = images["fixed"].with_data(rng.standard_normal((16, 16, 16)))
    images[side] = VolumeGrid(rng.standard_normal(dims), np.eye(4))
    config = RegConfig(shrink_factors=(factor,), linear_iters=(1,), deform_iters=(1,))
    match = re.escape(f"shrink factor {factor} leaves a {level}")
    with pytest.raises(DegenerateInput, match=match):
        register_rigid(images["fixed"], images["moving"], config)
    with pytest.raises(DegenerateInput, match=match):
        register_deformable(images["fixed"], images["moving"], config=config)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_non_finite_intensity_rejected(base, side, value):
    """One non-finite voxel is bad data. Unchecked, a NaN in the fixed image made
    every -MI read 0, and rigid returned the identity without an error."""
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    images = {
        "fixed": crop(wmn, box),
        "moving": crop(resample(wmn, wmn.geometry, _translation((-1.5, 0.5, 0.0))), box),
    }
    data = images[side].data.copy()
    data[tuple(np.array(data.shape) // 2)] = value
    images[side] = images[side].with_data(data)
    with pytest.raises(DegenerateInput, match="non-finite"):
        register_rigid(images["fixed"], images["moving"])
    with pytest.raises(DegenerateInput, match="non-finite"):
        register_deformable(images["fixed"], images["moving"])


@pytest.mark.parametrize("shift", [(200.0, 0.0, 0.0), (-150.0, 90.0, 40.0)], ids=lambda t: "{:g},{:g},{:g}mm".format(*t))
def test_rigid_recovers_a_far_header_translation(base, shift):
    """The 32^3 box stored under a header moved so far that its world box and the
    unmoved one's are disjoint: the centroid start places it, and the search ends on
    the negated translation with an identity rotation block."""
    wmn, _, _ = base
    box = crop(wmn, CropBox((3, 1, 7), (34, 32, 38)))
    t = register_rigid(_header_shifted(box, shift), box)
    assert np.allclose(t.matrix[:3, :3], np.eye(3), rtol=0, atol=1e-9)
    assert np.allclose(t.matrix[:3, 3], -np.asarray(shift), rtol=0, atol=1e-9)


def test_rigid_never_scores_a_trial_twice(base, monkeypatch):
    """Both starts go through the search's memo, so one register_rigid call scores
    each (pyramid level, trial matrix) once."""
    costs = []

    class Recording(_MiCost):
        def __init__(self, *args):
            super().__init__(*args)
            self.seen = []
            costs.append(self)

        def __call__(self, matrix):
            self.seen.append(matrix.tobytes())
            return super().__call__(matrix)

    monkeypatch.setattr(register, "_MiCost", Recording)
    wmn, _, _ = base
    box = crop(wmn, CropBox((3, 1, 7), (34, 32, 38)))
    register_rigid(_header_shifted(box, (7.0, -5.0, 4.0)), box)
    assert len(costs) == len(RegConfig().shrink_factors)
    for cost in costs:
        assert cost.seen and len(cost.seen) == len(set(cost.seen))


def test_deformable_self_registration_small(base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    fixed = crop(wmn, box)
    f = register_deformable(fixed, fixed, RegConfig())
    assert f.max_norm() < 0.2  # voxels == mm here
    assert f.positive_jacobian_fraction() == 1.0


def test_deformable_zero_iterations_returns_zero_residual(base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    fixed = crop(wmn, box)
    cfg = RegConfig(deform_iters=(0, 0, 0))
    f = register_deformable(fixed, _header_shifted(fixed, (0.8, -0.3, 0.4)), cfg)
    assert f.geometry == fixed.geometry
    assert np.array_equal(f.disp, np.zeros(fixed.geometry.dims + (3,)))


def test_deformable_returns_the_residual_past_a_translation_init(base):
    """The moving image is the fixed one moved 25 mm by its header, then placed back by
    that translation: the map x + psi(x) needs no residual past it, so psi stays near zero."""
    wmn, truth, _ = base
    fixed = crop(wmn, label_bounding_box(truth, margin=5))
    shift = (25.0, -15.0, 12.0)
    psi = register_deformable(fixed, _placed(_header_shifted(fixed, shift), _translation(shift)))
    assert psi.geometry == fixed.geometry
    assert psi.max_norm() < 0.2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shrink_factors": ()},
        {"shrink_factors": (0,), "linear_iters": (100,), "deform_iters": (60,)},
        {"shrink_factors": (4, -2, 1)},
        {"shrink_factors": (4, 2.5, 1)},
        {"shrink_factors": (4, True, 1)},
        {"linear_iters": (100,)},
        {"deform_iters": (5,)},
        {"deform_iters": (60, 40, 20, 10)},
        {"linear_iters": (100, -1, 50)},
        {"deform_iters": (60, 40, -20)},
        {"deform_iters": (60, 40, 0.5)},
    ],
    ids=[
        "no-levels", "zero-shrink", "negative-shrink", "fractional-shrink", "bool-shrink",
        "short-linear", "short-deform", "long-deform", "negative-linear", "negative-deform",
        "fractional-deform",
    ],
)
def test_reg_config_rejects_levels_it_cannot_run(kwargs):
    with pytest.raises(ValueError):
        RegConfig(**kwargs)


@pytest.mark.parametrize(
    "name, default",
    [
        ("mi_bins", 32),
        ("max_metric_samples", 50000),
        ("jacobian_threshold", 0.999),
        ("cc_radius", 2),
        ("sigma_update", 1.0),
        ("sigma_total", 0.5),
        ("step_length", 1.0),
        ("conv_tol", 1e-5),
        ("conv_window", 10),
    ],
)
def test_reg_config_has_only_the_pyramid(name, default):
    """The rest of the recipe is fixed: naming a part of it, even at its value, is an error."""
    with pytest.raises(TypeError):
        RegConfig(**{name: default})


def test_reg_config_takes_any_sequence_of_integer_levels():
    cfg = RegConfig(shrink_factors=[2, np.int64(1)], linear_iters=[10, 0], deform_iters=np.array([0, 3]))
    assert cfg.shrink_factors == (2, 1) and cfg.linear_iters == (10, 0) and cfg.deform_iters == (0, 3)
    for levels in (cfg.shrink_factors, cfg.linear_iters, cfg.deform_iters):
        assert type(levels) is tuple and all(type(v) is int for v in levels)  # the manifest is JSON


# --- the coordinate search's minimum steps ---


@pytest.mark.parametrize(
    "dims, affine",
    [
        ((64, 64, 64), np.eye(4)),
        ((48, 40, 20), np.array([[0.8, 0, 0, -12.0], [0, 1.2, 0, 3.0], [0, 0, 2.5, 40.0], [0, 0, 0, 1]])),
    ],
    ids=["64-isotropic", "anisotropic"],
)
@pytest.mark.parametrize("n_params", [6, 12])
def test_min_steps_move_the_farthest_voxel_a_twentieth(dims, affine, n_params):
    """Each parameter's minimum step, applied alone, moves no lattice corner by
    more than 0.05 voxel, and moves some point as far from center as the
    farthest corner by 0.05 voxel: exactly for translations, to first order for
    rotation, scale and shear."""
    geom = Geometry(dims, affine)
    center = geom.grid_world().mean(axis=0)
    want_mm = 0.05 * float(np.max(geom.spacing))
    corners = geom.world_corners()
    radius = float(np.linalg.norm(corners - center, axis=1).max())
    on_sphere = center + radius * np.vstack([np.eye(3), -np.eye(3)])
    identity = np.zeros(n_params)
    identity[6:9] = 1.0
    steps = _min_steps(geom, center, n_params)
    assert steps.shape == (n_params,)
    for k in range(n_params):
        p = identity.copy()
        p[k] += steps[k]
        t = AffineTransform(_params_to_matrix(p, center, n_params))
        corner_mm = float(np.linalg.norm(t.map_points(corners) - corners, axis=1).max())
        worst_mm = float(np.linalg.norm(t.map_points(on_sphere) - on_sphere, axis=1).max())
        if k < 3:
            assert corner_mm == pytest.approx(want_mm, rel=1e-9)
        else:
            # the second-order terms are (step * radius)^2 / radius, below 1e-3 of the bound
            assert corner_mm <= want_mm * (1.0 + 1e-3)
            assert worst_mm == pytest.approx(want_mm, rel=1e-3)


# --- one-sample inversion against the two-sample loop ---


def _in_lattice(geometry, world_pts):
    """Mask of the world points whose voxel index lies in [0, d - 1] on every axis."""
    minv = np.linalg.inv(geometry.affine)
    idx = world_pts @ minv[:3, :3].T + minv[:3, 3]
    return np.all((idx >= 0) & (idx <= np.array(geometry.dims) - 1), axis=1)


def _reference_invert(field, iters):
    """The inversion loop that samples the field twice per iteration.

    The residual is the maximum over the voxels whose x + g lies in the lattice.
    It converges below 0.01 mm; a best residual above two voxels of the largest
    spacing raises.
    """
    pts = field.geometry.grid_world()
    g = np.zeros_like(pts)
    best = None
    best_res = np.inf
    for _ in range(iters):
        g = -field.sample_disp(pts + g)
        inside = _in_lattice(field.geometry, pts + g)
        if not inside.any():
            raise InversionDiverged("no voxel's inverse lies inside the lattice")
        res = float(np.linalg.norm((field.sample_disp(pts + g) + g)[inside], axis=1).max())
        if res < best_res:
            best, best_res = g.copy(), res
        if res < 0.01:
            break
    bound = 2.0 * float(np.max(field.geometry.spacing))
    if best_res > bound:
        raise InversionDiverged(f"best residual {best_res:.4g} mm is above 2 voxels ({bound:.4g} mm)")
    return best.reshape(field.disp.shape), best_res, best_res < 0.01


class _CountingField(DeformationField):
    samples = 0

    def _sample_index(self, idx):
        self.samples += 1
        return super()._sample_index(idx)


def _oracle_field(case):
    geom24 = Geometry((24, 24, 24), np.eye(4))
    if case == "zero":
        return DeformationField.zero(GEOM16)
    if case == "constant":
        return _const_field(GEOM16, (1.5, -2.0, 0.75))
    if case == "converging":
        return random_diffeo(WarpSpec(seed=5, smoothness_mm=6.0, edge_taper_voxels=6), geom24)
    if case == "stalling":
        # untapered: near the boundary the inverse lies outside the lattice,
        # where the field reads 0, so a residual over the whole lattice stalls
        spec = WarpSpec(seed=1, max_displacement_mm=2.0, smoothness_mm=4.0, edge_taper_voxels=0)
        return random_diffeo(spec, GEOM16)
    raise ValueError(case)


@pytest.mark.parametrize(
    "case, iters",
    [
        ("zero", 50),
        ("constant", 50),
        ("converging", 50),
        ("stalling", 50),
        ("converging", 1),
        ("converging", 2),
        ("stalling", 1),
        ("stalling", 2),
    ],
)
def test_invert_matches_two_sample_loop(monkeypatch, case, iters):
    monkeypatch.setattr(register, "_INVERT_ITERS", iters)
    field = _oracle_field(case)
    want_disp, want_res, want_conv = _reference_invert(field, iters)
    counted = _CountingField(field.geometry, field.disp)
    got = invert_field(counted)
    assert np.array_equal(got.disp, want_disp)
    assert got.residual_mm == want_res
    assert got.converged == want_conv
    # one field sample per iteration, plus the first; fewer if it converged
    assert counted.samples == iters + 1 or got.converged
    if iters == 50:
        assert got.converged


def test_invert_divergence_matches_two_sample_loop():
    field = _linear_field(1.1)
    with pytest.raises(InversionDiverged) as want:
        _reference_invert(field, 50)
    with pytest.raises(InversionDiverged) as got:
        invert_field(field)
    assert str(got.value) == str(want.value)


def test_invert_untapered_field_converges_where_the_inverse_exists():
    field = _oracle_field("stalling")
    inv = invert_field(field)
    assert inv.converged and inv.residual_mm < 0.01
    pts = field.geometry.grid_world()
    g = inv.disp.reshape(-1, 3)
    inside = _in_lattice(field.geometry, pts + g)
    assert 0.5 < inside.mean() < 1.0  # some inverses do leave the lattice
    composed = compose_fields(inv, field).disp.reshape(-1, 3)
    assert float(np.linalg.norm(composed[inside], axis=1).max()) < 0.01


@pytest.mark.parametrize("shift", [(16.0, 0.0, 0.0), (0.0, -40.0, 0.0), (0.0, 0.0, 15.5)])
def test_invert_shift_past_the_lattice_diverges(shift):
    """A constant shift that moves every voxel out of the lattice has no inverse on it."""
    field = _const_field(GEOM16, shift)
    with pytest.raises(InversionDiverged, match="inside the lattice") as got:
        invert_field(field)
    with pytest.raises(InversionDiverged) as want:
        _reference_invert(field, 50)
    assert str(got.value) == str(want.value)


# --- field smoothing against the per-component loop ---


@pytest.mark.parametrize("sigma", [1.0, np.array([6.0, 3.0, 2.0]), 0.0], ids=["scalar", "per-axis", "zero"])
def test_smooth_field_matches_per_component_loop(sigma):
    disp = np.random.default_rng(5).standard_normal((12, 10, 9, 3))
    want = disp.copy()
    if np.any(sigma > 0):
        for a in range(3):
            want[..., a] = gaussian_filter(disp[..., a], sigma=sigma, mode="nearest")
    assert np.array_equal(_smooth_field(disp, sigma), want)


# --- MI stage against the gather-based cost and the unmemoized search ---


def _moving_index(cost, transform):
    """Moving-image voxel indices of the cost's samples under transform, and their in-bounds mask."""
    minv = np.linalg.inv(cost.moving.geometry.affine)
    pts = cost.idx[:3].T @ cost.fixed_affine[:3, :3].T + cost.fixed_affine[:3, 3]
    src = pts @ transform.matrix[:3, :3].T + transform.matrix[:3, 3]
    idx = src @ minv[:3, :3].T + minv[:3, 3]
    return idx, np.all((idx >= 0) & (idx <= np.array(cost.moving.geometry.dims, dtype=float) - 1), axis=1)


def _reference_mi(cost, transform):
    """_MiCost.__call__ interpolating only the in-bounds samples."""
    idx, valid = _moving_index(cost, transform)
    if valid.sum() < 100:
        return 1.0
    mvals = map_coordinates(cost.moving.data, idx[valid].T, order=1, mode="nearest")
    ncols = cost.bins + 1
    mbin = np.full(len(valid), cost.bins, dtype=np.int64)
    mbin[valid] = np.clip(
        ((mvals - cost.vmin) / cost.vrange * cost.bins).astype(np.int64), 0, cost.bins - 1
    )
    joint = np.bincount(cost.frow + mbin, minlength=cost.bins * ncols).reshape(
        cost.bins, ncols
    )
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0
    return -float(np.sum(p[nz] * np.log(p[nz] / (px @ py)[nz])))


def _reference_descent(cost, p0, steps, min_steps, max_sweeps):
    """_coordinate_descent without the per-call memo."""
    p = np.asarray(p0, dtype=float).copy()
    steps = np.asarray(steps, dtype=float).copy()
    f = cost(p)
    for _ in range(max_sweeps):
        improved = False
        for k in range(len(p)):
            for sign in (1.0, -1.0):
                cand = p.copy()
                cand[k] += sign * steps[k]
                fc = cost(cand)
                if fc < f - 1e-14:
                    p, f = cand, fc
                    steps[k] *= 1.5
                    improved = True
                    break
        if not improved:
            steps *= 0.5
            if np.all(steps < min_steps):
                break
    return p, f


def _mi_pair(seed):
    rng = np.random.default_rng(seed)
    fixed = VolumeGrid(gaussian_filter(rng.standard_normal((20, 18, 16)), 2.0), np.eye(4))
    aff = np.diag([1.2, 1.0, 0.9, 1.0])
    aff[:3, 3] = (-1.5, 0.5, 1.0)
    moving = VolumeGrid(gaussian_filter(rng.standard_normal((18, 20, 17)), 2.0), aff)
    return fixed, moving


# the pair's ranges differ by 1.08x unscaled, so x8 and x0.12 lie within 10x and x15 past it
@pytest.mark.parametrize("scale, shared", [(3.0, True), (8.0, True), (0.3, True), (0.12, True),
                                           (15.0, False), (30.0, False), (1000.0, False), (0.01, False)])
def test_mi_bins_each_image_over_its_own_range_past_ten_times(scale, shared):
    """Within 10x of each other, the two images share their bin edges, the joint min..max;
    past it each is binned over its own min..max, so neither lands in a few bins."""
    fixed, moving = _mi_pair(3)
    moving = moving.with_data(moving.data * scale)
    cost = _MiCost(fixed, moving)
    fbins = cost.frow // (cost.bins + 1)
    mbins = cost.moving_bins(np.eye(4))
    mbins = mbins[mbins < cost.bins]
    if shared:
        lo = min(fixed.data.min(), moving.data.min())
        assert cost.vmin == lo and cost.vrange == max(fixed.data.max(), moving.data.max()) - lo
    else:
        assert cost.vmin == moving.data.min() and cost.vrange == np.ptp(moving.data)
        assert len(np.unique(fbins)) >= cost.bins // 2 and len(np.unique(mbins)) >= cost.bins // 2


def test_mi_samples_at_most_sixteen_per_histogram_cell(monkeypatch):
    """Each level scores its fixed lattice's jittered voxel samples in flat order: all of
    them under 16 per joint-histogram cell, above that every stride-th with the least
    stride that fits."""
    built = []

    class Recording(_MiCost):
        def __init__(self, fixed, *args):
            super().__init__(fixed, *args)
            built.append((fixed.geometry, self))

    monkeypatch.setattr(register, "_MiCost", Recording)
    rng = np.random.default_rng(0)
    fixed = VolumeGrid(gaussian_filter(rng.standard_normal((32, 32, 32)), 2.0), np.eye(4))
    register_rigid(fixed, fixed, RegConfig(shrink_factors=(2, 1), linear_iters=(0, 0), deform_iters=(0, 0)))
    cap = 16 * register._MI_BINS**2
    assert [geom.dims for geom, _ in built] == [(16, 16, 16), (32, 32, 32)]
    for (geom, cost), stride in zip(built, (1, 2)):
        idx = cost.idx[:3].T - _MiCost._JITTER
        assert np.allclose(idx, np.rint(idx), atol=1e-9)
        lattice = tuple(d - 1 for d in geom.dims)
        flat = np.ravel_multi_index(tuple(np.rint(idx).astype(np.int64).T), lattice)
        assert np.array_equal(flat, np.arange(0, np.prod(lattice), stride))
        assert len(flat) <= cap
        if stride > 1:  # the next smaller stride would not fit
            assert len(range(0, np.prod(lattice), stride - 1)) > cap


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mi_cost_matches_gather_reference(seed):
    fixed, moving = _mi_pair(seed)
    cost = _MiCost(fixed, moving)
    center = fixed.geometry.grid_world().mean(axis=0)
    rng = np.random.default_rng(100 + seed)
    full = partial = empty = 0
    for shift in (0.0, 4.0, 12.0, 40.0):
        for _ in range(8):
            p = np.r_[rng.uniform(-shift, shift, 3), rng.uniform(-0.15, 0.15, 3)]
            t = AffineTransform(_params_to_matrix(p, center, 6))
            idx, valid = _moving_index(cost, t)
            n_valid = int(valid.sum())
            full += n_valid == len(idx)
            partial += 100 <= n_valid < len(idx)
            empty += n_valid < 100
            assert cost(t.matrix) == _reference_mi(cost, t)
    # a moving image that covers the fixed one gives the full-overlap case
    big = VolumeGrid(gaussian_filter(rng.standard_normal((30, 30, 30)), 2.0), np.eye(4))
    big_cost = _MiCost(fixed, big)
    for _ in range(8):
        p = np.r_[rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.05, 0.05, 3)]
        t = AffineTransform(_params_to_matrix(p, center, 6))
        full += 1
        assert big_cost(t.matrix) == _reference_mi(big_cost, t)
    assert partial and empty and full
    far = AffineTransform(_params_to_matrix(np.r_[100.0, 0, 0, 0, 0, 0], center, 6))
    assert cost(far.matrix) == _reference_mi(cost, far) == 1.0


def test_mi_cost_on_the_lattice_edge():
    """A sample exactly on index 0 or d - 1 of the moving lattice is overlap and one ulp
    beyond either is not, on every axis, as Geometry.contains_index rules; a sample that
    reads the image maximum takes the top bin, not the outside column."""
    rng = np.random.default_rng(11)
    fixed = VolumeGrid(gaussian_filter(rng.standard_normal((9, 8, 7)), 1.0), np.eye(4))
    data = gaussian_filter(rng.standard_normal((12, 11, 10)), 1.0)
    data[-1, -1, -1] = max(data.max(), fixed.data.max()) + 1.0
    moving = VolumeGrid(data, np.eye(4))
    cost = _MiCost(fixed, moving)
    x = cost.idx[:3]  # identity affines: the samples' fixed indices are their world points
    lo, hi = x.min(axis=1), x.max(axis=1)
    top = np.array(moving.geometry.dims, dtype=float) - 1
    # each translation sums exactly (Sterbenz) to the edge samples' moving index, in the
    # world chain and in the index map alike: (shift, edge samples' fixed index, their moving
    # index, whether they are overlap)
    cases = [
        (-lo, lo, np.zeros(3), True),
        (-np.nextafter(lo, np.inf), lo, lo - np.nextafter(lo, np.inf), False),
        (top - hi, hi, top, True),
        (np.nextafter(top, np.inf) - hi, hi, np.nextafter(top, np.inf), False),
    ]
    for axis in range(3):
        for shift, side, at, counted in cases:
            t = np.full(3, 1.5)  # the other axes stay well inside
            t[axis] = shift[axis]
            transform = _translation(t)
            idx, _ = _moving_index(cost, transform)
            edge = x[axis] == side[axis]
            assert np.all(idx[edge, axis] == at[axis])
            inside = moving.geometry.contains_index(idx)
            assert edge.any() and np.all(inside[edge] == counted)
            assert np.array_equal(cost.moving_bins(transform.matrix) < cost.bins, inside)
            assert cost(transform.matrix) == _reference_mi(cost, transform)
    corner = _translation(top - hi)  # the last sample lands on the moving lattice's last voxel
    idx, _ = _moving_index(cost, corner)
    assert np.array_equal(idx[-1], top)
    assert cost.moving_bins(corner.matrix)[-1] == cost.bins - 1
    assert cost(corner.matrix) == _reference_mi(cost, corner)


class _CountingCost:
    def __init__(self, cost):
        self.cost = cost
        self.seen = []

    def __call__(self, q):
        self.seen.append(q.tobytes())
        return self.cost(q)


def _bumpy_quadratic(q):
    w = np.array([1.0, 3.0, 0.5, 2.0, 1.5, 0.8])
    target = np.array([0.7, -1.3, 2.2, 0.05, -0.4, 1.1])
    return float(np.sum(w * (q - target) ** 2) + 0.05 * np.sum(np.cos(7.0 * q)))


@pytest.mark.parametrize("which", ["quadratic", "mi"])
def test_coordinate_descent_never_repeats_a_trial(which):
    if which == "quadratic":
        cost = _bumpy_quadratic
        args = (np.zeros(6), np.full(6, 0.5), np.full(6, 1e-3), 60)
    else:
        fixed, moving = _mi_pair(3)
        mi = _MiCost(fixed, moving)
        center = fixed.geometry.grid_world().mean(axis=0)

        def cost(q):
            return mi(_params_to_matrix(q, center, 6))

        steps = np.r_[np.ones(3), np.full(3, 0.08)]
        mins = np.r_[np.full(3, 0.02), np.full(3, 5e-4)]
        args = (np.zeros(6), steps, mins, 40)
    plain = _CountingCost(cost)
    want_p, want_f = _reference_descent(plain, *args)
    counted = _CountingCost(cost)
    got_p, got_f = _coordinate_descent(counted, [args[0]], *args[1:])
    assert np.array_equal(got_p, want_p)
    assert got_f == want_f
    assert len(counted.seen) == len(set(counted.seen))
    # the unmemoized loop does repeat trials here, so the memo is exercised
    assert len(set(plain.seen)) == len(counted.seen) < len(plain.seen)


def test_coordinate_descent_starts_from_the_first_least_cost_start():
    """Of several starts the search descends from the one with the least cost, the
    first of equal ones; with no sweep it returns that start and its cost."""
    cost = _CountingCost(lambda q: float(abs(q[0] - 2.0)))
    starts = [np.array([0.0]), np.array([4.0]), np.array([3.0]), np.array([1.0])]
    p, f = _coordinate_descent(cost, starts, np.ones(1), np.ones(1), 0)
    assert np.array_equal(p, [3.0]) and f == 1.0
    assert len(cost.seen) == len(set(cost.seen)) == 4


# --- demons loop against a plain fixed-step loop ---


def _reference_lncc_force(fixed_data, warped_data, radius, ainv3):
    """_lncc_force computing the fixed image's terms on every call."""
    f = fixed_data - register._local_means(fixed_data, radius)
    m = warped_data - register._local_means(warped_data, radius)
    a = register._local_means(f * m, radius)
    b = register._local_means(f * f, radius)
    c = register._local_means(m * m, radius)
    denom = b * c
    scale = float(np.ptp(fixed_data))
    eps = max((1e-3 * scale) ** 4, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(denom > eps, 2.0 * a / denom, 0.0)
        corr = np.where(c > np.sqrt(eps), a / c, 0.0)
    resid = coef * (f - corr * m)
    gvox = np.stack(np.gradient(warped_data, axis=(0, 1, 2)), axis=-1)
    return resid[..., None] * (gvox @ ainv3)


def _voxel_indices(dims):
    """Every voxel index of a lattice, shape (nvox, 3), C order."""
    return np.stack(np.meshgrid(*(np.arange(d) for d in dims), indexing="ij"), axis=-1).reshape(-1, 3)


def _reference_demons(fixed, moving, init, config, levels):
    """register_deformable's loop with a start map kept apart: deform_iters one-voxel
    steps per level on a residual that starts at zero, with moving sampled at
    init(x + psi(x)).

    Appends each pyramid level's exit to levels: "iters" once it has taken
    all its steps, "zero" on a zero force.
    """
    field = None
    for factor, iters in zip(config.shrink_factors, config.deform_iters):
        f_l = register._downsample(fixed, factor)
        m_l = register._downsample(moving, factor)
        geom = f_l.geometry
        if field is None:
            field = DeformationField(geom, np.zeros(geom.dims + (3,)))
        else:  # voxel j of this level is voxel j * factor / prev of the last
            disp = field._sample_index(_voxel_indices(geom.dims) * factor / prev)
            field = DeformationField(geom, disp.reshape(geom.dims + (3,)))
        prev = factor
        ainv3 = np.linalg.inv(geom.affine[:3, :3])
        pts = geom.grid_world()
        step = register._STEP_LENGTH * float(np.min(geom.spacing))
        stop = "iters"
        for _ in range(iters):
            warped = m_l.sample(init.map_points(pts + field.disp.reshape(-1, 3))).reshape(geom.dims)
            force = _reference_lncc_force(f_l.data, warped, register._CC_RADIUS, ainv3)
            peak = float(np.linalg.norm(force, axis=-1).max())
            if peak <= 0:
                stop = "zero"
                break
            update = _smooth_field(force * (step / peak), register._SIGMA_UPDATE)
            field = compose_fields(DeformationField(geom, update), field)
            field = DeformationField(geom, _smooth_field(field.disp, register._SIGMA_TOTAL))
        levels.append(stop)
    return field.disp


def _demons_pair(base, seed):
    """The phantom's label box and a copy pulled through a 1 mm random warp (itself if seed is None)."""
    wmn, truth, _ = base
    fixed = crop(wmn, label_bounding_box(truth, margin=5))
    if seed is None:
        return fixed, fixed
    warp = random_diffeo(WarpSpec(seed=seed, max_displacement_mm=1.0), fixed.geometry)
    return fixed, resample(fixed, fixed.geometry, warp)


def _start_map(geometry, shift, turn):
    """A rigid start: a turn (axis, degrees) about the lattice's centre, or none, then a shift in mm."""
    m = np.eye(4)
    if turn is not None:
        axis, degrees = turn
        a = np.radians(degrees)
        i, j = [(1, 2), (2, 0), (0, 1)][axis]
        m[i, i], m[i, j], m[j, i], m[j, j] = np.cos(a), -np.sin(a), np.sin(a), np.cos(a)
    centre = geometry.index_to_world([np.subtract(geometry.dims, 1) / 2.0])[0]
    m[:3, 3] = centre - m[:3, :3] @ centre + shift
    return AffineTransform(m)


# case: (warp seed or None for moving = fixed, start shift (mm), start turn (axis, degrees)
# or None, oblique lattice, shrink factors, demons iterations, the exit each level must take)
DEMONS_CASES = {
    "iters": (1, (0.4, -0.3, 0.2), None, False, (4, 2), (8, 6), ["iters", "iters"]),
    "zero-force": (None, (0.0, 0.0, 0.0), None, False, (2, 1), (20, 20), ["zero", "zero"]),
    "turn": (1, (0.4, -0.3, 0.2), (2, 4.0), False, (2, 1), (4, 3), ["iters", "iters"]),
    "oblique-shift": (2, (-0.6, 0.5, 0.3), None, True, (2, 1), (4, 3), ["iters", "iters"]),
    "oblique-turn": (2, (0.3, 0.2, -0.5), (0, -3.0), True, (4, 2), (6, 4), ["iters", "iters"]),
}


@pytest.mark.parametrize("case", DEMONS_CASES)
def test_demons_matches_reference_loop(base, case):
    """Demons on the moving image placed by a rigid start reads what a loop that keeps
    the start apart reads, moving at init(x + psi(x)): psi agrees to 1e-9 mm, and
    exactly where the start is the identity. Turns and shifts, on an axis-aligned and
    an oblique lattice."""
    seed, shift, turn, oblique, shrink, iters, exits = DEMONS_CASES[case]
    fixed, moving = _demons_pair(base, seed)
    if oblique:
        aff = _oblique(np.random.default_rng(5), (1.0, 1.2, 0.9))
        fixed, moving = VolumeGrid(fixed.data, aff), VolumeGrid(moving.data, aff)
    init = _start_map(fixed.geometry, shift, turn)
    config = RegConfig(shrink_factors=shrink, linear_iters=(1,) * len(shrink), deform_iters=iters)
    levels = []
    want = _reference_demons(fixed, moving, init, config, levels)
    got = register_deformable(fixed, _placed(moving, init), config)
    assert levels == exits
    if case == "zero-force":
        assert np.array_equal(got.disp, want)
    assert np.abs(got.disp - want).max() < 1e-9


def _oblique(rng, spacing):
    """A random rotation times diag(spacing), with a shift: an oblique, anisotropic lattice affine."""
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    aff = np.eye(4)
    aff[:3, :3] = rot * np.sign(np.linalg.det(rot)) @ np.diag(spacing)
    aff[:3, 3] = rng.uniform(-100.0, 100.0, 3)
    return aff


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("factor", [2, 3, 4])
def test_pyramid_level_is_the_smoothed_image_sliced(seed, factor):
    """A level's voxel j is the smoothed image's voxel factor * j on any lattice: no far-face
    voxel reads 0 because mapping it through world mm lands a rounding error outside."""
    rng = np.random.default_rng(seed)
    vol = VolumeGrid(1.0 + rng.random((29, 31, 33)), _oblique(rng, rng.uniform(0.5, 2.0, 3)))
    level = register._downsample(vol, factor)
    want = gaussian_filter(vol.data, factor / 2.0, mode="nearest")[::factor, ::factor, ::factor]
    assert level.data.shape == want.shape and np.array_equal(level.data, want)
    assert level.data.min() > 0
    assert np.array_equal(level.geometry.affine[:3, :3], vol.geometry.affine[:3, :3] * factor)
    assert np.array_equal(level.geometry.affine[:3, 3], vol.geometry.affine[:3, 3])


@pytest.mark.parametrize("seed", range(3))
def test_demons_moves_psi_to_the_next_level_by_index(base, seed):
    """On an oblique lattice, shrink (2, 1) with no steps at the finer level returns the
    (2,)-only psi read at j / 2: the coarse psi reaches every voxel inside its box."""
    fixed, moving = _demons_pair(base, 1)
    aff = _oblique(np.random.default_rng(seed), (1.0, 1.2, 0.9))
    fixed, moving = VolumeGrid(fixed.data, aff), VolumeGrid(moving.data, aff)
    coarse = register_deformable(fixed, moving, RegConfig((2,), (1,), (4,)))
    fine = register_deformable(fixed, moving, RegConfig((2, 1), (1, 1), (4, 0)))
    want = coarse._sample_index(_voxel_indices(fixed.geometry.dims) / 2.0).reshape(fixed.geometry.dims + (3,))
    assert np.array_equal(fine.disp, want)
    box = tuple(slice(0, 2 * d - 1) for d in coarse.geometry.dims)  # the fine voxels at or inside the coarse box
    assert sq_norms(coarse.disp).min() > 0 and sq_norms(fine.disp[box]).min() > 0


def test_demons_scores_one_force_per_step(base, monkeypatch):
    """On a pair that never yields a zero force, a call evaluates exactly
    sum(deform_iters) forces: no step is retried or skipped."""
    fixed, moving = _demons_pair(base, 2)
    config = RegConfig(shrink_factors=(4, 2), linear_iters=(1, 1), deform_iters=(7, 5))
    calls = []
    force = register._lncc_force

    def spy(*args):
        calls.append(args[0])
        return force(*args)

    monkeypatch.setattr(register, "_lncc_force", spy)
    register_deformable(fixed, moving, config)
    assert len(calls) == sum(config.deform_iters)
    per_level = {}
    for terms in calls:
        per_level[id(terms)] = per_level.get(id(terms), 0) + 1
    assert list(per_level.values()) == [7, 5]


def test_demons_builds_each_level_grid_once(base, monkeypatch):
    """Over the (4, 2, 1) pyramid, no lattice builds its voxel-center grid twice,
    however many iterations its level runs."""
    fixed, moving = _demons_pair(base, 2)
    built, scored = [], []
    voxel_centers, force = Geometry._voxel_centers, register._lncc_force

    def build_spy(geometry):
        built.append(geometry)
        return voxel_centers(geometry)

    def force_spy(*args):
        scored.append(args[0])
        return force(*args)

    monkeypatch.setattr(Geometry, "_voxel_centers", build_spy)
    monkeypatch.setattr(register, "_lncc_force", force_spy)
    register_deformable(fixed, moving, RegConfig())
    assert len({id(terms) for terms in scored}) == 3 and len(scored) == sum(RegConfig().deform_iters)
    assert len({id(g) for g in built}) == len(built)
