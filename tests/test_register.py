"""Transforms, displacement-field algebra, and registration behavior."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, map_coordinates

from atlasfuse import register
from atlasfuse.errors import (
    DegenerateInput,
    InversionDiverged,
    NoOverlap,
    NonInvertibleTransform,
)
from atlasfuse.grid import Geometry, LabelVolume, VolumeGrid, crop, label_bounding_box, resample
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
    field_from_affine,
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


def test_affine_inverse_and_compose():
    rng = np.random.default_rng(0)
    m = np.eye(4)
    m[:3, :3] += 0.1 * rng.standard_normal((3, 3))
    m[:3, 3] = rng.standard_normal(3)
    a = AffineTransform(m)
    pts = rng.standard_normal((20, 3))
    assert np.allclose(a.inverse().map_points(a.map_points(pts)), pts, atol=1e-9)
    b = _translation((1.0, 2.0, 3.0))
    assert np.allclose(a.compose(b).map_points(pts), a.map_points(b.map_points(pts)), atol=1e-9)


# --- DeformationField basics ---


def test_field_shape_must_match_geometry():
    with pytest.raises(NonInvertibleTransform):
        DeformationField(GEOM16, np.zeros((8, 8, 8, 3)))


def test_field_rejects_non_finite():
    disp = np.zeros(GEOM16.dims + (3,))
    disp[0, 0, 0, 0] = np.nan
    with pytest.raises(NonInvertibleTransform):
        DeformationField(GEOM16, disp)


def test_field_from_affine_and_resample_exact_on_lattice():
    t = _translation((1.25, -0.5, 2.0))
    f = field_from_affine(t, GEOM16)
    assert np.allclose(f.disp, (1.25, -0.5, 2.0), atol=1e-12)
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


@pytest.mark.parametrize("max_iter", [0, -1])
def test_invert_rejects_no_iterations(max_iter):
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        invert_field(DeformationField.zero(GEOM16), max_iter=max_iter)


def _expansive_field():
    geom = Geometry((32, 32, 32), np.eye(4))
    ii = np.indices(geom.dims).transpose(1, 2, 3, 0).astype(float)
    disp = np.zeros(geom.dims + (3,))
    disp[..., 0] = 1.1 * (ii[..., 0] - 15.5)  # expansive map, fixed point repels
    return DeformationField(geom, disp)


def test_inversion_divergence_detected():
    with pytest.raises(InversionDiverged):
        invert_field(_expansive_field())


def test_jacobian_of_affine_field_matches_determinant():
    m = np.eye(4)
    m[:3, :3] = np.diag([1.1, 0.9, 1.05])
    f = field_from_affine(AffineTransform(m), GEOM16)
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


def test_no_overlap_rejected():
    rng = np.random.default_rng(8)
    a = VolumeGrid(rng.standard_normal((8, 8, 8)), np.eye(4))
    far = np.eye(4)
    far[:3, 3] = (500.0, 0.0, 0.0)
    b = VolumeGrid(rng.standard_normal((8, 8, 8)), far)
    with pytest.raises(NoOverlap):
        register_rigid(a, b)


def test_deformable_self_registration_small(base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    fixed = crop(wmn, box)
    f = register_deformable(fixed, fixed, AffineTransform.identity(), RegConfig())
    assert f.max_norm() < 0.2  # voxels == mm here
    assert f.positive_jacobian_fraction() == 1.0


def test_deformable_zero_iterations_returns_affine_init(base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=5)
    fixed = crop(wmn, box)
    init = _translation((0.8, -0.3, 0.4))
    cfg = RegConfig(deform_iters=(0, 0, 0))
    f = register_deformable(fixed, fixed, init, cfg)
    expect = field_from_affine(init, fixed.geometry)
    assert np.array_equal(f.disp, expect.disp)


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


def _reference_invert(field, tol_mm=0.01, max_iter=50):
    """The inversion loop that samples the field twice per iteration.

    The residual is the maximum over the voxels whose x + g lies in the lattice.
    """
    pts = field.geometry.grid_world()
    g = np.zeros_like(pts)
    best = None
    best_res = np.inf
    grow = 0
    prev_res = np.inf
    for _ in range(max_iter):
        g = -field.sample_disp(pts + g)
        inside = _in_lattice(field.geometry, pts + g)
        if not inside.any():
            raise InversionDiverged("no voxel's inverse lies inside the lattice")
        res = float(np.linalg.norm((field.sample_disp(pts + g) + g)[inside], axis=1).max())
        if res < best_res:
            best, best_res = g.copy(), res
        if res < tol_mm:
            break
        if res > prev_res * (1.0 + 1e-9):
            grow += 1
            if grow >= 5:
                raise InversionDiverged(f"residual grew for 5 iterations ({res:.4g} mm)")
        else:
            grow = 0
        prev_res = res
    return best.reshape(field.disp.shape), best_res, best_res < tol_mm


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
    "case, max_iter",
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
def test_invert_matches_two_sample_loop(case, max_iter):
    field = _oracle_field(case)
    want_disp, want_res, want_conv = _reference_invert(field, max_iter=max_iter)
    counted = _CountingField(field.geometry, field.disp)
    got = invert_field(counted, max_iter=max_iter)
    assert np.array_equal(got.disp, want_disp)
    assert got.residual_mm == want_res
    assert got.converged == want_conv
    # one field sample per iteration, plus the first; fewer if it converged
    assert counted.samples == max_iter + 1 or got.converged
    if max_iter == 50:
        assert got.converged


def test_invert_divergence_matches_two_sample_loop():
    field = _expansive_field()
    with pytest.raises(InversionDiverged) as want:
        _reference_invert(field)
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
        _reference_invert(field)
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
    minv = np.linalg.inv(cost.moving.affine)
    src = cost.pts @ transform.matrix[:3, :3].T + transform.matrix[:3, 3]
    idx = src @ minv[:3, :3].T + minv[:3, 3]
    return idx, np.all((idx >= 0) & (idx <= np.array(cost.moving.dims, dtype=float) - 1), axis=1)


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
    joint = np.bincount(cost.fbin * ncols + mbin, minlength=cost.bins * ncols).reshape(
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mi_cost_matches_gather_reference(seed):
    fixed, moving = _mi_pair(seed)
    cost = _MiCost(fixed, moving, 32, 50000)
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
            assert cost(t) == _reference_mi(cost, t)
    # a moving image that covers the fixed one gives the full-overlap case
    big = VolumeGrid(gaussian_filter(rng.standard_normal((30, 30, 30)), 2.0), np.eye(4))
    big_cost = _MiCost(fixed, big, 32, 50000)
    for _ in range(8):
        p = np.r_[rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.05, 0.05, 3)]
        t = AffineTransform(_params_to_matrix(p, center, 6))
        full += 1
        assert big_cost(t) == _reference_mi(big_cost, t)
    assert partial and empty and full
    far = AffineTransform(_params_to_matrix(np.r_[100.0, 0, 0, 0, 0, 0], center, 6))
    assert cost(far) == _reference_mi(cost, far) == 1.0


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
        mi = _MiCost(fixed, moving, 32, 50000)
        center = fixed.geometry.grid_world().mean(axis=0)

        def cost(q):
            return mi(AffineTransform(_params_to_matrix(q, center, 6)))

        steps = np.r_[np.ones(3), np.full(3, 0.08)]
        mins = np.r_[np.full(3, 0.02), np.full(3, 5e-4)]
        args = (np.zeros(6), steps, mins, 40)
    plain = _CountingCost(cost)
    want_p, want_f = _reference_descent(plain, *args)
    counted = _CountingCost(cost)
    got_p, got_f = _coordinate_descent(counted, *args)
    assert np.array_equal(got_p, want_p)
    assert got_f == want_f
    assert len(counted.seen) == len(set(counted.seen))
    # the unmemoized loop does repeat trials here, so the memo is exercised
    assert len(set(plain.seen)) == len(counted.seen) < len(plain.seen)


# --- demons loop against a plain fixed-step loop ---


def _reference_lncc_force(fixed_data, warped_data, radius, ainv3):
    """_lncc_force computing the fixed image's terms on every call."""
    f = fixed_data - register._local_sums(fixed_data, radius)
    m = warped_data - register._local_sums(warped_data, radius)
    a = register._local_sums(f * m, radius)
    b = register._local_sums(f * f, radius)
    c = register._local_sums(m * m, radius)
    denom = b * c
    scale = float(np.ptp(fixed_data))
    eps = max((1e-3 * scale) ** 4, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(denom > eps, 2.0 * a / denom, 0.0)
        corr = np.where(c > np.sqrt(eps), a / c, 0.0)
    resid = coef * (f - corr * m)
    gvox = np.stack(np.gradient(warped_data, axis=(0, 1, 2)), axis=-1)
    return resid[..., None] * (gvox @ ainv3)


def _reference_demons(fixed, moving, init, config, levels):
    """register_deformable's loop: deform_iters one-voxel steps per level.

    Appends each pyramid level's exit to levels: "iters" once it has taken
    all its steps, "zero" on a zero force.
    """
    field = None
    for factor, iters in zip(config.shrink_factors, config.deform_iters):
        f_l = register._downsample(fixed, factor)
        m_l = register._downsample(moving, factor)
        geom = f_l.geometry
        field = field_from_affine(init, geom) if field is None else resample_field(field, geom)
        ainv3 = np.linalg.inv(geom.affine[:3, :3])
        pts = geom.grid_world()
        step = register._STEP_LENGTH * float(np.min(geom.spacing))
        stop = "iters"
        for _ in range(iters):
            warped = m_l.sample(pts + field.disp.reshape(-1, 3)).reshape(geom.dims)
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


# case: (warp seed or None for moving = fixed, init translation, shrink factors,
# demons iterations, the exit each level must take)
DEMONS_CASES = {
    "iters": (1, (0.4, -0.3, 0.2), (4, 2), (8, 6), ["iters", "iters"]),
    "zero-force": (None, (0.0, 0.0, 0.0), (2, 1), (20, 20), ["zero", "zero"]),
}


@pytest.mark.parametrize("case", DEMONS_CASES)
def test_demons_matches_reference_loop(base, case):
    seed, shift, shrink, iters, exits = DEMONS_CASES[case]
    fixed, moving = _demons_pair(base, seed)
    config = RegConfig(shrink_factors=shrink, linear_iters=(1,) * len(shrink), deform_iters=iters)
    levels = []
    want = _reference_demons(fixed, moving, _translation(shift), config, levels)
    got = register_deformable(fixed, moving, _translation(shift), config)
    assert np.array_equal(got.disp, want)
    assert levels == exits


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
    register_deformable(fixed, moving, AffineTransform.identity(), config)
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
    register_deformable(fixed, moving, AffineTransform.identity(), RegConfig())
    assert len({id(terms) for terms in scored}) == 3 and len(scored) == sum(RegConfig().deform_iters)
    assert len({id(g) for g in built}) == len(built)
