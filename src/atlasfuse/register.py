"""Rigid/affine/deformable registration and displacement-field algebra.

All transforms map fixed-image world coordinates into moving-image world
coordinates (pull-back), so they can be handed directly to grid.resample.
Deformation fields live on the fixed-image lattice and store mm
displacements; the mapped point is x + u(x).

Rigid/affine stages optimize 32-bin mutual information with a
coordinate-wise adaptive-step search over a shrink pyramid. The deformable
stage is single-direction diffeomorphic-demons-style iteration driven by
local normalized cross-correlation forces, with Gaussian regularization of
both the update and the accumulated field: each pyramid level takes a fixed
number of steps whose peak is one voxel (Vercauteren et al., NeuroImage 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates, uniform_filter

from .errors import (
    DegenerateInput,
    FoldingDetected,
    InversionDiverged,
    NoOverlap,
    NonInvertibleTransform,
)
from .grid import Geometry, LabelVolume, VolumeGrid, _is_int, _linear_parts, _map, resample


class AffineTransform:
    """Homogeneous world->world transform; matrix is a read-only copy of the one passed in."""

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.shape != (4, 4):
            raise NonInvertibleTransform("transform matrix must be 4x4")
        if not np.allclose(self.matrix[3], [0, 0, 0, 1], atol=1e-12):
            raise NonInvertibleTransform("last row must be (0,0,0,1)")
        if abs(np.linalg.det(self.matrix[:3, :3])) < 1e-12:
            raise NonInvertibleTransform("singular transform")
        self.matrix.flags.writeable = False
        self._parts = _linear_parts(self.matrix)

    @classmethod
    def identity(cls):
        return cls(np.eye(4))

    def map_points(self, pts):
        return _map(pts, self._parts)

    def inverse(self):
        return AffineTransform(np.linalg.inv(self.matrix))

    def compose(self, other):
        """self after other: (self @ other)(x) = self(other(x))."""
        return AffineTransform(self.matrix @ other.matrix)


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

    def map_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts + self.sample_disp(pts)

    def max_norm(self) -> float:
        return float(np.sqrt((self.disp**2).sum(axis=-1)).max())

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


def field_from_affine(transform: AffineTransform, geometry: Geometry) -> DeformationField:
    pts = geometry.grid_world()
    disp = (transform.map_points(pts) - pts).reshape(geometry.dims + (3,))
    return DeformationField(geometry, disp)


def resample_field(field: DeformationField, geometry: Geometry) -> DeformationField:
    disp = field.sample_disp(geometry.grid_world()).reshape(geometry.dims + (3,))
    return DeformationField(geometry, disp)


def compose_fields(outer: DeformationField, inner: DeformationField) -> DeformationField:
    """result(x) = inner(x + outer(x)) + outer(x), on outer's lattice."""
    pts = outer.geometry.grid_world()
    d_out = outer.disp.reshape(-1, 3)
    d_in = inner.sample_disp(pts + d_out)
    return DeformationField(outer.geometry, (d_out + d_in).reshape(outer.disp.shape))


_INVERT_TOL_MM = 0.01  # an inverse converges once its residual is below this


def invert_field(field: DeformationField, max_iter=50) -> DeformationField:
    """Fixed-point inversion g <- -f(x + g(x)); residual is max |f(x+g)+g|.

    The sample h = f(x + g_k) that measures g_k's residual is also the next
    iterate, g_{k+1} = -h (Chen et al., "A simple fixed-point approach to
    invert a deformation field", Med. Phys. 2008), so each iteration samples
    the field once: max_iter + 1 samples in all. The residual is taken only
    over voxels whose x + g lies inside the field's lattice, where f is
    defined: elsewhere f reads 0 and no iterate can improve the voxel. An
    iterate with no voxel inside raises InversionDiverged. The result carries
    the best iterate's ``residual_mm`` and whether it is below
    _INVERT_TOL_MM, ``converged``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    geom = field.geometry
    pts = geom.grid_world()
    h = field.sample_disp(pts)
    best = None
    best_res = np.inf
    grow = 0
    prev_res = np.inf
    for _ in range(max_iter):
        g = -h
        idx = geom.world_to_index(pts + g)
        h = field._sample_index(idx)
        inside = geom.contains_index(idx)
        if not inside.any():
            raise InversionDiverged("no voxel's inverse lies inside the lattice")
        res = float(np.linalg.norm(h + g, axis=1)[inside].max())
        if res < best_res:
            best, best_res = g, res
        if res < _INVERT_TOL_MM:
            break
        if res > prev_res * (1.0 + 1e-9):
            grow += 1
            if grow >= 5:
                raise InversionDiverged(f"residual grew for 5 iterations ({res:.4g} mm)")
        else:
            grow = 0
        prev_res = res
    out = DeformationField(geom, best.reshape(field.disp.shape))
    out.residual_mm = best_res
    out.converged = best_res < _INVERT_TOL_MM
    return out


def warp_labels(labels: LabelVolume, transform, target_geometry: Geometry) -> LabelVolume:
    return resample(labels, target_geometry, transform)


# The fixed registration recipe; only the pyramid is configurable (RegConfig).
_MI_BINS = 32
_MAX_METRIC_SAMPLES = 50000
_CC_RADIUS = 2  # LNCC window half-width, voxels
_SIGMA_UPDATE = 1.0  # smoothing of each demons update, voxels
_SIGMA_TOTAL = 0.5  # smoothing of the accumulated field, voxels
_STEP_LENGTH = 1.0  # peak demons update, voxels
_JACOBIAN_THRESHOLD = 0.999  # least positive-Jacobian fraction of a deformable result


@dataclass
class RegConfig:
    shrink_factors: tuple = (4, 2, 1)
    linear_iters: tuple = (100, 75, 50)  # max coordinate-descent sweeps per level
    deform_iters: tuple = (12, 10, 8)  # demons steps per level, exact unless a force is zero

    def __post_init__(self):
        for name in ("shrink_factors", "linear_iters", "deform_iters"):
            levels = tuple(getattr(self, name))
            if not all(_is_int(v) for v in levels):
                raise ValueError(f"{name} must hold integers, got {levels}")
            setattr(self, name, tuple(int(v) for v in levels))
        if len(self.shrink_factors) < 1:
            raise ValueError("need at least one pyramid level")
        if min(self.shrink_factors) < 1:
            raise ValueError(f"shrink_factors must be >= 1, got {self.shrink_factors}")
        for name in ("linear_iters", "deform_iters"):
            iters = getattr(self, name)
            if len(iters) != len(self.shrink_factors):
                raise ValueError(f"{name} needs one entry per shrink factor, got {iters}")
            if min(iters) < 0:
                raise ValueError(f"{name} must be >= 0, got {iters}")


# --- pyramid ---


def _downsample(vol: VolumeGrid, factor: int) -> VolumeGrid:
    if factor == 1:
        return vol
    sm = gaussian_filter(vol.data, sigma=factor / 2.0, mode="nearest")
    dims = tuple(max(1, int(np.ceil(d / factor))) for d in vol.dims)
    affine = vol.affine.copy()
    affine[:3, :3] *= factor
    geom = Geometry(dims, affine)
    return resample(vol.with_data(sm), geom)


# --- mutual information ---


class _MiCost:
    """-MI(fixed, moving o T) on a fixed set of sample points."""

    # constant sub-voxel sample offset: interpolating the fixed image too keeps
    # the metric free of the grid-aligned MI inflation artifact
    _JITTER = np.array([0.37, 0.62, 0.41])

    def __init__(self, fixed: VolumeGrid, moving: VolumeGrid, bins, max_samples):
        self.bins = bins
        dims = fixed.geometry.dims
        ii, jj, kk = np.meshgrid(
            np.arange(dims[0] - 1), np.arange(dims[1] - 1), np.arange(dims[2] - 1),
            indexing="ij",
        )
        idx = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3) + self._JITTER
        if idx.shape[0] > max_samples:
            stride = int(np.ceil(idx.shape[0] / max_samples))
            idx = idx[::stride]
        pts = fixed.geometry.index_to_world(idx)
        fvals = map_coordinates(fixed.data, idx.T, order=1, mode="nearest")
        self.pts = pts
        # shared bin edges: identical intensities must land in identical bins,
        # otherwise exact alignment is not the metric optimum
        self.vmin = float(min(fixed.data.min(), moving.data.min()))
        self.vrange = max(
            float(max(fixed.data.max(), moving.data.max())) - self.vmin, 1e-30
        )
        self.fbin = np.clip(
            ((fvals - self.vmin) / self.vrange * bins).astype(np.int64), 0, bins - 1
        )
        self.moving = moving

    def __call__(self, transform: AffineTransform) -> float:
        idx = self.moving.geometry.world_to_index(transform.map_points(self.pts))
        valid = self.moving.geometry.contains_index(idx)
        if np.count_nonzero(valid) < 100:
            return 1.0  # no usable overlap; any real -MI is <= 0
        # every point is interpolated (each value depends on its own point
        # only), then out-of-bounds samples go to a dedicated moving bin so
        # shrinking the overlap cannot masquerade as higher dependence
        mvals = map_coordinates(self.moving.data, idx.T, order=1, mode="nearest")
        ncols = self.bins + 1
        mbin = np.clip(
            ((mvals - self.vmin) / self.vrange * self.bins).astype(np.int64), 0, self.bins - 1
        )
        mbin[~valid] = self.bins
        joint = np.bincount(
            self.fbin * ncols + mbin, minlength=self.bins * ncols
        ).reshape(self.bins, ncols)
        p = joint / joint.sum()
        px = p.sum(axis=1, keepdims=True)
        py = p.sum(axis=0, keepdims=True)
        nz = p > 0
        mi = float(np.sum(p[nz] * np.log(p[nz] / (px @ py)[nz])))
        return -mi


# --- linear parameterization ---

# the coordinate search stops refining a parameter once its step would move
# no voxel center of the level's fixed lattice by more than this many voxels
_MIN_STEP_VOXELS = 0.05


def _params_to_matrix(p, center, n_params):
    tx, ty, tz, rx, ry, rz = p[:6]
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rmx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rmy = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rmz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    lin = rmz @ rmy @ rmx
    if n_params == 12:
        scale = np.diag(p[6:9])
        shear = np.array([[1, p[9], p[10]], [0, 1, p[11]], [0, 0, 1]])
        lin = lin @ scale @ shear
    m = np.eye(4)
    m[:3, :3] = lin
    m[:3, 3] = center - lin @ center + p[:3]
    return m


def _coordinate_descent(cost, p0, steps, min_steps, max_sweeps):
    """Adaptive-step coordinate search minimizing cost; returns (p, f).

    Each sweep tries p +/- steps[k] per coordinate, takes the first strict
    improvement and grows that step; a sweep without one halves every step.
    The search ends once every step is below its minimum, or after max_sweeps.
    Costs are memoized by the trial vector's bytes for the length of one call:
    a coordinate whose step and base point did not change since the previous
    sweep would otherwise re-evaluate the same candidates.
    """
    seen = {}

    def cached(q):
        key = q.tobytes()
        if key not in seen:
            seen[key] = cost(q)
        return seen[key]

    p = np.asarray(p0, dtype=float).copy()
    steps = np.asarray(steps, dtype=float).copy()
    f = cached(p)
    for _ in range(max_sweeps):
        improved = False
        for k in range(len(p)):
            for sign in (1.0, -1.0):
                cand = p.copy()
                cand[k] += sign * steps[k]
                fc = cached(cand)
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


def _check_linear_inputs(fixed, moving):
    for name, vol in (("fixed", fixed), ("moving", moving)):
        if not np.isfinite(vol.data).all():
            raise DegenerateInput(f"{name} image has non-finite intensities")
        if vol.data.size == 0 or np.ptp(vol.data) == 0:
            raise DegenerateInput(f"{name} image has constant intensity")
    flo, fhi = fixed.geometry.world_bounds()
    mlo, mhi = moving.geometry.world_bounds()
    if np.any(flo > mhi) or np.any(mlo > fhi):
        raise NoOverlap("fixed and moving world bounding boxes are disjoint")


def _min_steps(geometry, center, n_params):
    """Per-parameter steps that move no voxel center by more than _MIN_STEP_VOXELS.

    The voxel is the lattice's largest edge. A translation moves every point
    by its step; a rotation, scale or shear step d moves a point at distance r
    from center by at most d * r, to first order, and the voxel center
    farthest from center is a lattice corner.
    """
    tol_mm = _MIN_STEP_VOXELS * float(np.max(geometry.spacing))
    radius = float(np.linalg.norm(geometry.world_corners() - center, axis=1).max())
    min_steps = np.full(n_params, tol_mm / radius)
    min_steps[:3] = tol_mm
    return min_steps


def _register_linear(fixed, moving, config, n_params, p0=None):
    """(transform, parameter vector) of an n_params-dof MI registration."""
    _check_linear_inputs(fixed, moving)
    center = fixed.geometry.grid_world().mean(axis=0)
    p = np.zeros(n_params)
    if n_params == 12:
        p[6:9] = 1.0
    if p0 is not None:
        p[: len(p0)] = p0
    for factor, sweeps in zip(config.shrink_factors, config.linear_iters):
        f_l = _downsample(fixed, factor)
        m_l = _downsample(moving, factor)
        cost = _MiCost(f_l, m_l, _MI_BINS, _MAX_METRIC_SAMPLES)
        steps = np.empty(n_params)
        steps[:3] = float(np.max(f_l.spacing))
        steps[3:6] = 0.04 * factor
        if n_params == 12:
            steps[6:9] = 0.03 * factor
            steps[9:12] = 0.02 * factor
        p, _ = _coordinate_descent(
            lambda q: cost(AffineTransform(_params_to_matrix(q, center, n_params))),
            p,
            steps,
            _min_steps(f_l.geometry, center, n_params),
            sweeps,
        )
    return AffineTransform(_params_to_matrix(p, center, n_params)), p


def register_rigid(fixed: VolumeGrid, moving: VolumeGrid, config: RegConfig | None = None):
    """6-dof rigid registration maximizing mutual information."""
    config = config or RegConfig()
    return _register_linear(fixed, moving, config, 6)[0]


def register_affine(fixed: VolumeGrid, moving: VolumeGrid):
    """12-dof affine registration under the default RegConfig, seeded with the rigid stage's parameters."""
    config = RegConfig()
    _, rigid_p = _register_linear(fixed, moving, config, 6)
    return _register_linear(fixed, moving, config, 12, p0=rigid_p)[0]


# --- deformable (LNCC demons) ---


def _local_sums(arr, radius):
    return uniform_filter(arr, size=2 * radius + 1, mode="nearest")


def _lncc_force(fixed_terms, warped_data, radius, ainv3):
    """Ascent direction of local normalized cross-correlation w.r.t. displacement.

    fixed_terms is (f, b, eps) of the fixed image, which depend only on the
    pyramid level: f its deviation from the local mean, b the local sum of
    f * f and eps the denominator floor, (1e-3 * ptp) ** 4.
    """
    f, b, eps = fixed_terms
    m = warped_data - _local_sums(warped_data, radius)
    a = _local_sums(f * m, radius)
    c = _local_sums(m * m, radius)
    denom = b * c
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(denom > eps, 2.0 * a / denom, 0.0)
        corr = np.where(c > np.sqrt(eps), a / c, 0.0)
    resid = coef * (f - corr * m)
    gvox = np.stack(np.gradient(warped_data, axis=(0, 1, 2)), axis=-1)
    gworld = gvox @ ainv3  # d(warped)/d(world)
    return resid[..., None] * gworld


def _smooth_field(disp, sigma):
    """Each component of a (..., 3) field smoothed; sigma in voxels, scalar or per axis."""
    return gaussian_filter(disp, sigma=(*np.broadcast_to(sigma, 3), 0.0), mode="nearest")


def register_deformable(
    fixed: VolumeGrid,
    moving: VolumeGrid,
    init: AffineTransform | None = None,
    config: RegConfig | None = None,
) -> DeformationField:
    """Diffeomorphic-demons-style registration; returns field with init folded in.

    Each pyramid level composes exactly deform_iters updates, each scaled so
    its peak is one voxel, unless a zero force ends the level early.
    """
    config = config or RegConfig()
    init = init or AffineTransform.identity()
    _check_linear_inputs(fixed, moving)
    if sum(config.deform_iters) == 0:
        return field_from_affine(init, fixed.geometry)
    field = None
    for factor, iters in zip(config.shrink_factors, config.deform_iters):
        f_l = _downsample(fixed, factor)
        m_l = _downsample(moving, factor)
        geom = f_l.geometry
        pts = geom.grid_world()  # held for the level, so every user of the lattice shares it
        if field is None:
            field = field_from_affine(init, geom)
        else:
            field = resample_field(field, geom)
        ainv3 = np.linalg.inv(geom.affine[:3, :3])
        f = f_l.data - _local_sums(f_l.data, _CC_RADIUS)
        eps = max((1e-3 * float(np.ptp(f_l.data))) ** 4, 1e-30)
        fixed_terms = (f, _local_sums(f * f, _CC_RADIUS), eps)
        step = _STEP_LENGTH * float(np.min(geom.spacing))
        for _ in range(iters):
            warped = m_l.sample(pts + field.disp.reshape(-1, 3)).reshape(geom.dims)
            force = _lncc_force(fixed_terms, warped, _CC_RADIUS, ainv3)
            peak = float(np.linalg.norm(force, axis=-1).max())
            if peak <= 0:
                break
            update = _smooth_field(force * (step / peak), _SIGMA_UPDATE)
            field = compose_fields(DeformationField(geom, update), field)
            field = DeformationField(geom, _smooth_field(field.disp, _SIGMA_TOTAL))
    frac = field.positive_jacobian_fraction()
    if frac < _JACOBIAN_THRESHOLD:
        raise FoldingDetected(f"positive-Jacobian fraction {frac:.4f} below {_JACOBIAN_THRESHOLD}")
    return field
