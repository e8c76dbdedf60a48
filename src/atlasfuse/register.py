"""Rigid/affine/deformable registration and displacement-field algebra.

All transforms map fixed-image world coordinates into moving-image world
coordinates (pull-back), so they can be handed directly to grid.resample.
Deformation fields live on the fixed-image lattice and store mm
displacements; the mapped point is x + u(x).

Rigid/affine stages optimize 32-bin mutual information with a
coordinate-wise adaptive-step search over a shrink pyramid. Each level
scores the metric on at most 16 samples per joint-histogram cell, as
sample-based MI estimators size their sample set to the histogram (Mattes et
al., IEEE TMI 2003): above that, the fixed lattice's voxel samples are taken
at the least flat stride that fits. A trial maps the samples' fixed-lattice
indices into the moving lattice by one 3x4 product, and scipy's constant-mode
bounds mark the overlap. The deformable stage is single-direction
diffeomorphic-demons-style iteration driven by local normalized
cross-correlation forces, with Gaussian regularization of both the update
and the accumulated field: each pyramid level takes a fixed number of steps
whose peak is one voxel (Vercauteren et al., NeuroImage 2009).
Its map is x + psi(x): a rigid start lives in the moving image's header, as
ITK and ANTs place each image by its header (Avants et al. 2011).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import center_of_mass, gaussian_filter, map_coordinates, uniform_filter

from .errors import DegenerateInput, FoldingDetected, InversionDiverged
from .grid import AffineTransform, DeformationField, Geometry, LabelVolume, VolumeGrid, _is_int, resample, sq_norms


def resample_field(field: DeformationField, geometry: Geometry) -> DeformationField:
    """The map y -> y + field(y) on geometry's lattice: field read at its voxel centres."""
    return DeformationField(geometry, field.sample_disp(geometry.grid_world()).reshape(geometry.dims + (3,)))


def compose_fields(outer: DeformationField, inner: DeformationField) -> DeformationField:
    """result(x) = inner(x + outer(x)) + outer(x), on outer's lattice."""
    pts = outer.geometry.grid_world()
    d_out = outer.disp.reshape(-1, 3)
    d_in = inner.sample_disp(pts + d_out)
    return DeformationField(outer.geometry, (d_out + d_in).reshape(outer.disp.shape))


_INVERT_TOL_MM = 0.01  # an inverse converges once its residual is below this
_INVERT_FAIL_VOXELS = 2.0  # a best residual above this many voxels raises
_INVERT_ITERS = 50  # iterations before the best residual is judged


def invert_field(field: DeformationField) -> DeformationField:
    """Fixed-point inversion g <- -f(x + g(x)); residual is max |f(x+g)+g|.

    The sample h = f(x + g_k) that measures g_k's residual is also the next
    iterate, g_{k+1} = -h (Chen et al., "A simple fixed-point approach to
    invert a deformation field", Med. Phys. 2008), so each iteration samples
    the field once. The residual is taken only over voxels whose x + g lies
    inside the field's lattice, where f is defined. Outside it f reads 0, so a
    rim voxel's g flips between 0 and -f(x) and the residual can alternate
    with period 2 (0.526, 0.933, 0.238, 0.933 mm on a bench subject): the loop
    keeps its best iterate. It stops below _INVERT_TOL_MM or after
    _INVERT_ITERS iterations. An iterate with no voxel inside, or a best
    residual above _INVERT_FAIL_VOXELS times the largest spacing, raises
    InversionDiverged. The result carries the best ``residual_mm`` and
    whether it is below _INVERT_TOL_MM, ``converged``.
    """
    geom = field.geometry
    pts = geom.grid_world()
    h = field.sample_disp(pts)
    best = None
    best_res = np.inf
    for _ in range(_INVERT_ITERS):
        g = -h
        idx = geom.world_to_index(pts + g)
        h = field._sample_index(idx)
        inside = geom.contains_index(idx)
        if not inside.any():
            raise InversionDiverged("no voxel's inverse lies inside the lattice")
        res = float(np.sqrt(sq_norms(h + g)[inside].max()))
        if res < best_res:
            best, best_res = g, res
        if res < _INVERT_TOL_MM:
            break
    bound = _INVERT_FAIL_VOXELS * float(np.max(geom.spacing))
    if best_res > bound:
        raise InversionDiverged(f"best residual {best_res:.4g} mm is above {_INVERT_FAIL_VOXELS:g} voxels ({bound:.4g} mm)")
    out = DeformationField(geom, best.reshape(field.disp.shape))
    out.residual_mm = best_res
    out.converged = best_res < _INVERT_TOL_MM
    return out


def warp_labels(labels: LabelVolume, transform, target_geometry: Geometry) -> LabelVolume:
    return resample(labels, target_geometry, transform)


# The fixed registration recipe; only the pyramid is configurable (RegConfig).
_MI_BINS = 32
_MAX_METRIC_SAMPLES = 16 * _MI_BINS**2  # 16 samples per joint-histogram cell
# past this ratio of intensity ranges, each image is binned over its own min..max. Shared edges
# squeeze the smaller range into a few bins, and then MI is 0 for every trial. With shared edges,
# the 32^3-box subject (bench crop) under a (25, -15, 12) mm header shift segments to x11 (range
# ratios 10.9-11.5 over the three levels) and reads Dice 0 from x11.3 (11.2-11.8); the 64^3
# fixture segments to x15 (15.3-16.7) and reads Dice 0 at x20. Own edges meet criterion 6's tiers
# on the box from x0.001 to x1000, unmoved and shifted. Every bench pair lies within 1.05x
_MI_SHARED_RANGE_RATIO = 10.0
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
    """The image at one pyramid level, smoothed and sliced: its voxel j is the image's voxel factor * j
    (Burt & Adelson, IEEE TCOM 1983). An axis of one voxel leaves no gradient or MI sample there."""
    dims = tuple(int(np.ceil(d / factor)) for d in vol.geometry.dims)
    if min(dims) < 2:
        raise DegenerateInput(f"shrink factor {factor} leaves a {dims} lattice; each axis needs 2 voxels or more")
    if factor == 1:
        return vol
    smoothed = gaussian_filter(vol.data, sigma=factor / 2.0, mode="nearest")
    level = np.ascontiguousarray(smoothed[::factor, ::factor, ::factor])  # the copy frees the full-size image
    affine = vol.geometry.affine.copy()
    affine[:3, :3] *= factor
    return vol.with_data(level, Geometry(dims, affine))


# --- mutual information ---


class _MiCost:
    """-MI(fixed, moving o T) on a fixed set of fixed-lattice samples; a trial is T's 4x4 matrix.

    The samples are held as homogeneous fixed-lattice indices, so a trial maps
    them into the moving lattice by one 3x4 product, the top rows of
    inv(A_moving) T A_fixed, and interpolates there in scipy's constant mode:
    its NaN cval marks exactly the samples outside [0, d - 1] on some axis,
    Geometry.contains_index's rule, and inside it reads what nearest mode reads.
    vmin and vrange are the moving image's bin edges: the joint min..max, or its
    own past _MI_SHARED_RANGE_RATIO.
    """

    # constant sub-voxel sample offset: interpolating the fixed image too keeps
    # the metric free of the grid-aligned MI inflation artifact
    _JITTER = np.array([0.37, 0.62, 0.41])

    def __init__(self, fixed: VolumeGrid, moving: VolumeGrid):
        self.bins = bins = _MI_BINS
        # every step-th flat index of the (d - 1)^3 box, the least step that keeps at most _MAX_METRIC_SAMPLES
        shape = tuple(d - 1 for d in fixed.geometry.dims)
        n = int(np.prod(shape))
        step = -(-n // _MAX_METRIC_SAMPLES)
        idx = np.stack(np.unravel_index(np.arange(0, n, step), shape)) + self._JITTER[:, None]
        fvals = map_coordinates(fixed.data, idx, order=1, mode="nearest")
        self.idx = np.vstack([idx, np.ones(idx.shape[1])])  # (4, N)
        self.fixed_affine = fixed.geometry.affine
        self.moving_inv = np.linalg.inv(moving.geometry.affine)
        # shared bin edges while the ranges are within _MI_SHARED_RANGE_RATIO: identical
        # intensities must land in identical bins, otherwise exact alignment is not the metric optimum
        flo, fhi = float(fixed.data.min()), float(fixed.data.max())
        mlo, mhi = float(moving.data.min()), float(moving.data.max())
        spans = (fhi - flo, mhi - mlo)
        if max(spans) <= _MI_SHARED_RANGE_RATIO * min(spans):
            flo = mlo = min(flo, mlo)
            fhi = mhi = max(fhi, mhi)
        frange = max(fhi - flo, 1e-30)
        self.vmin, self.vrange = mlo, max(mhi - mlo, 1e-30)
        fbin = np.clip(((fvals - flo) / frange * bins).astype(np.int64), 0, bins - 1)
        self.frow = fbin * (bins + 1)  # each sample's row offset in the flat joint histogram
        self.moving = moving

    def moving_bins(self, matrix: np.ndarray) -> np.ndarray:
        """Each sample's moving-image bin under the 4x4 matrix; bins for a sample outside the lattice,
        so shrinking the overlap cannot masquerade as higher dependence."""
        m = self.moving_inv @ matrix @ self.fixed_affine
        mvals = map_coordinates(self.moving.data, m[:3] @ self.idx, order=1, mode="constant", cval=np.nan)
        outside = np.isnan(mvals)
        # clipped before the cast, which truncates, so NaN is never cast: the same bins as a cast then a clip
        scaled = np.clip((mvals - self.vmin) / self.vrange * self.bins, 0, self.bins - 1)
        scaled[outside] = self.bins
        return scaled.astype(np.int64)

    def __call__(self, matrix: np.ndarray) -> float:
        ncols = self.bins + 1
        joint = np.bincount(
            self.frow + self.moving_bins(matrix), minlength=self.bins * ncols
        ).reshape(self.bins, ncols)
        if joint[:, : self.bins].sum() < 100:
            return 1.0  # no usable overlap; any real -MI is <= 0
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


def _coordinate_descent(cost, starts, steps, min_steps, max_sweeps):
    """Adaptive-step coordinate search minimizing cost; returns (p, f).

    It begins at the first of starts with the least cost. Each sweep tries
    p +/- steps[k] per coordinate, takes the first strict improvement and grows
    that step; a sweep without one halves every step. The search ends once
    every step is below its minimum, or after max_sweeps. Costs, the starts'
    too, are memoized by the trial vector's bytes for the length of one call:
    a coordinate whose step and base point did not change since the previous
    sweep would otherwise re-evaluate the same candidates.
    """
    seen = {}

    def cached(q):
        key = q.tobytes()
        if key not in seen:
            seen[key] = cost(q)
        return seen[key]

    p = min((np.asarray(q, dtype=float) for q in starts), key=cached)
    f = cached(p)
    steps = np.asarray(steps, dtype=float).copy()
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


def _check_intensities(fixed, moving):
    """Finite, non-constant intensities in both images; where they lie in world space is the search's to find."""
    for name, vol in (("fixed", fixed), ("moving", moving)):
        if not np.isfinite(vol.data).all():
            raise DegenerateInput(f"{name} image has non-finite intensities")
        if vol.data.size == 0 or np.ptp(vol.data) == 0:
            raise DegenerateInput(f"{name} image has constant intensity")


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


def _centroid(vol):
    """World centroid of the intensity above the image's minimum."""
    return vol.geometry.index_to_world(np.array([center_of_mass(vol.data - vol.data.min())]))[0]


def _register_linear(fixed, moving, config, n_params, p0=None):
    """(transform, parameter vector) of an n_params-dof MI registration.

    Without p0 the coarsest level's search starts from translation 0 and the
    offset of the images' intensity centroids, as ANTs' [fixed,moving,1] start
    does, and descends from the better: from 0 alone a search past about 15 mm
    finds a false optimum.
    """
    _check_intensities(fixed, moving)
    center = fixed.geometry.index_to_world([np.subtract(fixed.geometry.dims, 1) / 2])[0]  # the lattice's centre
    p = np.zeros(n_params)
    if n_params == 12:
        p[6:9] = 1.0
    if p0 is not None:
        p[: len(p0)] = p0
        starts = [p]
    else:  # translation 0 first, so a tie keeps it
        starts = [p, np.r_[_centroid(moving) - _centroid(fixed), p[3:]]]
    for factor, sweeps in zip(config.shrink_factors, config.linear_iters):
        f_l = _downsample(fixed, factor)
        m_l = _downsample(moving, factor)
        mi = _MiCost(f_l, m_l)

        def cost(q):
            return mi(_params_to_matrix(q, center, n_params))

        steps = np.empty(n_params)
        steps[:3] = float(np.max(f_l.geometry.spacing))
        steps[3:6] = 0.04 * factor
        if n_params == 12:
            steps[6:9] = 0.03 * factor
            steps[9:12] = 0.02 * factor
        p, _ = _coordinate_descent(
            cost,
            starts,
            steps,
            _min_steps(f_l.geometry, center, n_params),
            sweeps,
        )
        starts = [p]
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


def _local_means(arr, radius):
    return uniform_filter(arr, size=2 * radius + 1, mode="nearest")


def _lncc_force(fixed_terms, warped_data, radius, ainv3):
    """Ascent direction of local normalized cross-correlation w.r.t. displacement.

    fixed_terms is (f, b, eps) of the fixed image, which depend only on the
    pyramid level: f its deviation from the local mean, b the local mean of
    f * f and eps the denominator floor, (1e-3 * ptp) ** 4.
    """
    f, b, eps = fixed_terms
    m = warped_data - _local_means(warped_data, radius)
    a = _local_means(f * m, radius)
    c = _local_means(m * m, radius)
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


def register_deformable(fixed: VolumeGrid, moving: VolumeGrid, config: RegConfig | None = None) -> DeformationField:
    """Diffeomorphic-demons-style registration; returns psi on the finest level's lattice,
    which is fixed's own only when the last shrink factor is 1 or every deform_iters is 0.

    The map is x + psi(x), each image placed by its header. psi starts at
    zero and each update composes into it alone. Each pyramid level composes
    exactly deform_iters updates, each scaled so its peak is one voxel, unless
    a zero force ends the level early. The Jacobian check reads psi.
    """
    config = config or RegConfig()
    _check_intensities(fixed, moving)
    if sum(config.deform_iters) == 0:
        return DeformationField.zero(fixed.geometry)
    field = prev = None
    for factor, iters in zip(config.shrink_factors, config.deform_iters):
        f_l = _downsample(fixed, factor)
        m_l = _downsample(moving, factor)
        geom = f_l.geometry
        pts = geom.grid_world()
        if field is None:
            field = DeformationField.zero(geom)
        else:  # by index, not through world mm, where an oblique far-face voxel can land past d - 1
            index = np.indices(geom.dims).reshape(3, -1).T * factor / prev  # integer product first
            field = DeformationField(geom, field._sample_index(index).reshape(geom.dims + (3,)))
        prev = factor
        ainv3 = np.linalg.inv(geom.affine[:3, :3])
        f = f_l.data - _local_means(f_l.data, _CC_RADIUS)
        eps = max((1e-3 * float(np.ptp(f_l.data))) ** 4, 1e-30)
        fixed_terms = (f, _local_means(f * f, _CC_RADIUS), eps)
        step = _STEP_LENGTH * float(np.min(geom.spacing))
        for _ in range(iters):
            warped = m_l.sample(pts + field.disp.reshape(-1, 3)).reshape(geom.dims)
            force = _lncc_force(fixed_terms, warped, _CC_RADIUS, ainv3)
            peak = float(np.sqrt(sq_norms(force).max()))
            if peak <= 0:
                break
            update = _smooth_field(force * (step / peak), _SIGMA_UPDATE)
            field = compose_fields(DeformationField(geom, update), field)
            field = DeformationField(geom, _smooth_field(field.disp, _SIGMA_TOTAL))
    frac = field.positive_jacobian_fraction()
    if frac < _JACOBIAN_THRESHOLD:
        raise FoldingDetected(f"positive-Jacobian fraction {frac:.4f} below {_JACOBIAN_THRESHOLD}")
    return field
