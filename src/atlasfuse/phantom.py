"""Deterministic synthetic data: T1 phantoms with known ellipsoidal nuclei,
guaranteed-diffeomorphic random warps, and derived atlas libraries.

Everything is seeded; identical specs produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import JacobianViolation, OverlappingNuclei, GeometryMismatch
from .grid import DeformationField, Geometry, LabelVolume, VolumeGrid, _is_int, default_scheme, label_bounding_box, sq_norms
from .library import AtlasLibrary, AtlasPrior
from .register import _smooth_field, invert_field
from . import grid as _grid
from .synth import synthesize_wmn


@dataclass
class Nucleus:
    code: int
    center_mm: tuple
    semi_axes_mm: tuple
    t1_ms: float


@dataclass
class PhantomSpec:
    seed: int = 0
    nuclei: list = field(default_factory=list)  # empty -> default bilateral set
    noise_sigma: float = 0.0  # fraction of the T1 range

    def __post_init__(self):
        _check_seed(self.seed)
        _check_amplitude("noise_sigma", self.noise_sigma)


@dataclass
class WarpSpec:
    seed: int = 0
    max_displacement_mm: float = 3.0
    smoothness_mm: float = 6.0
    edge_taper_voxels: int = 8  # displacements fade to 0 at the lattice boundary

    def __post_init__(self):
        _check_seed(self.seed)
        _check_amplitude("max_displacement_mm", self.max_displacement_mm)


def _check_seed(value):
    if not (_is_int(value) and value >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {value!r}")


def _check_amplitude(name, value):
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


# every phantom lies on one 64^3 lattice at 1 mm, inside an ellipsoidal head
_DIMS = (64, 64, 64)
_HEAD_SEMI_AXES_MM = (24.0, 30.0, 26.0)
_SURROUND_T1_MS = 1082.0  # near the 750 ms null point
_MIN_JACOBIAN = 0.05  # a random warp's least Jacobian determinant must exceed this
_CROP_MARGIN = 5  # voxels around the labels in a derived library's crop box

# default bilateral layout: 12 ellipsoids per side on a 4x3 grid of slots
_DEFAULT_SEMI_AXES = {
    1: (6.0, 5.0, 5.0),
    2: (6.0, 5.0, 4.5),
    3: (5.5, 5.0, 4.5),
    4: (4.0, 3.5, 3.5),
    5: (4.0, 4.0, 3.5),
    6: (3.0, 3.0, 3.0),
    7: (3.0, 3.0, 2.5),
    8: (2.8, 2.8, 2.5),
    9: (2.8, 2.5, 2.5),
    10: (2.5, 2.5, 2.5),
    11: (2.5, 2.5, 2.2),
    12: (2.5, 2.3, 2.3),
}
_SLOT_Y = (14.0, 25.0, 36.0, 47.0)
_SLOT_Z = (16.0, 30.0, 44.0)
_X_RIGHT, _X_LEFT = 19.0, 44.0


def default_nuclei() -> list:
    out = []
    for code, axes in _DEFAULT_SEMI_AXES.items():
        y = _SLOT_Y[(code - 1) // 3]
        z = _SLOT_Z[(code - 1) % 3]
        t1 = 1400.0 + 50.0 * code
        out.append(Nucleus(code, (_X_RIGHT, y, z), axes, t1))
        out.append(Nucleus(code + 100, (_X_LEFT, y, z), axes, t1))
    return out


def generate_phantom(spec: PhantomSpec | None = None):
    """Build (t1_map, truth_labels); deterministic for a given seed."""
    spec = spec or PhantomSpec()
    nuclei = spec.nuclei or default_nuclei()
    geom = Geometry(_DIMS, np.eye(4))  # index = world mm
    world = geom.grid_world().reshape(geom.dims + (3,))

    t1 = np.zeros(geom.dims)
    labels = np.zeros(geom.dims, dtype=np.int32)
    head = sq_norms((world - (np.array(geom.dims) - 1) / 2.0) / _HEAD_SEMI_AXES_MM) <= 1.0
    t1[head] = _SURROUND_T1_MS

    hi = np.array(geom.dims, dtype=float) - 1
    for nuc in nuclei:
        c = np.asarray(nuc.center_mm, dtype=float)
        a = np.asarray(nuc.semi_axes_mm, dtype=float)
        if np.any(c - a < 0) or np.any(c + a > hi):
            raise GeometryMismatch(f"nucleus {nuc.code} ellipsoid exceeds the grid")
        # the ellipsoid test runs on the nucleus's bounding box only, one voxel
        # wider on each side so that rounding at |x - c| = a drops no voxel;
        # a semi-axis enters squared, so its sign does not matter
        r = np.abs(a)
        lo = np.maximum(np.floor(c - r).astype(int) - 1, 0)
        up = np.minimum(np.ceil(c + r).astype(int) + 1, hi.astype(int))
        box = tuple(slice(l, u + 1) for l, u in zip(lo, up))
        mask = sq_norms((world[box] - c) / a) <= 1.0
        if np.any(labels[box][mask] != 0):
            raise OverlappingNuclei(f"nucleus {nuc.code} intersects another nucleus")
        labels[box][mask] = nuc.code
        t1[box][mask] = nuc.t1_ms

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        rng_range = float(np.ptp(t1))
        t1 = t1 + rng.standard_normal(t1.shape) * spec.noise_sigma * rng_range
        t1 = np.clip(t1, 0.0, None)

    return VolumeGrid(t1, geom.affine), LabelVolume(labels, geom.affine)


def random_diffeo(spec: WarpSpec, geometry: Geometry) -> DeformationField:
    """Smooth seeded random field with verified positive Jacobians."""
    if spec.max_displacement_mm == 0:
        return DeformationField.zero(geometry)
    rng = np.random.default_rng(spec.seed)
    raw = _smooth_field(rng.standard_normal(geometry.dims + (3,)), spec.smoothness_mm / geometry.spacing)
    if spec.edge_taper_voxels > 0:
        # zero displacement at the boundary keeps the warp self-contained:
        # composition and fixed-point inversion never sample outside the lattice
        t = spec.edge_taper_voxels
        w = np.ones(geometry.dims)
        for ax, n in enumerate(geometry.dims):
            edge = np.minimum(np.arange(n), n - 1 - np.arange(n)) / max(t, 1)
            ramp = np.clip(edge, 0.0, 1.0)
            ramp = ramp * ramp * (3.0 - 2.0 * ramp)  # smoothstep
            shape = [1, 1, 1]
            shape[ax] = n
            w = w * ramp.reshape(shape)
        raw = raw * w[..., None]
    peak = float(np.sqrt(sq_norms(raw).max()))
    if peak <= 0:
        return DeformationField.zero(geometry)
    field = DeformationField(geometry, raw * (spec.max_displacement_mm / peak))
    min_det = float(field.jacobian_determinants().min())
    if min_det <= _MIN_JACOBIAN:
        raise JacobianViolation(
            f"min Jacobian {min_det:.4f} <= {_MIN_JACOBIAN}; "
            "reduce max displacement or increase smoothness"
        )
    return field


def _warped_copy(base, spec: WarpSpec, noise_sigma: float, noise_seed: int):
    """Base pulled through the inverse of random_diffeo(spec), with scan noise.

    Returns (intensity, labels, fwd). The noise is Gaussian with sigma
    noise_sigma times the warped intensity's range, drawn from noise_seed.
    """
    _check_amplitude("noise_sigma", noise_sigma)
    intensity, labels = base
    geom = intensity.geometry
    fwd = random_diffeo(spec, geom)
    inv = invert_field(fwd)
    wint = _grid.resample(intensity, geom, inv)
    wlab = _grid.resample(labels, geom, inv)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        span = float(np.ptp(wint.data))
        wint = wint.with_data(wint.data + rng.standard_normal(wint.data.shape) * noise_sigma * span)
    return wint, wlab, fwd


def derive_atlases(
    base,
    n: int = 5,
    seed: int = 0,
    warp_spec: WarpSpec | None = None,
    noise_sigma: float = 0.01,
) -> AtlasLibrary:
    """Phantom-scale atlas library: n warped copies of a labeled base volume.

    Each prior is the base pulled through the inverse of a seeded random
    diffeomorphism; that diffeomorphism itself is kept as the prior's
    ground-truth warp-to-template, so warping the prior labels by the cached
    field recovers the base labels. The template is the voxel-wise mean of
    the priors warped back onto the base grid.
    """
    if n < 1:
        raise GeometryMismatch("need n >= 1 priors")
    intensity, labels = base
    template_spec = warp_spec or WarpSpec()
    priors = []
    back_warped = []
    for i in range(n):
        ws = replace(template_spec, seed=seed * 10007 + i)
        pint, plab, fwd = _warped_copy(base, ws, noise_sigma, ws.seed + 500009)
        priors.append(AtlasPrior(id=f"prior{i:02d}", intensity=pint, labels=plab, warp_to_template=fwd))
        back_warped.append(_grid.resample(pint, intensity.geometry, fwd).data)
    template = intensity.with_data(np.mean(back_warped, axis=0))
    box = label_bounding_box(labels, margin=_CROP_MARGIN)
    return AtlasLibrary(template=template, crop_box=box, scheme=default_scheme(), priors=priors)


def make_subject(base, warp_spec: WarpSpec | None = None, noise_sigma: float = 0.01):
    """Held-out subject: (intensity, truth_labels, truth_warp_to_subject).

    warp_spec's seed draws the warp, and the scan noise from that seed plus
    700001. The returned field lives on the base grid and maps base/template
    points into subject space, matching the cached prior-warp convention.
    """
    ws = warp_spec or WarpSpec()
    return _warped_copy(base, ws, noise_sigma, ws.seed + 700001)


def synthesized_base(spec: PhantomSpec | None = None):
    """Convenience: phantom T1 map plus its synthesized WMn intensity image."""
    t1_map, truth = generate_phantom(spec)
    wmn = synthesize_wmn(t1_map)
    return wmn, truth, t1_map
