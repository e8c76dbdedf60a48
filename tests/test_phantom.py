"""Synthetic phantom, random diffeomorphisms, and derived atlas libraries."""

import numpy as np
import pytest

from atlasfuse import phantom
from atlasfuse.errors import GeometryMismatch, JacobianViolation, OverlappingNuclei
from atlasfuse.grid import Geometry, LabelVolume, VolumeGrid
from atlasfuse.phantom import (
    Nucleus,
    PhantomSpec,
    WarpSpec,
    default_nuclei,
    derive_atlases,
    generate_phantom,
    make_subject,
    random_diffeo,
)


def test_generate_phantom_deterministic():
    t1a, la = generate_phantom(PhantomSpec(seed=5, noise_sigma=0.02))
    t1b, lb = generate_phantom(PhantomSpec(seed=5, noise_sigma=0.02))
    assert np.array_equal(t1a.data, t1b.data)
    assert np.array_equal(la.data, lb.data)


def test_phantom_piecewise_constant_value_count():
    t1, _ = generate_phantom()
    # outside-head zero + surround + 12 nucleus T1 values
    assert len(np.unique(t1.data)) == 14


def test_phantom_default_structure_sizes():
    _, truth = generate_phantom()
    counts = {c: int((truth.data == c).sum()) for c in np.unique(truth.data) if c != 0}
    assert len(counts) == 24
    big = [c for c, n in counts.items() if n >= 500]
    small = [c for c, n in counts.items() if 50 <= n < 500]
    assert len(big) >= 6  # 3 structures per hemisphere
    assert len(big) + len(small) == 24


def test_phantom_sphere_volume_analytic():
    spec = PhantomSpec(nuclei=[Nucleus(1, (32.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1450.0)])
    _, truth = generate_phantom(spec)
    count = int((truth.data == 1).sum())
    analytic = 4.0 / 3.0 * np.pi * 5.0**3
    assert abs(count - analytic) / analytic < 0.02


def test_phantom_nucleus_t1_values():
    t1, truth = generate_phantom()
    for nuc in default_nuclei():
        vals = np.unique(t1.data[truth.data == nuc.code])
        assert vals.size == 1 and vals[0] == nuc.t1_ms


def _reference_phantom(spec):
    """generate_phantom with each nucleus tested against every voxel of the lattice."""
    nuclei = spec.nuclei or default_nuclei()
    geom = Geometry(phantom._DIMS, np.eye(4))
    world = geom.grid_world()

    t1 = np.zeros(geom.dims)
    labels = np.zeros(geom.dims, dtype=np.int32)
    head = (((world - (np.array(geom.dims) - 1) / 2.0) / phantom._HEAD_SEMI_AXES_MM) ** 2).sum(axis=1) <= 1.0
    t1.flat[head.nonzero()[0]] = phantom._SURROUND_T1_MS

    hi = np.array(geom.dims, dtype=float) - 1
    for nuc in nuclei:
        c = np.asarray(nuc.center_mm, dtype=float)
        a = np.asarray(nuc.semi_axes_mm, dtype=float)
        if np.any(c - a < 0) or np.any(c + a > hi):
            raise GeometryMismatch(f"nucleus {nuc.code} ellipsoid exceeds the grid")
        mask = ((((world - c) / a) ** 2).sum(axis=1) <= 1.0).reshape(geom.dims)
        if np.any(labels[mask] != 0):
            raise OverlappingNuclei(f"nucleus {nuc.code} intersects another nucleus")
        labels[mask] = nuc.code
        t1[mask] = nuc.t1_ms

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        t1 = np.clip(t1 + rng.standard_normal(t1.shape) * spec.noise_sigma * float(np.ptp(t1)), 0.0, None)
    return VolumeGrid(t1, geom.affine), LabelVolume(labels, geom.affine)


@pytest.mark.parametrize(
    "spec",
    [
        PhantomSpec(),
        PhantomSpec(seed=5, noise_sigma=0.02),
        # extents that touch the lattice exactly: c - a = 0 and c + a = d - 1
        PhantomSpec(nuclei=[Nucleus(1, (31.5, 31.5, 31.5), (31.5, 31.5, 31.5), 1450.0)]),
        PhantomSpec(
            nuclei=[
                Nucleus(1, (5.0, 6.0, 7.0), (5.0, 6.0, 7.0), 1450.0),
                Nucleus(2, (58.0, 57.0, 56.0), (5.0, 6.0, 7.0), 1500.0),
            ]
        ),
        # non-integer centre and semi-axes
        PhantomSpec(nuclei=[Nucleus(3, (20.3, 33.7, 41.15), (4.7, 6.15, 3.3), 1550.0)]),
        # a semi-axis enters squared: a negative one draws like its magnitude
        PhantomSpec(nuclei=[Nucleus(4, (30.0, 31.0, 32.0), (-4.5, 3.0, 5.0), 1600.0)]),
        # bounding boxes that overlap around ellipsoids that do not
        PhantomSpec(
            nuclei=[
                Nucleus(1, (20.0, 20.0, 32.0), (5.0, 5.0, 5.0), 1450.0),
                Nucleus(2, (28.0, 28.0, 32.0), (5.0, 5.0, 5.0), 1500.0),
            ]
        ),
    ],
)
def test_phantom_matches_the_whole_lattice_mask_loop(spec):
    t1, labels = generate_phantom(spec)
    want_t1, want_labels = _reference_phantom(spec)
    assert np.array_equal(t1.data, want_t1.data)
    assert np.array_equal(labels.data, want_labels.data)


@pytest.mark.parametrize(
    "nuclei, error",
    [
        # one shared voxel, at x = 25 on both surfaces
        ([Nucleus(1, (20.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1450.0), Nucleus(2, (30.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1500.0)],
         OverlappingNuclei),
        ([Nucleus(1, (4.999, 32.0, 32.0), (5.0, 5.0, 5.0), 1450.0)], GeometryMismatch),
        ([Nucleus(1, (32.0, 32.0, 58.001), (5.0, 5.0, 5.0), 1450.0)], GeometryMismatch),
    ],
)
def test_phantom_rejects_what_the_whole_lattice_mask_loop_rejects(nuclei, error):
    with pytest.raises(error):
        _reference_phantom(PhantomSpec(nuclei=nuclei))
    with pytest.raises(error):
        generate_phantom(PhantomSpec(nuclei=nuclei))


def test_overlapping_nuclei_rejected():
    spec = PhantomSpec(
        nuclei=[
            Nucleus(1, (32.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1450.0),
            Nucleus(2, (34.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1500.0),
        ]
    )
    with pytest.raises(OverlappingNuclei):
        generate_phantom(spec)


def test_nucleus_outside_grid_rejected():
    spec = PhantomSpec(nuclei=[Nucleus(1, (2.0, 32.0, 32.0), (5.0, 5.0, 5.0), 1450.0)])
    with pytest.raises(GeometryMismatch):
        generate_phantom(spec)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_specs_reject_non_finite_or_negative_amplitudes(value):
    with pytest.raises(ValueError, match="noise_sigma"):
        PhantomSpec(noise_sigma=value)
    with pytest.raises(ValueError, match="max_displacement_mm"):
        WarpSpec(max_displacement_mm=value)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_specs_reject_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        PhantomSpec(seed=seed)
    with pytest.raises(ValueError, match="seed"):
        WarpSpec(seed=seed)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_derived_images_reject_non_finite_or_negative_noise(base, value):
    wmn, truth, _ = base
    with pytest.raises(ValueError, match="noise_sigma"):
        derive_atlases((wmn, truth), n=1, noise_sigma=value)
    with pytest.raises(ValueError, match="noise_sigma"):
        make_subject((wmn, truth), noise_sigma=value)


def test_random_diffeo_contract():
    geom = Geometry((48, 48, 48), np.eye(4))
    f1 = random_diffeo(WarpSpec(seed=9), geom)
    f2 = random_diffeo(WarpSpec(seed=9), geom)
    assert np.array_equal(f1.disp, f2.disp)
    assert f1.max_norm() == pytest.approx(3.0, abs=1e-9)
    assert float(f1.jacobian_determinants().min()) > 0.05
    zero = random_diffeo(WarpSpec(seed=9, max_displacement_mm=0.0), geom)
    assert np.all(zero.disp == 0.0)


def test_random_diffeo_vanishes_at_boundary():
    geom = Geometry((48, 48, 48), np.eye(4))
    f = random_diffeo(WarpSpec(seed=10), geom)
    for a in range(3):
        sl = [slice(None)] * 3
        for edge in (0, -1):
            sl[a] = edge
            assert np.all(f.disp[tuple(sl)] == 0.0)


def test_random_diffeo_infeasible_spec_rejected():
    geom = Geometry((32, 32, 32), np.eye(4))
    with pytest.raises(JacobianViolation):
        random_diffeo(WarpSpec(seed=0, max_displacement_mm=10.0, smoothness_mm=1.0), geom)


def test_derive_atlases_contract(base):
    wmn, truth, _ = base
    lib = derive_atlases((wmn, truth), n=3, seed=1)
    assert len(lib.priors) == 3
    base_codes = set(np.unique(truth.data))
    for p in lib.priors:
        assert set(np.unique(p.labels.data)) <= base_codes
        assert p.warp_to_template is not None
        # cached warp undoes the prior's deformation: labels come back to base
        from atlasfuse.grid import resample

        back = resample(p.labels, truth.geometry, p.warp_to_template)
        agree = np.mean(back.data == truth.data)
        assert agree > 0.97


def test_derive_atlases_n1_zero_warp_prior_equals_base(base):
    wmn, truth, _ = base
    lib = derive_atlases(
        (wmn, truth), n=1, seed=0, warp_spec=WarpSpec(max_displacement_mm=0.0), noise_sigma=0.0
    )
    p = lib.priors[0]
    assert np.allclose(p.intensity.data, wmn.data, atol=1e-9)
    assert np.array_equal(p.labels.data, truth.data)
    assert np.allclose(lib.template.data, wmn.data, atol=1e-9)


def test_derive_atlases_requires_positive_n(base):
    wmn, truth, _ = base
    with pytest.raises(GeometryMismatch):
        derive_atlases((wmn, truth), n=0)


def test_make_subject_deterministic_and_consistent(base):
    wmn, truth, _ = base
    s1 = make_subject((wmn, truth), warp_spec=WarpSpec(seed=77))
    s2 = make_subject((wmn, truth), warp_spec=WarpSpec(seed=77))
    assert np.array_equal(s1[0].data, s2[0].data)
    assert np.array_equal(s1[1].data, s2[1].data)
    assert np.array_equal(s1[2].disp, s2[2].disp)
    # warping the subject's truth labels back by the stored field recovers base labels
    from atlasfuse.grid import resample

    back = resample(s1[1], truth.geometry, s1[2])
    assert np.mean(back.data == truth.data) > 0.97


def test_library_save_load_roundtrip(tmp_path, base):
    from atlasfuse.library import AtlasLibrary

    wmn, truth, _ = base
    lib = derive_atlases((wmn, truth), n=2, seed=3)
    lib.save(str(tmp_path / "lib"))
    back = AtlasLibrary.load(str(tmp_path / "lib"))
    assert back.crop_box.lo == lib.crop_box.lo and back.crop_box.hi == lib.crop_box.hi
    assert back.scheme == lib.scheme
    assert [p.id for p in back.priors] == [p.id for p in lib.priors]
    for a, b in zip(lib.priors, back.priors):
        assert np.array_equal(b.labels.data, a.labels.data)
        assert np.allclose(b.intensity.data, a.intensity.data, atol=1e-6)
        assert np.allclose(b.warp_to_template.disp, a.warp_to_template.disp, atol=1e-6)
