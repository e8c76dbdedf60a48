"""Acceptance suite: nine numbered criteria, one printed verdict line each.

Every test prints "CRITERION <n> (<topic>): PASS|FAIL" so the full run gives
a one-line-per-criterion summary. Tolerances and runtime budgets are pinned
in the assertions.
"""

import hashlib
import time
from collections import Counter

import numpy as np
import pytest

from atlasfuse.fusion import JlfParams, jlf_weights, joint_label_fusion, majority_vote
from atlasfuse.grid import (
    Geometry,
    LabelVolume,
    VolumeGrid,
    crop,
    label_bounding_box,
    resample,
)
from atlasfuse.metrics import (
    bonferroni_threshold,
    centroid_distance,
    dice,
    nucleus_volume,
    student_t_sf_two_sided,
    vsi,
)
from atlasfuse.phantom import WarpSpec, derive_atlases, make_subject, random_diffeo
from atlasfuse.pipeline import run_segment
from atlasfuse.register import (
    AffineTransform,
    DeformationField,
    RegConfig,
    compose_fields,
    invert_field,
    register_affine,
    register_deformable,
    register_rigid,
    warp_labels,
)
from atlasfuse.synth import SynthesisParams, null_point_t1, synthesize_wmn


def _verdict(n, topic, ok):
    print(f"CRITERION {n} ({topic}): {'PASS' if ok else 'FAIL'}")


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_criterion_1_synthesis_null_point():
    t0 = time.perf_counter()
    null_t1 = null_point_t1(750.0)
    vol = VolumeGrid(np.full((1, 1, 1), null_t1), np.eye(4))
    at_null = abs(float(synthesize_wmn(vol, SynthesisParams(ti_ms=750.0)).data[0, 0, 0]))

    rng = np.random.default_rng(0)
    lo = 200.0 + 3600.0 * rng.random(10_000)
    hi = lo + 1.0 + 500.0 * rng.random(10_000)
    params = SynthesisParams(ti_ms=750.0, signed=True)
    s_lo = synthesize_wmn(VolumeGrid(lo.reshape(100, 100, 1), np.eye(4)), params).data
    s_hi = synthesize_wmn(VolumeGrid(hi.reshape(100, 100, 1), np.eye(4)), params).data
    monotone = bool(np.all(s_lo > s_hi))
    elapsed = time.perf_counter() - t0

    ok = at_null < 1e-9 and monotone and elapsed < 1.0
    _verdict(1, "synthesis null point and monotonicity", ok)
    assert at_null < 1e-9
    assert monotone
    assert elapsed < 1.0


def test_criterion_2_metric_oracle_equivalence():
    t0 = time.perf_counter()
    aff = np.diag([0.8, 1.1, 0.9, 1.0])
    aff[:3, 3] = (-3.0, 2.0, 5.0)
    voxvol = 0.8 * 1.1 * 0.9
    rng = np.random.default_rng(1)
    worst = {"count": 0, "dist": 0.0}
    for _ in range(100):
        da = rng.integers(0, 4, size=(16, 16, 16), dtype=np.int32)
        db = rng.integers(0, 4, size=(16, 16, 16), dtype=np.int32)
        la, lb = LabelVolume(da, aff), LabelVolume(db, aff)
        # independent oracle: plain Python counting over flat voxel lists
        fa, fb = da.ravel().tolist(), db.ravel().tolist()
        ca, cb = Counter(fa), Counter(fb)
        inter = Counter(x for x, y in zip(fa, fb) if x == y)
        sums_a = {c: np.zeros(3) for c in (1, 2, 3)}
        sums_b = {c: np.zeros(3) for c in (1, 2, 3)}
        idx = 0
        for i in range(16):
            for j in range(16):
                for k in range(16):
                    if fa[idx] in sums_a:
                        sums_a[fa[idx]] += (i, j, k)
                    if fb[idx] in sums_b:
                        sums_b[fb[idx]] += (i, j, k)
                    idx += 1
        for code in (1, 2, 3):
            na, nb, ni = ca[code], cb[code], inter[code]
            want_dice = 1.0 if na + nb == 0 else 2.0 * ni / (na + nb)
            want_vsi = 1.0 if na + nb == 0 else 1.0 - abs(na - nb) / (na + nb)
            worst["count"] = max(worst["count"], abs(dice(la, lb, code) - want_dice))
            worst["count"] = max(worst["count"], abs(vsi(la, lb, code) - want_vsi))
            worst["count"] = max(
                worst["count"], abs(nucleus_volume(la, code) - na * voxvol)
            )
            if na and nb:
                pa = aff[:3, :3] @ (sums_a[code] / na) + aff[:3, 3]
                pb = aff[:3, :3] @ (sums_b[code] / nb) + aff[:3, 3]
                want = float(np.linalg.norm(pa - pb))
                worst["dist"] = max(
                    worst["dist"], abs(centroid_distance(la, lb, code) - want)
                )
    elapsed = time.perf_counter() - t0
    ok = worst["count"] < 1e-9 and worst["dist"] < 1e-9 and elapsed < 10.0
    _verdict(2, "metric oracle equivalence", ok)
    assert worst["count"] < 1e-9
    assert worst["dist"] < 1e-9
    assert elapsed < 10.0


def test_criterion_3_fusion_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    data = rng.integers(0, 5, size=(10, 10, 10), dtype=np.int32)
    intensity = VolumeGrid(rng.standard_normal((10, 10, 10)), np.eye(4))
    labs = [LabelVolume(data, np.eye(4)) for _ in range(5)]
    ints = [intensity.with_data(intensity.data) for _ in range(5)]
    mv = majority_vote(labs)
    jlf = joint_label_fusion(intensity, ints, labs)
    identical_ok = np.array_equal(mv.data, data) and np.array_equal(jlf.data, data)

    w1 = jlf_weights([[1.0, 0.0], [0.0, 1.0]], beta=2.0, absolute_epsilon=1e-6)
    w2 = jlf_weights([[1.0, 1.0], [0.0, 0.0]], beta=2.0, absolute_epsilon=1e-6)
    hand_ok = np.allclose(w1, [0.5, 0.5], atol=1e-6) and w2[1] > 0.99
    elapsed = time.perf_counter() - t0
    ok = identical_ok and hand_ok and elapsed < 5.0
    _verdict(3, "fusion identities", ok)
    assert identical_ok
    assert hand_ok
    assert elapsed < 5.0


def test_criterion_4_field_algebra():
    t0 = time.perf_counter()
    geom16 = Geometry((16, 16, 16), np.eye(4))
    c = np.array([1.5, -0.75, 2.0])
    disp = np.broadcast_to(c, geom16.dims + (3,)).copy()
    f_const = DeformationField(geom16, disp)
    inv_const = invert_field(f_const)
    const_invert_ok = np.array_equal(inv_const.disp, np.broadcast_to(-c, disp.shape))
    res_const = compose_fields(f_const, inv_const).disp[4:12, 4:12, 4:12]
    const_compose_ok = bool(np.all(res_const == 0.0))

    geom = Geometry((64, 64, 64), np.eye(4))
    worst_residual = 0.0
    min_jac = np.inf
    for seed in range(8):
        f = random_diffeo(
            WarpSpec(seed=seed, smoothness_mm=12.0, edge_taper_voxels=20), geom
        )
        min_jac = min(min_jac, float(f.jacobian_determinants().min()))
        res = compose_fields(f, invert_field(f))
        worst_residual = max(
            worst_residual, float(np.sqrt((res.disp**2).sum(axis=-1)).max())
        )
    elapsed = time.perf_counter() - t0
    ok = (
        const_invert_ok
        and const_compose_ok
        and worst_residual < 0.05
        and min_jac > 0.0
        and elapsed < 30.0
    )
    _verdict(4, "displacement field algebra", ok)
    assert const_invert_ok
    assert const_compose_ok
    assert worst_residual < 0.05, f"worst compose residual {worst_residual:.4f} mm"
    assert min_jac > 0.0
    assert elapsed < 30.0


def test_criterion_5_registration_recovery(base):
    t0 = time.perf_counter()
    wmn, truth, _ = base
    center = wmn.geometry.index_to_world(np.array([(31.5, 31.5, 31.5)]))[0]

    # translation: moving(x) = fixed(C x) with C a 3 mm shift; recover C^-1
    c_mat = np.eye(4)
    c_mat[:3, 3] = (3.0, 0.0, 0.0)
    c = AffineTransform(c_mat)
    moving = resample(wmn, wmn.geometry, c)
    t = register_rigid(wmn, moving)
    trans_err = float(np.linalg.norm(t.matrix[:3, 3] - c.inverse().matrix[:3, 3]))

    # rotation: 5 degrees about the z axis through the volume center
    ang = np.radians(5.0)
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]
    rot[:3, 3] = center - rot[:3, :3] @ center
    c_rot = AffineTransform(rot)
    moving = resample(wmn, wmn.geometry, c_rot)
    t = register_rigid(wmn, moving)
    resid = (t.matrix @ c_rot.matrix)[:3, :3]
    rot_err = float(
        np.degrees(np.arccos(np.clip((np.trace(resid) - 1.0) / 2.0, -1.0, 1.0)))
    )

    # isotropic scale x1.1 about the center; recover 1/1.1 within 1 percent
    sc = np.eye(4)
    sc[:3, :3] *= 1.1
    sc[:3, 3] = center - sc[:3, :3] @ center
    c_sc = AffineTransform(sc)
    moving = resample(wmn, wmn.geometry, c_sc)
    t = register_affine(wmn, moving)
    scale_err = abs(float(np.cbrt(np.linalg.det(t.matrix[:3, :3]))) * 1.1 - 1.0)

    # deformable: recover a 4 mm max smooth warp well enough for Dice >= 0.90
    w = random_diffeo(WarpSpec(seed=21, max_displacement_mm=4.0), wmn.geometry)
    subj_int = resample(wmn, wmn.geometry, w)
    subj_truth = resample(truth, truth.geometry, w)
    box = label_bounding_box(subj_truth, margin=5)
    fixed = crop(subj_int, box)
    g = register_deformable(fixed, crop(wmn, box), RegConfig())
    warped = warp_labels(truth, g, fixed.geometry)
    truth_crop = crop(subj_truth, box)
    codes = [c for c in np.unique(truth_crop.data) if c != 0]
    worst_dice = min(
        dice(warped, truth_crop, int(code))
        for code in codes
        if int((truth_crop.data == code).sum()) >= 500
    )
    elapsed = time.perf_counter() - t0
    ok = (
        trans_err < 0.2
        and rot_err < 0.5
        and scale_err < 0.01
        and worst_dice >= 0.90
        and elapsed < 120.0
    )
    _verdict(5, "registration recovery", ok)
    assert trans_err < 0.2, f"translation error {trans_err:.3f} mm"
    assert rot_err < 0.5, f"rotation error {rot_err:.3f} deg"
    assert scale_err < 0.01, f"scale error {scale_err:.4f}"
    assert worst_dice >= 0.90, f"worst big-structure dice {worst_dice:.3f}"
    assert elapsed < 120.0


def test_criterion_6_end_to_end_pipeline(segment_run, atlas_env):
    from atlasfuse import imgio

    seg = imgio.read_volume(segment_run["segmentation"], as_labels=True)
    truth = atlas_env["subject_truth"]
    failures = []
    for code in (int(c) for c in np.unique(truth.data) if c != 0):
        n = int((truth.data == code).sum())
        d, v = dice(seg, truth, code), vsi(seg, truth, code)
        cd = centroid_distance(seg, truth, code)
        if n >= 500 and (d < 0.85 or v < 0.90):
            failures.append((code, n, d, v, cd))
        if 50 <= n < 500 and d < 0.60:
            failures.append((code, n, d, v, cd))
        if cd > 1.0:
            failures.append((code, n, d, v, cd))
    elapsed = atlas_env["build_seconds"] + segment_run["seconds"]
    ok = not failures and elapsed < 300.0
    _verdict(6, "end-to-end pipeline accuracy", ok)
    assert not failures, f"tier violations: {failures}"
    assert elapsed < 300.0


def test_criterion_7_ablation_ordering(tmp_path_factory, base):
    from atlasfuse import imgio

    wmn, truth, _ = base
    root = tmp_path_factory.mktemp("ablation")
    lib = derive_atlases(
        (wmn, truth),
        n=7,
        seed=7,
        warp_spec=WarpSpec(max_displacement_mm=2.0, smoothness_mm=12.0, edge_taper_voxels=20),
    )
    lib.save(str(root / "atlas"))
    subj_int, subj_truth, subj_warp = make_subject(
        (wmn, truth),
        warp_spec=WarpSpec(
            seed=4242, max_displacement_mm=5.0, smoothness_mm=12.0, edge_taper_voxels=20
        ),
        noise_sigma=0.05,
    )
    inp = str(root / "subject.nii.gz")
    warp_path = str(root / "subject_warp.nii.gz")
    imgio.write_volume(subj_int, inp)
    imgio.write_field(subj_warp, warp_path)
    cfg = RegConfig(deform_iters=(20, 10, 5))
    kwargs = dict(mode="wmn", fusion="jlf", reg_config=cfg)
    out_perf = run_segment(inp, str(root / "atlas"), str(root / "perf"), true_warp_path=warp_path, **kwargs)
    out_reg = run_segment(inp, str(root / "atlas"), str(root / "reg"), **kwargs)
    seg_perf = imgio.read_volume(out_perf["segmentation"], as_labels=True)
    seg_reg = imgio.read_volume(out_reg["segmentation"], as_labels=True)
    violations = []
    margins = {}  # code -> perfect minus registered Dice, in voxels
    for code in (int(c) for c in np.unique(subj_truth.data) if c != 0):
        dp = dice(seg_perf, subj_truth, code)
        dr = dice(seg_reg, subj_truth, code)
        # one voxel of overlap moves Dice by 2 / (|A| + |B|)
        sizes = int((seg_reg.data == code).sum()) + int((subj_truth.data == code).sum())
        margins[code] = (dp - dr) * sizes / 2
        if dp < dr:
            violations.append((code, dp, dr, f"{margins[code]:+.2f} voxels"))
    tightest = min(margins, key=margins.get)

    # corrupted-atlas experiment: one truth-matched atlas, one shifted atlas
    rng = np.random.default_rng(7)
    small = np.zeros((12, 12, 12), dtype=np.int32)
    small[4:8, 4:8, 4:8] = 3
    target = VolumeGrid(
        np.where(small > 0, 2.0, 0.5) + 0.05 * rng.standard_normal((12, 12, 12)), np.eye(4)
    )
    good = (target.with_data(target.data), LabelVolume(small, np.eye(4)))
    bad = (
        VolumeGrid(np.roll(target.data, 3, axis=0), np.eye(4)),
        LabelVolume(np.roll(small, 3, axis=0), np.eye(4)),
    )
    ints, labs = [good[0], bad[0]], [good[1], bad[1]]
    truth_small = LabelVolume(small, np.eye(4))
    params = JlfParams(patch_radius=1, search_radius=1)
    d_jlf = dice(joint_label_fusion(target, ints, labs, params), truth_small, 3)
    d_mv = dice(majority_vote(labs), truth_small, 3)

    ok = not violations and d_jlf > d_mv
    _verdict(7, f"ablation ordering; smallest JLF margin {margins[tightest]:+.2f} voxels, code {tightest}", ok)
    assert not violations, f"perfect-warp < registered for codes {violations}"
    assert d_jlf > d_mv, f"jlf {d_jlf:.3f} vs mv {d_mv:.3f}"


def test_criterion_8_statistics_oracle():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for dof in range(2, 31):
            for t in (0.25, 0.5, 1.0, 1.7, 2.18, 3.5, 6.0):
                x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
                want = float(
                    mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf("0.5"), 0, x, regularized=True)
                )
                got = student_t_sf_two_sided(t, dof)
                worst = max(worst, abs(got - want))
    thr_ok = bonferroni_threshold(13) == 0.05 / 13
    ok = worst < 1e-9 and thr_ok
    _verdict(8, "paired statistics oracle", ok)
    assert worst < 1e-9, f"worst p-value deviation {worst:.2e}"
    assert thr_ok


def test_criterion_9_reproducibility(segment_run, atlas_env, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("repro") / "jlf"
    res = run_segment(
        atlas_env["subject"],
        atlas_env["atlas"],
        str(out_dir),
        mode="wmn",
        fusion="jlf",
        n_workers=4,
    )
    same = all(
        _sha(res[key]) == _sha(segment_run[key])
        for key in ("segmentation", "volumes", "manifest")
    )
    _verdict(9, "bit-identical reproducibility", same)
    assert same
