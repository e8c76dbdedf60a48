"""End-to-end workflow, output artifacts, and the command-line interface."""

import csv
import gzip
import hashlib
import json
import os
import shutil
import threading

import numpy as np
import pytest

from atlasfuse import cli, imgio, pipeline, register
from atlasfuse.cli import main
from atlasfuse.errors import FoldingDetected, UsageError
from atlasfuse.fusion import majority_vote
from atlasfuse.grid import (
    CropBox,
    Geometry,
    LabelVolume,
    VolumeGrid,
    crop,
    default_scheme,
    label_bounding_box,
    resample,
)
from atlasfuse.library import AtlasLibrary
from atlasfuse.metrics import centroid_distance, dice, vsi
from atlasfuse.phantom import WarpSpec, derive_atlases, make_subject, synthesized_base
from atlasfuse.pipeline import run_eval, run_segment, run_stats
from atlasfuse.register import RegConfig


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _tree_sha(root):
    """sha256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0" + _sha(full).encode())
    return h.hexdigest()


# --- run_segment ---


def test_segment_outputs_exist_and_manifest_is_self_describing(segment_run, atlas_env):
    for key in ("segmentation", "volumes", "manifest"):
        assert os.path.isfile(segment_run[key])
    man = json.load(open(segment_run["manifest"]))
    assert man["mode"] == "wmn" and man["fusion"] == "jlf"
    assert man["reg_config"] == {
        "shrink_factors": [4, 2, 1], "linear_iters": [100, 75, 50], "deform_iters": [12, 10, 8]
    }
    assert man["jlf_params"]["patch_radius"] == 2
    assert set(man["input_hashes"]) == {"input", "template"}
    assert man["input_hashes"]["input"] == _sha(atlas_env["subject"])
    assert man["notes"]["label_interpolation"] == "nearest"
    assert man["notes"]["computed_prior_warps"] == []  # every prior warp was cached


def test_manifest_holds_exactly_the_keys_a_config_may_hold(segment_run):
    """read_config accepts every top-level key run_segment writes, and no other."""
    assert sorted(json.load(open(segment_run["manifest"]))) == sorted(pipeline.MANIFEST_KEYS)


def test_segment_volumes_csv_matches_segmentation(segment_run):
    seg = imgio.read_volume(segment_run["segmentation"], as_labels=True)
    with open(segment_run["volumes"], newline="") as f:
        rows = {int(r["label_code"]): float(r["volume_mm3"]) for r in csv.DictReader(f)}
    scheme = default_scheme()
    assert rows[-1] == pytest.approx(float((seg.data > 0).sum()))
    for code in scheme.codes():
        assert rows[code] == pytest.approx(float((seg.data == code).sum()))


def test_segment_accuracy_on_held_out_subject(segment_run, atlas_env):
    seg = imgio.read_volume(segment_run["segmentation"], as_labels=True)
    truth = atlas_env["subject_truth"]
    counts = {c: int((truth.data == c).sum()) for c in default_scheme().codes()}
    for code, n in counts.items():
        d = dice(seg, truth, code)
        assert d >= (0.85 if n >= 500 else 0.60), f"code {code}: dice {d:.3f} (n={n})"


def test_self_segmentation_is_exact(tmp_path, base):
    """One zero-warp prior and the prior itself as input: output equals truth."""
    wmn, truth, _ = base
    lib = derive_atlases(
        (wmn, truth), n=1, seed=0, warp_spec=WarpSpec(max_displacement_mm=0.0), noise_sigma=0.0
    )
    lib.save(str(tmp_path / "atlas"))
    inp = str(tmp_path / "input.nii.gz")
    imgio.write_volume(wmn, inp)
    out = run_segment(inp, str(tmp_path / "atlas"), str(tmp_path / "out"), mode="wmn", fusion="mv")
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert np.array_equal(seg.data, truth.data)


def test_mp2uni_defaults_to_majority_voting(tmp_path, base):
    wmn, truth, _ = base
    lib = derive_atlases(
        (wmn, truth), n=1, seed=0, warp_spec=WarpSpec(max_displacement_mm=0.0), noise_sigma=0.0
    )
    lib.save(str(tmp_path / "atlas"))
    inp = str(tmp_path / "input.nii.gz")
    imgio.write_volume(wmn, inp)
    out = run_segment(inp, str(tmp_path / "atlas"), str(tmp_path / "out"), mode="mp2uni")
    assert json.load(open(out["manifest"]))["fusion"] == "mv"


def test_segment_atlas_order_independence(tmp_path, atlas_env):
    """Renaming prior directories (reversing sort order) changes nothing."""
    src = atlas_env["atlas"]
    dst = str(tmp_path / "atlas_renamed")
    shutil.copytree(src, dst)
    pdir = os.path.join(dst, "priors")
    ids = sorted(os.listdir(pdir))
    for pid, new in zip(ids, [f"z{n}" for n in range(len(ids) - 1, -1, -1)]):
        os.rename(os.path.join(pdir, pid), os.path.join(pdir, new))
    kwargs = dict(mode="wmn", fusion="mv", true_warp_path=atlas_env["subject_warp"])
    out_a = run_segment(atlas_env["subject"], src, str(tmp_path / "a"), **kwargs)
    out_b = run_segment(atlas_env["subject"], dst, str(tmp_path / "b"), **kwargs)
    assert _sha(out_a["segmentation"]) == _sha(out_b["segmentation"])


@pytest.fixture(scope="module")
def warp_free(tmp_path_factory, base):
    """A 2-prior library with no cached warps on a 32^3 box, a subject, and its true warp."""
    wmn, truth, _ = base
    root = tmp_path_factory.mktemp("warp_free")
    box = CropBox((3, 1, 7), (34, 32, 38))  # a 32^3 box holding right-side nuclei 1, 2, 4 and 5
    small = crop(wmn, box), crop(truth, box)
    lib = derive_atlases(small, n=2, seed=7)
    for prior in lib.priors:
        prior.warp_to_template = None
    lib.save(str(root / "atlas"))
    subject, subject_truth, warp = make_subject(small, warp_spec=WarpSpec(seed=2024))
    imgio.write_volume(subject, str(root / "in.nii.gz"))
    imgio.write_field(warp, str(root / "warp.nii.gz"))
    return {
        "atlas": str(root / "atlas"),
        "input": str(root / "in.nii.gz"),
        "warp": str(root / "warp.nii.gz"),
        "truth": subject_truth,
    }


def _segment_warp_free(env, out_dir, n_workers):
    return run_segment(
        env["input"], env["atlas"], str(out_dir), fusion="mv", true_warp_path=env["warp"], n_workers=n_workers
    )


def _output_shas(out):
    return {key: _sha(out[key]) for key in ("segmentation", "volumes", "manifest")}


@pytest.fixture(scope="module")
def warp_free_serial(tmp_path_factory, warp_free):
    """sha256 of each output of one single-threaded segment on the warp-free library."""
    return _output_shas(_segment_warp_free(warp_free, tmp_path_factory.mktemp("serial"), 1))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_segment_registers_uncached_prior_warps_without_writing_the_library(
    tmp_path, warp_free, warp_free_serial, workers
):
    """A warp-free library is only read: its priors are registered in memory,
    and how many threads do so changes no byte of any output."""
    before = _tree_sha(warp_free["atlas"])
    out = _segment_warp_free(warp_free, tmp_path / "out", workers)
    assert _tree_sha(warp_free["atlas"]) == before
    assert json.load(open(out["manifest"]))["notes"]["computed_prior_warps"] == ["prior00", "prior01"]
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert dice(seg, warp_free["truth"], -1) > 0.85
    assert _output_shas(out) == warp_free_serial


def test_computed_prior_warp_stays_on_the_template_crop(warp_free):
    """A prior without a cached warp is registered onto the template crop, and its field
    is returned on that crop's lattice, not resampled onto the whole template."""
    lib = AtlasLibrary.load(warp_free["atlas"])
    t_crop = crop(lib.template, lib.crop_box)
    assert t_crop.geometry.dims != lib.template.geometry.dims
    field = pipeline._prior_warp(lib.priors[0], t_crop, lib, RegConfig())
    assert field.geometry.close_to(t_crop.geometry)


@pytest.fixture(scope="module")
def off_template_lattice(tmp_path_factory, base):
    """A 5-prior library with cached warps on the 32^3 box, and a subject made on
    the template's lattice: its image, its truth labels, and the box centre (mm)."""
    wmn, truth, _ = base
    root = tmp_path_factory.mktemp("off_lattice")
    box = CropBox((3, 1, 7), (34, 32, 38))  # the warp_free and bench box
    small = crop(wmn, box), crop(truth, box)
    derive_atlases(small, n=5, seed=7).save(str(root / "atlas"))
    subject, subject_truth, _ = make_subject(small, warp_spec=WarpSpec(seed=2024))
    g = subject.geometry
    centre = g.index_to_world(np.array([(np.array(g.dims) - 1) / 2.0]))[0]
    return {"atlas": str(root / "atlas"), "subject": subject, "truth": subject_truth, "centre": centre}


def _rotation(axis, degrees):
    a = np.radians(degrees)
    r = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    r[i, i], r[i, j], r[j, i], r[j, j] = np.cos(a), -np.sin(a), np.sin(a), np.cos(a)
    return r


@pytest.mark.parametrize("mirrored", [False, True], ids=["oblique", "oblique-mirrored"])
def test_segment_off_the_template_lattice(tmp_path, off_template_lattice, mirrored):
    """A subject resampled onto a lattice that is rotated (8 deg about z, 5 about x),
    anisotropic (0.9 x 1.1 x 1.3 mm) and offset (7, -5, 4) mm from the anatomy,
    optionally stored with a mirrored (negative-determinant) affine, meets
    criterion 6's per-nucleus bounds, by volume in mm^3; its volumes.csv counts
    mm^3 of its own voxels, and the transferred crop box keeps every nucleus whole."""
    env = off_template_lattice
    spacing = np.array([0.9, 1.1, 1.3])
    block = _rotation(2, 8.0) @ _rotation(0, 5.0) @ np.diag(spacing)
    if mirrored:
        block = block @ np.diag([-1.0, 1.0, 1.0])
    dims = np.ceil(44.0 / spacing).astype(int)  # the 32 mm box and the offset fit inside
    affine = np.eye(4)
    affine[:3, :3] = block
    affine[:3, 3] = env["centre"] + (7.0, -5.0, 4.0) - block @ ((dims - 1) / 2.0)
    lattice = Geometry(tuple(dims), affine)
    assert (np.linalg.det(block) < 0) == mirrored
    truth = resample(env["truth"], lattice)
    imgio.write_volume(resample(env["subject"], lattice), str(tmp_path / "in.nii.gz"))

    out = run_segment(str(tmp_path / "in.nii.gz"), env["atlas"], str(tmp_path / "out"))
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert seg.geometry.close_to(lattice)
    box = CropBox.from_dict(json.load(open(out["manifest"]))["notes"]["crop_box_input"])
    with open(out["volumes"], newline="") as f:
        volumes = {int(r["label_code"]): float(r["volume_mm3"]) for r in csv.DictReader(f)}
    voxel_mm3 = float(np.prod(spacing))
    assert volumes[-1] == pytest.approx(float((seg.data > 0).sum()) * voxel_mm3)
    failures = []
    for code in (int(c) for c in np.unique(truth.data) if c != 0):
        assert volumes[code] == pytest.approx(float((seg.data == code).sum()) * voxel_mm3)
        n = int((truth.data == code).sum())
        assert int((crop(truth, box).data == code).sum()) == n, f"crop box cuts code {code}"
        d, v, cd = dice(seg, truth, code), vsi(seg, truth, code), centroid_distance(seg, truth, code)
        mm3 = n * voxel_mm3
        if (mm3 >= 500 and (d < 0.85 or v < 0.90)) or (50 <= mm3 < 500 and d < 0.60) or cd > 1.0:
            failures.append((code, mm3, d, v, cd))
    assert not failures, f"criterion 6 violations: {failures}"


def test_register_input_returns_the_crop_placed_by_the_rigid_map(off_template_lattice, monkeypatch):
    """The rigid map goes into the input's header: the crop _register_input returns holds the
    input's voxels under rigid.matrix @ the input crop's affine, in template space, and it is
    the image demons reads. The input's header is turned 6 deg about z and shifted (7, -5, 4) mm."""
    env = off_template_lattice
    affine = env["subject"].geometry.affine.copy()
    affine[:3, :3] = _rotation(2, 6.0) @ affine[:3, :3]
    affine[:3, 3] += (7.0, -5.0, 4.0)
    input_vol = VolumeGrid(env["subject"].data, affine)
    lib = AtlasLibrary.load(env["atlas"])
    t_crop = crop(lib.template, lib.crop_box)
    rigids, movings = [], []
    real_rigid = pipeline.register_rigid

    def rigid_spy(*args):
        rigids.append(real_rigid(*args))
        return rigids[-1]

    def deformable_spy(fixed, moving, config):
        movings.append(moving)
        return register.DeformationField.zero(fixed.geometry)

    monkeypatch.setattr(pipeline, "register_rigid", rigid_spy)
    monkeypatch.setattr(pipeline, "register_deformable", deformable_spy)
    in_box, in_crop, psi = pipeline._register_input(input_vol, lib, t_crop, RegConfig(), None)
    unplaced = crop(input_vol, in_box)
    assert movings == [in_crop] and psi.geometry is t_crop.geometry
    assert np.array_equal(in_crop.data, unplaced.data)
    assert np.allclose(in_crop.geometry.affine, rigids[0].matrix @ unplaced.geometry.affine, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def unmoved_segmentation(tmp_path_factory, off_template_lattice):
    """The labels of the 32^3-box subject segmented where the template's anatomy lies."""
    env = off_template_lattice
    root = tmp_path_factory.mktemp("unmoved")
    imgio.write_volume(env["subject"], str(root / "in.nii.gz"))
    out = run_segment(str(root / "in.nii.gz"), env["atlas"], str(root / "out"))
    return imgio.read_volume(out["segmentation"], as_labels=True).data


@pytest.mark.parametrize(
    "shift",
    [(3.0, 0.0, 0.0), (7.0, -5.0, 4.0), (15.0, -10.0, 8.0), (25.0, -15.0, 12.0), (29.0, 0.0, 0.0), (60.0, -20.0, 10.0)],
    ids=lambda t: "{:g},{:g},{:g}mm".format(*t),
)
def test_segment_displaced_anatomy(tmp_path, off_template_lattice, unmoved_segmentation, shift):
    """The 32^3-box subject stored under a header shifted by 3 to 64 mm, which
    moves its anatomy off the template, segments voxel for voxel as the unmoved
    subject does and meets criterion 6's Dice tiers. At (29, 0, 0) mm the input's
    crop and the template crop have disjoint world boxes, and at (60, -20, 10) mm
    so do the input and the template."""
    env = off_template_lattice
    affine = env["subject"].geometry.affine.copy()
    affine[:3, 3] += shift
    imgio.write_volume(VolumeGrid(env["subject"].data, affine), str(tmp_path / "in.nii.gz"))
    truth = LabelVolume(env["truth"].data, affine)

    out = run_segment(str(tmp_path / "in.nii.gz"), env["atlas"], str(tmp_path / "out"))
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert np.array_equal(seg.data, unmoved_segmentation)
    _assert_dice_tiers(seg, truth)


def _assert_dice_tiers(seg, truth):
    """Criterion 6's Dice tiers: 0.85 for a nucleus of 500 voxels or more, 0.60 below."""
    for code in (int(c) for c in np.unique(truth.data) if c != 0):
        n, d = int((truth.data == code).sum()), dice(seg, truth, code)
        assert d >= (0.85 if n >= 500 else 0.60), f"code {code}: dice {d:.3f} (n={n})"


def _segment_scaled(root, env, scale, shift):
    """The 32^3-box subject's intensities times scale, stored under a header shifted by
    shift mm, segmented: its labels and its truth on the shifted lattice."""
    affine = env["subject"].geometry.affine.copy()
    affine[:3, 3] += shift
    imgio.write_volume(VolumeGrid(env["subject"].data * scale, affine), str(root / "in.nii.gz"))
    out = run_segment(str(root / "in.nii.gz"), env["atlas"], str(root / "out"))
    return imgio.read_volume(out["segmentation"], as_labels=True), LabelVolume(env["truth"].data, affine)


_SHIFT = (25.0, -15.0, 12.0)


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), _SHIFT], ids=["unmoved", "25,-15,12mm"])
def test_segment_scaled_intensities(tmp_path, off_template_lattice, shift):
    """A scanner stores integers, so an input's range can be far from the template's
    (-0.0066 to 0.375 here). The 32^3-box subject times 15, 30 and 1000, unmoved or
    under a (25, -15, 12) mm header shift, gives one segmentation, which meets
    criterion 6's Dice tiers."""
    segs = []
    for scale in (15.0, 30.0, 1000.0):
        (tmp_path / str(scale)).mkdir()
        seg, truth = _segment_scaled(tmp_path / str(scale), off_template_lattice, scale, shift)
        _assert_dice_tiers(seg, truth)
        segs.append(seg.data)
    assert all(np.array_equal(segs[0], other) for other in segs[1:])


def test_segment_scaled_intensities_small_and_displaced(tmp_path, off_template_lattice):
    """The 32^3-box subject times 0.01 under the (25, -15, 12) mm header shift meets criterion 6's Dice tiers."""
    _assert_dice_tiers(*_segment_scaled(tmp_path, off_template_lattice, 0.01, _SHIFT))


# storage -> (flipped axis, axis permutation, labelled voxels that differ from the
# unmoved segmentation when measured; the test allows half as many again)
_REORDERED = {
    "x-flipped": (0, None, 97),
    "y-flipped": (1, None, 102),
    "z-flipped": (2, None, 116),
    "axes-201": (None, (2, 0, 1), 73),
}


@pytest.mark.parametrize("storage", list(_REORDERED))
def test_segment_reordered_storage(tmp_path, off_template_lattice, unmoved_segmentation, storage):
    """The 32^3-box subject stored flipped along x, y or z, or with its axes
    permuted (2, 0, 1), the affine compensating so every voxel keeps its world
    position. Read back in the unmoved storage, the segmentation differs from
    the unmoved one in 97, 102, 116 and 73 of its 1,691 labelled voxels; this
    pins each count at no more than 1.5 times that. volumes.csv counts mm^3."""
    flip, perm, measured = _REORDERED[storage]
    subject = off_template_lattice["subject"]
    index_map = np.eye(4)  # stored index -> unmoved index
    if flip is not None:
        data = np.flip(subject.data, flip)
        index_map[flip, flip], index_map[flip, 3] = -1.0, subject.geometry.dims[flip] - 1
    else:
        data = np.transpose(subject.data, perm)
        index_map[:3, :3] = np.eye(3)[:, perm]
    stored = VolumeGrid(np.ascontiguousarray(data), subject.geometry.affine @ index_map)
    imgio.write_volume(stored, str(tmp_path / "in.nii.gz"))

    out = run_segment(str(tmp_path / "in.nii.gz"), off_template_lattice["atlas"], str(tmp_path / "out"))
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert seg.geometry.close_to(stored.geometry)
    back = np.flip(seg.data, flip) if flip is not None else np.transpose(seg.data, np.argsort(perm))
    assert int((back != unmoved_segmentation).sum()) <= 1.5 * measured
    voxel_mm3 = abs(np.linalg.det(stored.geometry.affine[:3, :3]))
    with open(out["volumes"], newline="") as f:
        volumes = {int(r["label_code"]): float(r["volume_mm3"]) for r in csv.DictReader(f)}
    assert volumes[-1] == pytest.approx(float((seg.data > 0).sum()) * voxel_mm3)
    for code in default_scheme().codes():
        assert volumes[code] == pytest.approx(float((seg.data == code).sum()) * voxel_mm3)


_WAIT_S = 30  # a regression fails after this long instead of hanging


def _trace_threads(monkeypatch, wait_for_prior):
    """Record the prior registrations and every thread started from here on.

    The input's inversion (run even with a true warp) notes whether a prior
    registration has started by then; with ``wait_for_prior`` it first waits
    up to ``_WAIT_S`` for one to start."""
    rec = {"prior_threads": [], "started": [], "prior_before_invert": None}
    prior_started = threading.Event()
    real_prior_warp, real_invert, real_start = pipeline._prior_warp, pipeline.invert_field, threading.Thread.start

    def prior_warp(*args):
        rec["prior_threads"].append(threading.get_ident())
        prior_started.set()
        return real_prior_warp(*args)

    def invert_field(*args, **kwargs):
        rec["prior_before_invert"] = prior_started.wait(_WAIT_S) if wait_for_prior else prior_started.is_set()
        return real_invert(*args, **kwargs)

    def start(thread):
        rec["started"].append(thread)
        real_start(thread)

    monkeypatch.setattr(pipeline, "_prior_warp", prior_warp)
    monkeypatch.setattr(pipeline, "invert_field", invert_field)
    monkeypatch.setattr(threading.Thread, "start", start)
    return rec


def test_uncached_priors_register_while_the_input_registers(tmp_path, warp_free, monkeypatch):
    """At two workers two pool threads register: the input's rigid stage and
    the priors all run off the calling thread."""
    rec = _trace_threads(monkeypatch, wait_for_prior=True)
    rigid_threads = []
    real_rigid = pipeline.register_rigid
    monkeypatch.setattr(pipeline, "register_rigid", lambda *a: rigid_threads.append(threading.get_ident()) or real_rigid(*a))
    run_segment(warp_free["input"], warp_free["atlas"], str(tmp_path / "out"), fusion="mv", n_workers=2)
    caller = threading.get_ident()
    assert rec["prior_before_invert"]
    assert len(rigid_threads) == 1 and rigid_threads[0] != caller
    assert len(rec["prior_threads"]) == 2 and caller not in rec["prior_threads"]
    assert len(rec["started"]) == 2 and not any(t.is_alive() for t in rec["started"])


def test_input_and_a_prior_register_at_once_on_two_pool_threads(tmp_path, warp_free, warp_free_serial, monkeypatch):
    """At two workers the input's registration and the first prior's run at
    once: each waits at a barrier the other must reach. Neither runs on the
    calling thread, and the outputs stay those of one worker."""
    met = threading.Barrier(2, timeout=_WAIT_S)
    input_threads, prior_threads = [], []
    real_register_input, real_prior_warp = pipeline._register_input, pipeline._prior_warp

    def register_input(*args):
        input_threads.append(threading.get_ident())
        met.wait()
        return real_register_input(*args)

    def prior_warp(*args):
        prior_threads.append(threading.get_ident())
        if len(prior_threads) == 1:
            met.wait()
        return real_prior_warp(*args)

    monkeypatch.setattr(pipeline, "_register_input", register_input)
    monkeypatch.setattr(pipeline, "_prior_warp", prior_warp)
    out = _segment_warp_free(warp_free, tmp_path / "out", 2)
    assert len(input_threads) == 1 and input_threads[0] != prior_threads[0]
    assert threading.get_ident() not in input_threads + prior_threads
    assert _output_shas(out) == warp_free_serial


def test_one_worker_registers_priors_inline_on_the_calling_thread(tmp_path, warp_free, monkeypatch):
    rec = _trace_threads(monkeypatch, wait_for_prior=False)
    _segment_warp_free(warp_free, tmp_path / "out", 1)
    assert rec["prior_before_invert"] is False
    assert rec["prior_threads"] == [threading.get_ident()] * 2
    assert rec["started"] == []


def test_cached_warps_start_no_thread_at_any_worker_count(tmp_path, atlas_env, monkeypatch):
    rec = _trace_threads(monkeypatch, wait_for_prior=False)
    kwargs = dict(fusion="mv", true_warp_path=atlas_env["subject_warp"], n_workers=4)
    run_segment(atlas_env["subject"], atlas_env["atlas"], str(tmp_path / "out"), **kwargs)
    assert rec["started"] == []


def test_prior_registration_failure_on_a_pool_thread_propagates(tmp_path, warp_free, monkeypatch):
    """FoldingDetected raised while the pool registers a prior ends the call
    (CLI exit 3), and no pool thread outlives it."""
    rec = _trace_threads(monkeypatch, wait_for_prior=True)
    failed_on = []

    def folding(*args, **kwargs):
        failed_on.append(threading.get_ident())
        raise FoldingDetected("positive-Jacobian fraction 0.5 below 0.999")

    monkeypatch.setattr(pipeline, "register_deformable", folding)
    with pytest.raises(FoldingDetected):
        _segment_warp_free(warp_free, tmp_path / "a", 2)
    assert failed_on[0] != threading.get_ident()
    assert rec["started"] and not any(t.is_alive() for t in rec["started"])

    args = ["segment", "--input", warp_free["input"], "--atlas", warp_free["atlas"], "--out-dir", str(tmp_path / "b")]
    assert main(args + ["--fusion", "mv", "--true-warp", warp_free["warp"], "--workers", "2"]) == 3
    assert not any(t.is_alive() for t in rec["started"])
    assert not (tmp_path / "b" / "segmentation.nii.gz").exists()


@pytest.fixture(scope="module")
def warp_free_five(tmp_path_factory, off_template_lattice):
    """off_template_lattice's 5-prior library with its cached warps removed, and its subject."""
    root = tmp_path_factory.mktemp("warp_free_five")
    shutil.copytree(off_template_lattice["atlas"], root / "atlas")
    for warp in (root / "atlas").glob("priors/*/warp_to_template.nii.gz"):
        warp.unlink()
    imgio.write_volume(off_template_lattice["subject"], str(root / "in.nii.gz"))
    return {"atlas": str(root / "atlas"), "input": str(root / "in.nii.gz")}


def test_input_registration_failure_at_two_workers_ends_the_call(tmp_path, warp_free_five, monkeypatch):
    """An error in the input's registration propagates at once: of five prior
    registrations at most two start, the rest are cancelled, and no thread the
    call started outlives it."""
    rec = _trace_threads(monkeypatch, wait_for_prior=False)

    def rigid_fails(*args, **kwargs):
        raise FoldingDetected("the input's registration failed")

    monkeypatch.setattr(pipeline, "register_rigid", rigid_fails)
    with pytest.raises(FoldingDetected, match="input's registration"):
        run_segment(warp_free_five["input"], warp_free_five["atlas"], str(tmp_path / "o"), fusion="mv", n_workers=2)
    assert len(rec["prior_threads"]) <= 2
    assert rec["started"] and not any(t.is_alive() for t in rec["started"])
    assert not (tmp_path / "o").exists()


def test_majority_voting_warps_no_prior_intensities(tmp_path, atlas_env, monkeypatch):
    """Only joint label fusion reads warped prior intensities, so only it resamples them,
    one per prior; majority voting fuses the warped labels alone."""
    real_resample, real_warp_labels = pipeline.resample, pipeline.warp_labels
    resampled, labels = [], []
    monkeypatch.setattr(pipeline, "resample", lambda *a, **k: resampled.append(a[0]) or real_resample(*a, **k))
    monkeypatch.setattr(pipeline, "warp_labels", lambda *a: labels.append(real_warp_labels(*a)) or labels[-1])
    kwargs = dict(true_warp_path=atlas_env["subject_warp"])
    out = run_segment(atlas_env["subject"], atlas_env["atlas"], str(tmp_path / "mv"), fusion="mv", **kwargs)
    assert resampled == [] and len(labels) == 5
    box = CropBox.from_dict(json.load(open(out["manifest"]))["notes"]["crop_box_input"])
    seg = imgio.read_volume(out["segmentation"], as_labels=True)
    assert np.array_equal(crop(seg, box).data, majority_vote(labels).data)
    run_segment(atlas_env["subject"], atlas_env["atlas"], str(tmp_path / "jlf"), fusion="jlf", **kwargs)
    assert len(resampled) == 5


@pytest.mark.parametrize("case", ["input-mv", "input-jlf", "template-warp-free"])
def test_segment_builds_each_crop_grid_once(tmp_path, request, monkeypatch, case):
    """Every step onto a crop's lattice shares one voxel-centre grid of it: the input
    crop's for the inverse's resample and each prior's compose and warps, and the
    template crop's for each registration's finest level and the inversion."""
    built = []
    real_voxel_centers = Geometry._voxel_centers
    monkeypatch.setattr(Geometry, "_voxel_centers", lambda g: built.append(g) or real_voxel_centers(g))
    if case == "template-warp-free":
        env = request.getfixturevalue("warp_free")
        _segment_warp_free(env, tmp_path / "o", 1)
        lib = AtlasLibrary.load(env["atlas"])
        lattice = crop(lib.template, lib.crop_box).geometry
        crops = 2  # this input lies on the template's lattice, so its crop is a second such lattice
    else:
        env = request.getfixturevalue("atlas_env")
        kwargs = dict(fusion=case.split("-")[1], true_warp_path=env["subject_warp"])
        out = run_segment(env["subject"], env["atlas"], str(tmp_path / "o"), **kwargs)
        box = CropBox.from_dict(json.load(open(out["manifest"]))["notes"]["crop_box_input"])
        lattice = crop(imgio.read_volume(env["subject"]), box).geometry
        crops = 1
    builds = [g for g in built if g.close_to(lattice)]  # built keeps each alive, so no id is reused
    assert len(builds) == len({id(g) for g in builds}) == crops


def test_segment_bad_mode_rejected(tmp_path, atlas_env):
    with pytest.raises(UsageError):
        run_segment(atlas_env["subject"], atlas_env["atlas"], str(tmp_path / "o"), mode="bogus")


# --- run_eval / run_stats ---


def test_eval_self_comparison(tmp_path, atlas_env):
    out = run_eval(
        atlas_env["subject_truth_path"],
        atlas_env["subject_truth_path"],
        str(tmp_path / "eval"),
        subject_id="s0",
    )
    with open(out["csv"], newline="") as f:
        for row in csv.DictReader(f):
            assert float(row["dice"]) == 1.0
            assert float(row["vsi"]) == 1.0


def test_eval_differing_grids_require_align(tmp_path, base):
    from atlasfuse.errors import GeometryMismatch

    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=3)
    pa = str(tmp_path / "a.nii.gz")
    pb = str(tmp_path / "b.nii.gz")
    imgio.write_volume(crop(truth, box), pa)
    imgio.write_volume(truth, pb)
    with pytest.raises(GeometryMismatch):
        run_eval(pa, pb, str(tmp_path / "eval"))


def test_eval_align_recovers_cropped_comparison(tmp_path, base):
    wmn, truth, _ = base
    box = label_bounding_box(truth, margin=3)
    pa, pb = str(tmp_path / "a.nii.gz"), str(tmp_path / "b.nii.gz")
    ia, ib = str(tmp_path / "ia.nii.gz"), str(tmp_path / "ib.nii.gz")
    imgio.write_volume(crop(truth, box), pa)
    imgio.write_volume(truth, pb)
    imgio.write_volume(crop(wmn, box), ia)
    imgio.write_volume(wmn, ib)
    out = run_eval(pa, pb, str(tmp_path / "eval"), intensity_a_path=ia, intensity_b_path=ib, align=True)
    row0 = out["report"].rows[0]
    assert row0.code == -1 and row0.dice > 0.99


def test_stats_identical_csvs_all_null(tmp_path):
    rows = [("s%02d" % s, code, 0.8 + 0.01 * s) for s in range(4) for code in (1, 2)]
    for name in ("a.csv", "b.csv"):
        with open(tmp_path / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["subject_id", "label_code", "label_name", "dice"])
            for sid, code, val in rows:
                w.writerow([sid, code, "X", f"{val}"])
    out = run_stats(str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "s.csv"))
    assert out["bonferroni_threshold"] == 0.05 / 13
    for r in out["results"]:
        assert r.t == 0.0 and r.p == 1.0 and not r.significant_raw


def test_stats_detects_constructed_difference(tmp_path):
    rng = np.random.default_rng(0)
    subs = [f"s{n}" for n in range(8)]
    va = {s: 0.9 + 0.01 * rng.standard_normal() for s in subs}
    vb = {s: va[s] - 0.05 for s in subs}  # method B consistently worse
    for name, vals in (("a.csv", va), ("b.csv", vb)):
        with open(tmp_path / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["subject_id", "label_code", "label_name", "dice"])
            for s in subs:
                w.writerow([s, 1, "X", f"{vals[s]:.9f}"])
    out = run_stats(str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "s.csv"))
    r = out["results"][0]
    assert r.t > 0 and r.p < 0.0038 and r.significant_bonferroni


def test_stats_row_mismatch(tmp_path):
    from atlasfuse.errors import RowMismatch

    hdr = ["subject_id", "label_code", "label_name", "dice"]
    with open(tmp_path / "a.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(hdr)
        w.writerow(["s0", 1, "X", "0.9"])
        w.writerow(["s1", 1, "X", "0.8"])
    with open(tmp_path / "b.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(hdr)
        w.writerow(["s0", 2, "X", "0.9"])
        w.writerow(["s1", 2, "X", "0.8"])
    with pytest.raises(RowMismatch):
        run_stats(str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "s.csv"))


# --- CLI ---


def test_cli_synth_roundtrip(tmp_path):
    t1, truth = synthesized_base()[2], None
    t1_path = str(tmp_path / "t1.nii.gz")
    out_path = str(tmp_path / "syn.nii.gz")
    imgio.write_volume(t1, t1_path)
    assert main(["synth", "--t1", t1_path, "--out", out_path]) == 0
    syn = imgio.read_volume(out_path)
    assert np.all(syn.data >= 0)
    # seconds flag: same map scaled to seconds gives the same output
    t1s = t1.with_data(t1.data / 1000.0)
    t1s_path = str(tmp_path / "t1s.nii.gz")
    out2 = str(tmp_path / "syn2.nii.gz")
    imgio.write_volume(t1s, t1s_path)
    assert main(["synth", "--t1", t1s_path, "--out", out2, "--t1-unit", "s"]) == 0
    assert np.allclose(imgio.read_volume(out2).data, syn.data, atol=1e-4)


def test_cli_exit_codes(tmp_path):
    # usage error: bad TI -> 1
    t1_path = str(tmp_path / "t1.nii.gz")
    imgio.write_volume(synthesized_base()[2], t1_path)
    assert main(["synth", "--t1", t1_path, "--out", str(tmp_path / "o.nii.gz"), "--ti", "-5"]) == 1
    # data error: missing input file -> 2
    assert main(["synth", "--t1", str(tmp_path / "nope.nii.gz"), "--out", str(tmp_path / "o.nii.gz")]) == 2
    # argparse failure (unknown subcommand) -> 1
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["segment", "--fusion", "bogus"], ["segment", "--workers", "two"], ["frobnicate"], ["segment"], []],
    ids=["bad-choice", "bad-int", "unknown-command", "missing-options", "no-command"],
)
def test_cli_argparse_error_is_one_json_line(capsys, argv):
    """An argument argparse rejects is a usage error reported as one JSON line, exit 1."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["status"] == "error" and json.loads(err[0])["error"] == "UsageError"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["segment", "--help"]])
def test_cli_help_and_version_exit_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_cli_eval_geometry_mismatch_exit_2_and_cleanup(tmp_path, base):
    _, truth, _ = base
    box = label_bounding_box(truth, margin=3)
    pa, pb = str(tmp_path / "a.nii.gz"), str(tmp_path / "b.nii.gz")
    imgio.write_volume(crop(truth, box), pa)
    imgio.write_volume(truth, pb)
    out_dir = tmp_path / "eval"
    out_dir.mkdir()
    code = main(["eval", "--seg-a", pa, "--seg-b", pb, "--out-dir", str(out_dir)])
    assert code == 2
    assert not (out_dir / "metrics.csv").exists()


def test_cli_eval_label_not_in_scheme_exits_2(tmp_path, capsys):
    """eval reads both labelmaps in the default scheme: an unknown code is a data error."""
    data = np.zeros((8, 8, 8), dtype=np.int32)
    data[2:4, 2:4, 2:4] = 999
    pa = str(tmp_path / "a.nii.gz")
    imgio.write_volume(LabelVolume(data, np.eye(4)), pa)
    out_dir = tmp_path / "eval"
    assert main(["eval", "--seg-a", pa, "--seg-b", pa, "--out-dir", str(out_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("GeometryMismatch", "codes not in scheme: [999]")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "given, seg_exists",
    [([], True), (["--intensity-a"], True), (["--intensity-b"], True), ([], False)],
    ids=["neither", "only-a", "only-b", "missing-labelmaps"],
)
def test_cli_eval_align_without_both_intensities_exits_1(tmp_path, capsys, warp_free, given, seg_exists):
    """--align registers intensity A onto B, so it needs both volumes: a usage error,
    checked before any labelmap is read, and nothing written."""
    seg = str(tmp_path / "seg.nii.gz")
    if seg_exists:
        imgio.write_volume(warp_free["truth"], seg)
    out_dir = tmp_path / "eval"
    args = ["eval", "--seg-a", seg, "--seg-b", seg, "--out-dir", str(out_dir), "--align"]
    assert main(args + [opt for name in given for opt in (name, warp_free["input"])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "UsageError"
    assert not out_dir.exists()


def test_cli_eval_writes_what_run_eval_writes(tmp_path, capsys, segment_run, atlas_env):
    seg, truth = segment_run["segmentation"], atlas_env["subject_truth_path"]
    want = run_eval(seg, truth, str(tmp_path / "api"), subject_id="s0")
    capsys.readouterr()
    out_dir = str(tmp_path / "cli")
    assert main(["eval", "--seg-a", seg, "--seg-b", truth, "--out-dir", out_dir, "--subject-id", "s0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    csv_path, json_path = os.path.join(out_dir, "metrics.csv"), os.path.join(out_dir, "metrics.json")
    assert [json.loads(line) for line in lines] == [{"status": "ok", "csv": csv_path, "json": json_path}]
    assert open(csv_path, "rb").read() == open(want["csv"], "rb").read()
    assert os.path.isfile(json_path)


def test_cli_failed_eval_keeps_existing_outputs(tmp_path, segment_run):
    """An eval that fails must not touch an earlier segment's outputs in its --out-dir."""
    seg_dir = tmp_path / "seg"
    shutil.copytree(os.path.dirname(segment_run["segmentation"]), seg_dir)
    before = {name: _sha(seg_dir / name) for name in os.listdir(seg_dir)}
    float_map = str(tmp_path / "float.nii.gz")
    imgio.write_volume(imgio.read_volume(segment_run["segmentation"]), float_map)
    code = main(
        ["eval", "--seg-a", float_map, "--seg-b", str(seg_dir / "segmentation.nii.gz"), "--out-dir", str(seg_dir)]
    )
    assert code == 2
    assert {name: _sha(seg_dir / name) for name in os.listdir(seg_dir)} == before


def test_cli_phantom_then_segment_with_true_warp(tmp_path):
    out_dir = str(tmp_path / "ph")
    assert main(["phantom", "--seed", "3", "--out-dir", out_dir, "--n-atlases", "2"]) == 0
    sdir = os.path.join(out_dir, "subject")
    for name in ("intensity.nii.gz", "truth_labels.nii.gz", "truth_warp.nii.gz", "base_t1_map.nii.gz"):
        assert os.path.isfile(os.path.join(sdir, name))
    seg_dir = str(tmp_path / "seg")
    code = main(
        [
            "segment",
            "--input", os.path.join(sdir, "intensity.nii.gz"),
            "--atlas", out_dir,
            "--out-dir", seg_dir,
            "--fusion", "mv",
            "--true-warp", os.path.join(sdir, "truth_warp.nii.gz"),
        ]
    )
    assert code == 0
    seg = imgio.read_volume(os.path.join(seg_dir, "segmentation.nii.gz"), as_labels=True)
    truth = imgio.read_volume(os.path.join(sdir, "truth_labels.nii.gz"), as_labels=True)
    assert dice(seg, truth, -1) > 0.85


@pytest.mark.parametrize(
    "option, value",
    [
        ("--max-warp-mm", "nan"), ("--max-warp-mm", "inf"), ("--max-warp-mm", "-1"), ("--noise", "-0.5"), ("--noise", "nan"),
        ("--n-atlases", "0"), ("--n-atlases", "-1"), ("--seed", "-1"),
    ],
)
def test_cli_phantom_bad_amplitude_exits_1_before_building(tmp_path, monkeypatch, option, value):
    built = []
    monkeypatch.setattr(cli, "synthesized_base", lambda *a, **k: built.append(a))
    out_dir = tmp_path / "ph"
    assert main(["phantom", "--out-dir", str(out_dir), option, value]) == 1
    assert built == []
    assert not out_dir.exists()


def test_cli_stats_reports_threshold(tmp_path):
    hdr = ["subject_id", "label_code", "label_name", "dice"]
    for name in ("a.csv", "b.csv"):
        with open(tmp_path / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(hdr)
            for s in range(3):
                w.writerow([f"s{s}", 1, "X", f"{0.9 + 0.01 * s:.4f}"])
    out_csv = str(tmp_path / "stats.csv")
    code = main(["stats", "--csv-a", str(tmp_path / "a.csv"), "--csv-b", str(tmp_path / "b.csv"), "--out", out_csv])
    assert code == 0
    assert os.path.isfile(out_csv)


_STATS_HEADER = "subject_id,label_code,label_name,dice\n"
_A_DIRECTORY = object()

# case: (text of the A-side metrics CSV, None for no file, _A_DIRECTORY for a
# directory in its place; the error stats must report)
BAD_METRICS_CSV = {
    "missing-file": (None, "MissingFile"),
    "directory": (_A_DIRECTORY, "DataError"),
    "no-metric-column": ("subject_id,label_code,label_name,vsi\ns0,1,X,0.9\n", "DataError"),
    "header-only-without-metric": ("subject_id,label_code,label_name,vsi\n", "DataError"),
    "non-integer-code": (_STATS_HEADER + "s0,one,X,0.9\n", "DataError"),
    "non-numeric-value": (_STATS_HEADER + "s0,1,X,high\n", "DataError"),
    "nan-value": (_STATS_HEADER + "s0,1,X,nan\ns1,1,X,0.8\n", "DataError"),
    "infinite-value": (_STATS_HEADER + "s0,1,X,0.9\ns1,1,X,-inf\n", "DataError"),
}


@pytest.mark.parametrize("case", BAD_METRICS_CSV)
def test_cli_stats_bad_metrics_csv_exits_2(tmp_path, capsys, case):
    """A metrics CSV that is missing or malformed is a data error, not a traceback, and writes nothing."""
    text, error = BAD_METRICS_CSV[case]
    if text is _A_DIRECTORY:
        (tmp_path / "a.csv").mkdir()
    elif text is not None:
        (tmp_path / "a.csv").write_text(text)
    (tmp_path / "b.csv").write_text(_STATS_HEADER + "s0,1,X,0.9\ns1,1,X,0.8\n")
    out_csv = tmp_path / "stats.csv"
    args = ["stats", "--csv-a", str(tmp_path / "a.csv"), "--csv-b", str(tmp_path / "b.csv"), "--out", str(out_csv)]
    assert main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert not out_csv.exists()


def _stats_args(d, out):
    for name in ("a.csv", "b.csv"):
        (d / name).write_text(_STATS_HEADER + "s0,1,X,0.9\ns1,1,X,0.8\n")
    return ["stats", "--csv-a", str(d / "a.csv"), "--csv-b", str(d / "b.csv"), "--out", str(out)]


def _eval_args(d, env):
    seg = str(d / "seg.nii.gz")
    imgio.write_volume(env["truth"], seg)
    return ["eval", "--seg-a", seg, "--seg-b", seg, "--out-dir", str(d / "afile")]


# case: the command line, given a directory that holds a file "afile" and no "nodir"
WRITE_FAILURES = {
    "stats-out-in-a-missing-directory": lambda d, env: _stats_args(d, d / "nodir" / "s.csv"),
    "stats-out-under-a-file": lambda d, env: _stats_args(d, d / "afile" / "s.csv"),
    "eval-out-dir-is-a-file": _eval_args,
    "segment-out-dir-is-a-file": lambda d, env: [
        "segment", "--input", env["input"], "--atlas", env["atlas"], "--out-dir", str(d / "afile"),
        "--fusion", "mv", "--true-warp", env["warp"],
    ],
    "phantom-out-dir-is-a-file": lambda d, env: ["phantom", "--out-dir", str(d / "afile"), "--n-atlases", "1"],
}


@pytest.mark.parametrize("case", WRITE_FAILURES)
def test_cli_failed_write_exits_2(tmp_path, capsys, warp_free, case):
    """An output the command cannot write is an IoFailure: one JSON line, no traceback,
    no temporary file left, and the file in the way untouched."""
    (tmp_path / "afile").write_text("keep")
    args = WRITE_FAILURES[case](tmp_path, warp_free)
    capsys.readouterr()
    assert main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "IoFailure"
    assert (tmp_path / "afile").read_text() == "keep"
    assert not (tmp_path / "nodir").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def _with_nan_displacement(src, dst):
    """Copy a gzipped warp file with its first displacement component set to NaN."""
    with gzip.open(src, "rb") as f:
        raw = bytearray(f.read())
    raw[imgio.VOX_OFFSET : imgio.VOX_OFFSET + 4] = np.float32(np.nan).tobytes()
    with open(dst, "wb") as f:
        f.write(gzip.compress(bytes(raw), mtime=0))


@pytest.mark.parametrize("where", ["true-warp", "library-warp"])
def test_cli_segment_warp_with_a_nan_exits_2(tmp_path, capsys, atlas_env, where):
    """A warp file holding a NaN displacement is bad data, whether it is the
    --true-warp or a prior's cached warp: one JSON line, exit 2, no outputs."""
    atlas, warp, out_dir = tmp_path / "atlas", tmp_path / "warp.nii.gz", tmp_path / "out"
    shutil.copytree(atlas_env["atlas"], atlas)
    shutil.copy(atlas_env["subject_warp"], warp)
    bad = warp if where == "true-warp" else atlas / "priors" / "prior00" / "warp_to_template.nii.gz"
    _with_nan_displacement(bad, bad)
    args = ["segment", "--input", atlas_env["subject"], "--atlas", str(atlas), "--out-dir", str(out_dir)]
    capsys.readouterr()
    assert main(args + ["--fusion", "mv", "--true-warp", str(warp)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "GeometryMismatch"
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


@pytest.mark.parametrize("rows", ["s0,1,X,0.9\n", "s0,1,X,0.9\ns1,1,X,\n"], ids=["one-subject", "one-pair"])
def test_cli_stats_fewer_than_two_pairs_exits_2(tmp_path, capsys, rows):
    """A label with fewer than 2 paired subjects has no paired t-test: InsufficientSubjects,
    exit 2, and no output written."""
    (tmp_path / "a.csv").write_text(_STATS_HEADER + rows)
    (tmp_path / "b.csv").write_text(_STATS_HEADER + rows.replace("0.9", "0.8"))
    out_csv = tmp_path / "stats.csv"
    args = ["stats", "--csv-a", str(tmp_path / "a.csv"), "--csv-b", str(tmp_path / "b.csv"), "--out", str(out_csv)]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "InsufficientSubjects"
    assert not out_csv.exists()


def test_stats_empty_cell_is_a_missing_value(tmp_path):
    """An empty metric cell drops that subject's pair; the other pairs are tested."""
    (tmp_path / "a.csv").write_text(_STATS_HEADER + "s0,1,X,0.9\ns1,1,X,\ns2,1,X,0.7\ns3,1,X,0.6\n")
    (tmp_path / "b.csv").write_text(_STATS_HEADER + "s0,1,X,0.8\ns1,1,X,0.5\ns2,1,X,0.7\ns3,1,X,0.6\n")
    out = run_stats(str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "s.csv"))
    assert out["results"][0].dof == 2


@pytest.mark.parametrize("m", [0, -1])
def test_cli_stats_rejects_fewer_than_one_comparison(tmp_path, capsys, monkeypatch, m):
    """--m is the Bonferroni divisor: below one it is a usage error, reported before any CSV is read."""
    for name in ("a.csv", "b.csv"):
        with open(tmp_path / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["subject_id", "label_code", "label_name", "dice"])
            for s in range(3):
                w.writerow([f"s{s}", 1, "X", f"{0.9 + 0.01 * s:.4f}"])
    read = []
    real_read = pipeline.read_metrics_csv
    monkeypatch.setattr(pipeline, "read_metrics_csv", lambda *a: read.append(a) or real_read(*a))
    out_csv = tmp_path / "stats.csv"
    args = ["stats", "--csv-a", str(tmp_path / "a.csv"), "--csv-b", str(tmp_path / "b.csv"), "--out", str(out_csv)]
    assert main(args + [f"--m={m}"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"
    assert read == [] and not out_csv.exists()


def _drop_first_abbrev(path):
    rows = json.loads(path.read_text())
    del rows[0]["abbrev"]
    path.write_text(json.dumps(rows))


def _set_cropbox_lo(path, lo):
    box = json.loads(path.read_text())
    box["lo"] = lo
    path.write_text(json.dumps(box))


def _add_scheme_row(path, code):
    rows = json.loads(path.read_text())
    rows.append({"code": code, "abbrev": "X", "name": "extra", "hemisphere": ""})
    path.write_text(json.dumps(rows))


def _add_unknown_label(path):
    labels = imgio.read_volume(str(path), as_labels=True)
    data = labels.data.copy()
    data[0, 0, 0] = 999
    imgio.write_volume(labels.with_data(data), str(path))


def _move_prior(prior_dir, shift):
    """The prior's intensity and labels stored under headers translated by shift mm."""
    for name, as_labels in (("intensity.nii.gz", False), ("labels.nii.gz", True)):
        vol = imgio.read_volume(str(prior_dir / name), as_labels=as_labels)
        affine = vol.geometry.affine.copy()
        affine[:3, 3] += shift
        imgio.write_volume(type(vol)(vol.data, affine), str(prior_dir / name))


def test_segment_non_finite_input_exits_2(tmp_path, capsys, atlas_env):
    """A NaN voxel in the input is a data error at the rigid stage, not a
    wrong registration or a numerical failure downstream."""
    subject = imgio.read_volume(atlas_env["subject"])
    data = subject.data.copy()
    data[32, 32, 32] = np.nan
    path = str(tmp_path / "nan.nii.gz")
    imgio.write_volume(subject.with_data(data), path)
    args = ["segment", "--input", path, "--atlas", atlas_env["atlas"], "--out-dir", str(tmp_path / "o")]
    assert main(args + ["--fusion", "mv"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("DegenerateInput", "fixed image has non-finite intensities")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fusion", ["jlf", "mv"])
@pytest.mark.parametrize("image", ["template.nii.gz", "priors/prior00/intensity.nii.gz"])
def test_segment_non_finite_library_intensity_exits_2(tmp_path, capsys, atlas_env, image, fusion):
    """A NaN voxel in the template or in a prior's intensity is refused when the library
    loads, naming the file. A prior with a cached warp is never registered, so its NaN
    would otherwise reach fusion unchecked and change labels with exit 0."""
    atlas = tmp_path / "atlas"
    shutil.copytree(atlas_env["atlas"], atlas)
    vol = imgio.read_volume(str(atlas / image))
    data = vol.data.copy()
    data[19, 25, 30] = np.nan
    imgio.write_volume(vol.with_data(data), str(atlas / image))
    args = ["segment", "--input", atlas_env["subject"], "--atlas", str(atlas), "--out-dir", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(args + ["--fusion", fusion]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["message"]) == ("DegenerateInput", f"{atlas / image} has non-finite intensities")
    assert not (tmp_path / "o").exists()


# case: (how the library copy is broken, the error segment must report)
BROKEN_LIBRARY = {
    "missing-cropbox": (lambda lib: (lib / "cropbox.json").unlink(), "MissingFile"),
    "missing-scheme": (lambda lib: (lib / "scheme.json").unlink(), "MissingFile"),
    "cropbox-not-json": (lambda lib: (lib / "cropbox.json").write_text("{lo: [0"), "DataError"),
    "cropbox-without-lo": (lambda lib: (lib / "cropbox.json").write_text("{}"), "DataError"),
    "cropbox-is-a-directory": (lambda lib: (lib / "cropbox.json").unlink() or (lib / "cropbox.json").mkdir(), "DataError"),
    "cropbox-two-entries": (lambda lib: _set_cropbox_lo(lib / "cropbox.json", [3, 1]), "DataError"),
    "cropbox-four-entries": (lambda lib: _set_cropbox_lo(lib / "cropbox.json", [3, 1, 7, 0]), "DataError"),
    "cropbox-fractional": (lambda lib: _set_cropbox_lo(lib / "cropbox.json", [3, 1.7, 7]), "DataError"),
    "cropbox-bool": (lambda lib: _set_cropbox_lo(lib / "cropbox.json", [3, True, 7]), "DataError"),
    "cropbox-outside-the-template": (
        lambda lib: (lib / "cropbox.json").write_text(json.dumps({"lo": [100] * 3, "hi": [200] * 3})), "EmptyBox"
    ),
    "scheme-row-without-abbrev": (lambda lib: _drop_first_abbrev(lib / "scheme.json"), "DataError"),
    "scheme-negative-code": (lambda lib: _add_scheme_row(lib / "scheme.json", -1), "GeometryMismatch"),
    "prior-label-not-in-scheme": (
        lambda lib: _add_unknown_label(lib / "priors" / "prior01" / "labels.nii.gz"), "GeometryMismatch"
    ),
    "uncached-prior-off-the-template": (
        lambda lib: _move_prior(lib / "priors" / "prior00", (12.0, -8.0, 5.0)), "GeometryMismatch"
    ),
    "no-priors-directory": (lambda lib: shutil.rmtree(lib / "priors"), "MissingFile"),
    "empty-priors-directory": (lambda lib: shutil.rmtree(lib / "priors") or (lib / "priors").mkdir(), "MissingFile"),
}


@pytest.mark.parametrize("case", BROKEN_LIBRARY)
def test_segment_broken_library_exits_2(tmp_path, capsys, warp_free, case):
    """A library whose cropbox.json or scheme.json is missing or malformed, whose crop
    box misses the template, whose prior labels hold a code its scheme lacks, whose
    prior without a cached warp is off the template's lattice, or that holds no prior,
    is a data error, not a traceback."""
    breaker, error = BROKEN_LIBRARY[case]
    lib = tmp_path / "atlas"
    shutil.copytree(warp_free["atlas"], lib)
    breaker(lib)
    args = ["segment", "--input", warp_free["input"], "--atlas", str(lib), "--out-dir", str(tmp_path / "o")]
    assert main(args + ["--fusion", "mv", "--true-warp", warp_free["warp"]]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"reg_config": {"bogus": 1}}),
        json.dumps({"jlf_params": {"patch_radius": -1}}),
        "{not json",
        "[1]",
        None,
        json.dumps({"reg_config": {"shrink_factors": [0]}}),
        json.dumps({"reg_config": {"linear_iters": [100]}}),
        json.dumps({"reg_config": {"deform_iters": [60, 40, -1]}}),
        json.dumps({"reg_config": {"max_metric_samples": 0}}),
        json.dumps({"reg_config": {"mi_bins": 0}}),
        json.dumps({"reg_config": {"mi_bins": 2.5}}),
        json.dumps({"reg_config": {"jacobian_threshold": 1.5}}),
        json.dumps({"reg_config": {"cc_radius": -1}}),
        json.dumps({"reg_config": {"step_length": -1}}),
        json.dumps({"reg_config": {"conv_window": -3}}),
        json.dumps({"jlf_params": {"patch_radius": 1.5}}),
        json.dumps({"jlf_params": {"beta": float("nan")}}),
        json.dumps({"fusoin": "mv"}),
        json.dumps({"fusion": "mv", "shrink_factors": [2, 1]}),
        json.dumps({"mode": ["wmn"]}),
        json.dumps({"mode": {"x": 1}}),
        json.dumps({"fusion": ""}),
        json.dumps({"fusion": 0}),
    ],
    ids=[
        "unknown-key", "bad-value", "not-json", "json-array", "missing-file",
        "zero-shrink", "short-levels", "negative-iters",
        "no-metric-samples", "zero-bins", "fractional-bins", "jacobian-above-one",
        "negative-cc-radius", "negative-step", "negative-stall-window", "fractional-patch", "nan-beta",
        "misspelt-top-level-key", "section-key-at-top-level",
        "mode-list", "mode-object", "empty-fusion", "zero-fusion",
    ],
)
def test_segment_bad_config_exits_1(tmp_path, capsys, text):
    """A config file that is not a JSON object, or that the parameter classes reject,
    is a usage error reported before any data is read (None: the file does not exist)."""
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    missing_input, missing_atlas = str(tmp_path / "in.nii.gz"), str(tmp_path / "atlas")
    args = ["segment", "--input", missing_input, "--atlas", missing_atlas, "--out-dir", str(tmp_path / "o")]
    assert main(args + ["--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "UsageError"


def test_segment_one_voxel_pyramid_level_exits_2(tmp_path, capsys, warp_free):
    """A shrink factor that leaves the 32^3 input one voxel wide is a data error
    with one JSON error line; it used to end in numpy's ValueError."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"reg_config": {"shrink_factors": [64], "linear_iters": [1], "deform_iters": [1]}}))
    out_dir = tmp_path / "o"
    args = ["segment", "--input", warp_free["input"], "--atlas", warp_free["atlas"], "--out-dir", str(out_dir)]
    assert main(args + ["--fusion", "mv", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "DegenerateInput"
    assert "shrink factor 64" in json.loads(err[0])["message"]
    assert not out_dir.exists()


def test_segment_single_slice_input_exits_2(tmp_path, capsys, warp_free):
    """One slice of the input has no pyramid level with a second voxel along z,
    so it is a data error, not a registration on an empty MI sample."""
    subject = imgio.read_volume(warp_free["input"])
    affine = subject.geometry.affine.copy()
    affine[:3, 3] += 16 * affine[:3, 2]
    path = str(tmp_path / "slice.nii.gz")
    imgio.write_volume(VolumeGrid(subject.data[:, :, 16:17], affine), path)
    out_dir = tmp_path / "o"
    args = ["segment", "--input", path, "--atlas", warp_free["atlas"], "--out-dir", str(out_dir)]
    assert main(args + ["--fusion", "mv"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "DegenerateInput"
    assert not out_dir.exists()


def test_segment_folding_deformable_result_exits_3(tmp_path, capsys, monkeypatch, warp_free):
    """register_deformable's own Jacobian check: a result whose positive-Jacobian fraction
    is below the threshold is FoldingDetected, exit 3, one JSON line and no output
    directory. No fraction reaches 1.5, so every deformable result fails it."""
    monkeypatch.setattr(register, "_JACOBIAN_THRESHOLD", 1.5)
    out_dir = tmp_path / "o"
    args = ["segment", "--input", warp_free["input"], "--atlas", warp_free["atlas"], "--out-dir", str(out_dir)]
    assert main(args + ["--fusion", "mv"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "FoldingDetected"
    assert "below 1.5" in json.loads(err[0])["message"]
    assert not out_dir.exists()


def test_segment_manifest_round_trips_as_a_config(tmp_path, warp_free):
    """--config mirrors the run manifest: fed back in, a manifest reproduces its run byte for byte."""
    first = {
        "mode": "mp2uni",
        "reg_config": {"shrink_factors": [2, 1], "linear_iters": [10, 5], "deform_iters": [20, 10]},
        "jlf_params": {"patch_radius": 1},
    }
    (tmp_path / "first.json").write_text(json.dumps(first))
    args = ["segment", "--input", warp_free["input"], "--atlas", warp_free["atlas"], "--true-warp", warp_free["warp"]]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a), "--config", str(tmp_path / "first.json")]) == 0
    assert main(args + ["--out-dir", str(b), "--config", str(a / "manifest.json")]) == 0
    for name in ("segmentation.nii.gz", "volumes.csv", "manifest.json"):
        assert _sha(a / name) == _sha(b / name), name
    man = json.load(open(b / "manifest.json"))
    assert (man["mode"], man["fusion"], man["reg_config"]) == ("mp2uni", "mv", first["reg_config"])


@pytest.mark.parametrize("workers", [0, -3])
def test_segment_rejects_fewer_than_one_worker(tmp_path, workers):
    """The worker count is checked before anything is read or computed."""
    missing_input, missing_atlas = str(tmp_path / "in.nii.gz"), str(tmp_path / "atlas")
    with pytest.raises(UsageError):
        run_segment(missing_input, missing_atlas, str(tmp_path / "o"), n_workers=workers)
    args = ["segment", "--input", missing_input, "--atlas", missing_atlas, "--out-dir", str(tmp_path / "o")]
    assert main(args + ["--workers", str(workers)]) == 1
    assert main(args + ["--workers", "1"]) == 2  # the same call with one worker fails on the data
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", [2.5, "2", True])
def test_segment_rejects_a_worker_count_that_is_not_an_integer(tmp_path, workers):
    """A worker count must be an integer, not a bool, checked before anything is read."""
    missing_input, missing_atlas = str(tmp_path / "in.nii.gz"), str(tmp_path / "atlas")
    with pytest.raises(UsageError, match="n_workers"):
        run_segment(missing_input, missing_atlas, str(tmp_path / "o"), n_workers=workers)
    assert not (tmp_path / "o").exists()
