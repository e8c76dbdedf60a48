"""Shared fixtures: phantom data, an atlas library on disk, and one pipeline run.

Heavy artifacts are session-scoped so the pipeline executes once and every
test that needs its outputs reuses them. All seeds are fixed; fixtures are
deterministic across runs.
"""

import time

import pytest

from atlasfuse import imgio
from atlasfuse.phantom import WarpSpec, derive_atlases, make_subject, synthesized_base
from atlasfuse.pipeline import run_segment


@pytest.fixture(scope="session")
def base():
    """(wmn_intensity, truth_labels, t1_map) on the 64^3 1 mm phantom grid."""
    return synthesized_base()


@pytest.fixture(scope="session")
def atlas_env(tmp_path_factory, base):
    """5-prior atlas library plus a held-out warped subject, written to disk."""
    wmn, truth, _ = base
    root = tmp_path_factory.mktemp("atlas_env")
    t0 = time.perf_counter()
    lib = derive_atlases((wmn, truth), n=5, seed=7)
    lib.save(str(root / "atlas"))
    subj_int, subj_truth, subj_warp = make_subject((wmn, truth), warp_spec=WarpSpec(seed=2024))
    build_s = time.perf_counter() - t0
    imgio.write_volume(subj_int, str(root / "subject.nii.gz"))
    imgio.write_volume(subj_truth, str(root / "subject_truth.nii.gz"))
    imgio.write_field(subj_warp, str(root / "subject_warp.nii.gz"))
    return {
        "root": str(root),
        "atlas": str(root / "atlas"),
        "subject": str(root / "subject.nii.gz"),
        "subject_truth_path": str(root / "subject_truth.nii.gz"),
        "subject_warp": str(root / "subject_warp.nii.gz"),
        "lib": lib,
        "subject_truth": subj_truth,
        "build_seconds": build_s,
    }


@pytest.fixture(scope="session")
def segment_run(tmp_path_factory, atlas_env):
    """One serial JLF pipeline run on the held-out subject."""
    out_dir = tmp_path_factory.mktemp("segrun") / "jlf"
    t0 = time.perf_counter()
    res = run_segment(
        atlas_env["subject"], atlas_env["atlas"], str(out_dir), mode="wmn", fusion="jlf"
    )
    res = dict(res)
    res["seconds"] = time.perf_counter() - t0
    return res
