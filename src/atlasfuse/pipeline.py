"""End-to-end segmentation workflow and evaluation entry points.

Segmentation runs in two halves that meet at the template. The library half
(``_prior_warps``) yields each prior's warp to the template and never reads
the input. The input half (``_register_input``) aligns the template rigidly,
transfers its crop box into the input, crops, and registers the cropped pair
deformably. ``run_segment`` inverts that warp once, warps each prior through
the template, fuses the labels, and uncrops the result into the input frame.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__, imgio
from .atomic import atomic_open
from .errors import DataError, GeometryMismatch, InsufficientSubjects, RowMismatch, UsageError
from .fusion import JlfParams, joint_label_fusion, majority_vote
from .grid import CropBox, crop, default_scheme, resample, uncrop
from .library import AtlasLibrary, read_data_file, template_path
from .metrics import (
    WHOLE_THALAMUS_CODE,
    bonferroni_threshold,
    build_report,
    nucleus_volume,
    paired_t_test,
    write_stats_csv,
)
from .register import (
    AffineTransform,
    RegConfig,
    compose_fields,
    invert_field,
    register_affine,
    register_deformable,
    register_rigid,
    resample_field,
    warp_labels,
)

# each mode and the fusion it selects when none is given; nothing else differs
DEFAULT_FUSION = {"wmn": "jlf", "mp2syn": "jlf", "mp2uni": "mv"}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _prior_warp(prior, t_crop, lib, config):
    """Prior->template field: the cached one, or the prior registered onto t_crop in memory."""
    if prior.warp_to_template is not None:
        return prior.warp_to_template
    p_crop = crop(prior.intensity, lib.crop_box)
    d = register_deformable(t_crop, p_crop, AffineTransform.identity(), config)
    return resample_field(d, lib.template.geometry)


@contextmanager
def _prior_warps(lib, t_crop, config, n_workers):
    """Yield an iterator over each prior's field to the template, in library order.

    ``n_workers`` counts threads, the calling one included: above one, uncached
    priors start registering on ``n_workers - 1`` pool threads on entry, and one
    the pool has not started when it is reached runs on the calling thread. On
    exit, also on error, unstarted ones are cancelled and the pool is joined.
    The fields do not depend on ``n_workers``.
    """
    pool = ThreadPoolExecutor(max_workers=n_workers - 1) if n_workers > 1 else None
    try:
        futures = [
            pool.submit(_prior_warp, p, t_crop, lib, config) if pool and p.warp_to_template is None else None
            for p in lib.priors
        ]
        yield (
            _prior_warp(p, t_crop, lib, config) if fut is None or fut.cancel() else fut.result()
            for p, fut in zip(lib.priors, futures)
        )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _register_input(input_vol, lib, t_crop, config, true_warp_path):
    """Rigid template->input, the crop box transfer and the deformable stage, with a true warp in
    place of both registrations; returns the input crop box, the cropped input and its warp."""
    if true_warp_path:
        rigid, fwd = AffineTransform.identity(), imgio.read_field(true_warp_path)
    else:
        rigid, fwd = register_rigid(input_vol, lib.template, config), None
    w_input = rigid.inverse().map_points(lib.template.geometry.index_to_world(lib.crop_box.corners()))
    idx = input_vol.geometry.world_to_index(w_input)
    in_box = CropBox(np.floor(idx.min(axis=0)).astype(int), np.ceil(idx.max(axis=0)).astype(int))
    in_box = in_box.clipped(input_vol.dims)
    in_crop = crop(input_vol, in_box)
    if fwd is None:
        fwd = register_deformable(t_crop, in_crop, rigid.inverse(), config)
    return in_box, in_crop, fwd


def run_segment(
    input_path,
    atlas_dir,
    out_dir,
    mode="wmn",
    fusion=None,
    reg_config: RegConfig | None = None,
    jlf_params: JlfParams | None = None,
    true_warp_path=None,
    n_workers: int = 1,
):
    """Run the full multi-atlas segmentation; returns the paths of its three outputs.

    The atlas library is only read. A prior without a cached warp is
    registered to the template in memory (``_prior_warps`` says how
    ``n_workers`` spreads that work), and its id is listed under
    ``notes.computed_prior_warps`` in the manifest.
    """
    if mode not in DEFAULT_FUSION:
        raise UsageError(f"mode must be one of {tuple(DEFAULT_FUSION)}")
    fusion = fusion or DEFAULT_FUSION[mode]
    if fusion not in ("jlf", "mv"):
        raise UsageError("fusion must be 'jlf' or 'mv'")
    if n_workers < 1:
        raise UsageError("n_workers must be >= 1")
    config = reg_config or RegConfig()
    jparams = jlf_params or JlfParams()

    lib = AtlasLibrary.load(atlas_dir)
    input_vol = imgio.read_volume(input_path)
    t_crop = crop(lib.template, lib.crop_box)

    with _prior_warps(lib, t_crop, config, n_workers) as to_template:
        in_box, in_crop, fwd = _register_input(input_vol, lib, t_crop, config, true_warp_path)
        # held until fusion: the inverse's resample and each prior's compose and
        # warps share one voxel-centre grid of the input crop (Geometry.grid_world)
        in_grid = in_crop.geometry.grid_world()
        inv = resample_field(invert_field(fwd), in_crop.geometry)
        warped_labels, warped_ints = [], []
        for prior, field in zip(lib.priors, to_template):
            total = compose_fields(inv, field)
            warped_labels.append(warp_labels(prior.labels, total, in_crop.geometry))
            if fusion == "jlf":  # majority voting reads labels only
                warped_ints.append(resample(prior.intensity, in_crop.geometry, total))
    del in_grid

    if fusion == "mv":
        seg_crop = majority_vote(warped_labels)
    else:
        seg_crop = joint_label_fusion(in_crop, warped_ints, warped_labels, jparams)

    seg_full = uncrop(seg_crop, in_box, input_vol.geometry)
    os.makedirs(out_dir, exist_ok=True)
    seg_path = os.path.join(out_dir, "segmentation.nii.gz")
    imgio.write_volume(seg_full, seg_path)

    vol_path = os.path.join(out_dir, "volumes.csv")
    with atomic_open(vol_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label_code", "label_name", "volume_mm3"])
        w.writerow([WHOLE_THALAMUS_CODE, "Thalamus", f"{nucleus_volume(seg_full, WHOLE_THALAMUS_CODE):.6f}"])
        for code in lib.scheme.codes():
            e = lib.scheme[code]
            w.writerow([code, e.abbrev, f"{nucleus_volume(seg_full, code):.6f}"])

    manifest = {
        "mode": mode,
        "fusion": fusion,
        "reg_config": asdict(config),
        "jlf_params": asdict(jparams),
        "input_hashes": {
            "input": _sha256(input_path),
            "template": _sha256(template_path(atlas_dir)),
        },
        "tool_version": __version__,
        "notes": {
            "true_warp": bool(true_warp_path),
            "crop_box_input": in_box.to_dict(),
            "computed_prior_warps": sorted(p.id for p in lib.priors if p.warp_to_template is None),
            "label_interpolation": "nearest",
        },
    }
    man_path = os.path.join(out_dir, "manifest.json")
    with atomic_open(man_path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return {"segmentation": seg_path, "volumes": vol_path, "manifest": man_path}


def run_eval(
    seg_a_path,
    seg_b_path,
    out_dir,
    intensity_a_path=None,
    intensity_b_path=None,
    align=False,
    aggregate_hemispheres=False,
    subject_id="",
):
    """Compare two labelmaps in the default scheme; optional affine alignment of A onto B's grid."""
    scheme = default_scheme()
    seg_a = imgio.read_volume(seg_a_path, as_labels=True, scheme=scheme)
    seg_b = imgio.read_volume(seg_b_path, as_labels=True, scheme=scheme)
    if align:
        if not (intensity_a_path and intensity_b_path):
            raise UsageError("--align requires both intensity volumes")
        int_a = imgio.read_volume(intensity_a_path)
        int_b = imgio.read_volume(intensity_b_path)
        aff = register_affine(int_b, int_a)
        seg_a = warp_labels(seg_a, aff, seg_b.geometry)
    elif not seg_a.geometry.close_to(seg_b.geometry):
        raise GeometryMismatch("labelmap grids differ; pass --align with intensity volumes")
    report = build_report(seg_a, seg_b, scheme, aggregate_hemispheres)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    json_path = os.path.join(out_dir, "metrics.json")
    report.to_csv(csv_path, subject_id=subject_id)
    report.to_json(json_path)
    return {"csv": csv_path, "json": json_path, "report": report}


def _read_metrics_csv(path, metric):
    """(subject, code) -> metric value or None, and code -> label name.

    An empty cell is a missing value. A missing file is MissingFile; a file
    that cannot be read or lacks the metric's column, or a row without an
    integer code or a finite numeric value, is DataError.
    """

    def parse(f):
        rows, names = {}, {}
        reader = csv.DictReader(f)
        if metric not in (reader.fieldnames or ()):
            raise DataError(f"{path} has no {metric!r} column")
        for row in reader:
            code = int(row["label_code"])
            val = float(row[metric]) if row[metric] != "" else None
            if val is not None and not np.isfinite(val):
                raise DataError(f"{path}: non-finite {metric} for subject {row['subject_id']}")
            rows[(row["subject_id"], code)] = val
            names[code] = row["label_name"]
        return rows, names

    return read_data_file(path, parse)


def run_stats(csv_a_path, csv_b_path, out_path, m=13, metric="dice"):
    """Per-label paired t-tests of metric A vs B across subjects; m is the Bonferroni comparison count."""
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    a, names = _read_metrics_csv(csv_a_path, metric)
    b, _ = _read_metrics_csv(csv_b_path, metric)
    if set(a) != set(b):
        raise RowMismatch("subject/label rows differ between the two CSVs")
    results = []
    for code in sorted(names):
        subjects = sorted(s for s, c in a if c == code)
        xs = [a[(s, code)] for s in subjects]
        ys = [b[(s, code)] for s in subjects]
        pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if len(pairs) < 2:
            raise InsufficientSubjects(f"label {code}: fewer than 2 paired subjects")
        r = paired_t_test([p[0] for p in pairs], [p[1] for p in pairs], m=m, code=code, name=names[code])
        results.append(r)
    write_stats_csv(results, out_path)
    return {"csv": out_path, "results": results, "bonferroni_threshold": bonferroni_threshold(m)}
