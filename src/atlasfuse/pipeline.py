"""End-to-end segmentation workflow and evaluation entry points.

Segmentation runs in two halves that meet at the template. The library half
(``_prior_warp``) gives each prior's warp to the template and never reads the
input. The input half (``_register_input``) aligns the input rigidly to the
template, composes that map into the input's header, transfers the template's
crop box into the placed input, crops, and registers the cropped pair
deformably: from the rigid stage on, the input lies in template space.
``_registrations`` runs both halves: inline with one worker, else as jobs on
one pool of ``n_workers`` threads, the input's first. ``run_segment`` inverts
psi onto the placed input crop, warps each prior through the template as its
field arrives, fuses the labels, and pastes the result back by index, under
the input's own header.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__, imgio
from .atomic import atomic_open, make_dirs
from .errors import GeometryMismatch, InsufficientSubjects, RowMismatch, UsageError
from .fusion import JlfParams, joint_label_fusion, majority_vote
from .grid import AffineTransform, CropBox, Geometry, _is_int, crop, default_scheme, resample, uncrop
from .library import AtlasLibrary, template_path
from .metrics import (
    DEFAULT_COMPARISONS,
    LABEL_INTERPOLATION_NOTE,
    METRICS,
    bonferroni_threshold,
    build_report,
    paired_t_test,
    read_metrics_csv,
    write_stats_csv,
    write_volumes_csv,
)
from .register import (
    RegConfig,
    compose_fields,
    invert_field,
    register_affine,
    register_deformable,
    register_rigid,
    resample_field,
    warp_labels,
)

FUSIONS = ("jlf", "mv")
# each mode and the fusion it selects when none is given; nothing else differs
DEFAULT_FUSION = {"wmn": "jlf", "mp2syn": "jlf", "mp2uni": "mv"}
# manifest.json's top-level keys: the run's settings, which a config file may
# give (run_segment's parameters of the same names), then the run's record
CONFIG_KEYS = ("mode", "fusion", "reg_config", "jlf_params")
MANIFEST_KEYS = (*CONFIG_KEYS, "input_hashes", "tool_version", "notes")
# the files run_segment and run_eval write in out_dir, under the keys they return
SEGMENT_OUTPUTS = {"segmentation": "segmentation.nii.gz", "volumes": "volumes.csv", "manifest": "manifest.json"}
EVAL_OUTPUTS = {"csv": "metrics.csv", "json": "metrics.json"}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_config(path):
    """run_segment's settings, by parameter name, from a JSON file that mirrors manifest.json.

    A manifest's record of its run is ignored, so a manifest reruns its
    segmentation. A file that cannot be read or is not a JSON object, a key no
    manifest holds, or a section its class rejects is a UsageError.
    """
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(MANIFEST_KEYS))
    if unknown:
        raise UsageError(f"config {path} has keys no manifest holds: {unknown}")
    settings = {key: cfg[key] for key in CONFIG_KEYS if key in cfg}
    for key, cls in (("reg_config", RegConfig), ("jlf_params", JlfParams)):
        try:
            settings[key] = cls(**cfg.get(key, {}))
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad {key}: {e}") from e
    return settings


def _prior_warp(prior, t_crop, lib, config):
    """Prior->template field: the cached one, on its file's lattice, or the prior registered onto
    t_crop in memory, on the demons' finest level of t_crop (t_crop's own lattice when the last
    shrink factor is 1). An uncached prior lies on the template's lattice (AtlasLibrary.load)."""
    if prior.warp_to_template is not None:
        return prior.warp_to_template
    return register_deformable(t_crop, crop(prior.intensity, lib.crop_box), config=config)


def _register_input(input_vol, lib, t_crop, config, true_warp_path):
    """Rigid input->template, the crop box transfer and the deformable stage, with a true warp in
    place of both registrations; returns the input crop box, the input crop placed by the rigid
    map in its header, and psi (the template->input map is x + psi(x)). A registered psi lies
    on the demons' finest level of the template crop, a true warp on its file's lattice."""
    if true_warp_path:
        rigid, psi = AffineTransform.identity(), imgio.read_field(true_warp_path)
    else:
        rigid, psi = register_rigid(input_vol, lib.template, config), None
    g = input_vol.geometry
    placed = input_vol.with_data(input_vol.data, Geometry(g.dims, rigid.matrix @ g.affine))
    idx = placed.geometry.world_to_index(lib.template.geometry.index_to_world(lib.crop_box.corners()))
    in_box = CropBox(np.floor(idx.min(axis=0)).astype(int), np.ceil(idx.max(axis=0)).astype(int)).clipped(g.dims)
    in_crop = crop(placed, in_box)
    if psi is None:
        psi = register_deformable(t_crop, in_crop, config)
    return in_box, in_crop, psi


@contextmanager
def _registrations(input_vol, lib, t_crop, config, true_warp_path, n_workers):
    """Yield the input's registration (``_register_input``) and an iterator over each
    prior's field to the template (``_prior_warp``), in library order.

    With one worker, or with every prior's warp cached, all of it runs on the
    calling thread, the priors as the iterator reaches them. Otherwise a pool of
    ``n_workers`` threads runs the input's registration and then every prior's,
    in that order, while the calling thread goes on with what it yields. On
    exit, also on error, registrations the pool has not started are cancelled
    and the pool is joined. The results do not depend on ``n_workers``.
    """
    if n_workers == 1 or all(p.warp_to_template is not None for p in lib.priors):
        yield (
            _register_input(input_vol, lib, t_crop, config, true_warp_path),
            (_prior_warp(p, t_crop, lib, config) for p in lib.priors),
        )
        return
    pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        registered = pool.submit(_register_input, input_vol, lib, t_crop, config, true_warp_path)
        futures = [pool.submit(_prior_warp, p, t_crop, lib, config) for p in lib.priors]
        yield registered.result(), (f.result() for f in futures)
    finally:
        pool.shutdown(cancel_futures=True)


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
    registered to the template in memory, and its id is listed under
    ``notes.computed_prior_warps`` in the manifest. ``n_workers`` threads run
    the registrations while the calling thread inverts and assembles
    (``_registrations``); one worker starts no thread. Settings are checked
    before anything is read: a bad one is a UsageError.
    """
    if not isinstance(mode, str) or mode not in DEFAULT_FUSION:
        raise UsageError(f"mode must be one of {tuple(DEFAULT_FUSION)}, not {mode!r}")
    if fusion is None:
        fusion = DEFAULT_FUSION[mode]
    if fusion not in FUSIONS:
        raise UsageError(f"fusion must be one of {FUSIONS}, not {fusion!r}")
    if not _is_int(n_workers) or n_workers < 1:
        raise UsageError(f"n_workers must be an integer >= 1, not {n_workers!r}")
    config = reg_config or RegConfig()
    jparams = jlf_params or JlfParams()

    lib = AtlasLibrary.load(atlas_dir)
    input_vol = imgio.read_volume(input_path)
    t_crop = crop(lib.template, lib.crop_box)

    with _registrations(input_vol, lib, t_crop, config, true_warp_path, n_workers) as (registered, to_template):
        in_box, in_crop, psi = registered
        inv = resample_field(invert_field(psi), in_crop.geometry)
        warped_labels, warped_ints = [], []
        for prior, field in zip(lib.priors, to_template):
            total = compose_fields(inv, field)
            warped_labels.append(warp_labels(prior.labels, total, in_crop.geometry))
            if fusion == "jlf":  # majority voting reads labels only
                warped_ints.append(resample(prior.intensity, in_crop.geometry, total))

    if fusion == "mv":
        seg_crop = majority_vote(warped_labels)
    else:
        seg_crop = joint_label_fusion(in_crop, warped_ints, warped_labels, jparams)

    seg_full = uncrop(seg_crop, in_box, input_vol.geometry)
    make_dirs(out_dir)
    out = {key: os.path.join(out_dir, name) for key, name in SEGMENT_OUTPUTS.items()}
    imgio.write_volume(seg_full, out["segmentation"])
    write_volumes_csv(seg_full, lib.scheme, out["volumes"])

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
            **LABEL_INTERPOLATION_NOTE,
        },
    }
    with atomic_open(out["manifest"]) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return out


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
    if align and not (intensity_a_path and intensity_b_path):
        raise UsageError("--align requires both intensity volumes")
    scheme = default_scheme()
    seg_a = imgio.read_volume(seg_a_path, as_labels=True, scheme=scheme)
    seg_b = imgio.read_volume(seg_b_path, as_labels=True, scheme=scheme)
    if align:
        int_a = imgio.read_volume(intensity_a_path)
        int_b = imgio.read_volume(intensity_b_path)
        aff = register_affine(int_b, int_a)
        seg_a = warp_labels(seg_a, aff, seg_b.geometry)
    elif not seg_a.geometry.close_to(seg_b.geometry):
        raise GeometryMismatch("labelmap grids differ; pass --align with intensity volumes")
    report = build_report(seg_a, seg_b, scheme, aggregate_hemispheres)
    make_dirs(out_dir)
    out = {key: os.path.join(out_dir, name) for key, name in EVAL_OUTPUTS.items()}
    report.to_csv(out["csv"], subject_id=subject_id)
    report.to_json(out["json"])
    return {**out, "report": report}


def run_stats(csv_a_path, csv_b_path, out_path, m=DEFAULT_COMPARISONS, metric=METRICS[0]):
    """Per-label paired t-tests of metric A vs B across subjects; m is the Bonferroni comparison count."""
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    a, names = read_metrics_csv(csv_a_path, metric)
    b, _ = read_metrics_csv(csv_b_path, metric)
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
