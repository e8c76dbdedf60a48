"""Segmentation accuracy metrics and paired statistics.

Dice uses the standard Soerensen denominator |A|+|B|; VSI uses the absolute
volume difference, so both live in [0, 1]. Centroids are unweighted means of
voxel-center world coordinates (mm). Both-empty structures score dice = 1
and vsi = 1 and are flagged, so aggregate tables stay NaN-free.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import stdtr

from .atomic import atomic_open
from .errors import DataError, EmptyStructure, InsufficientSubjects, LengthMismatch
from .grid import LabelScheme, LabelVolume, require_common_grid
from .library import read_data_file

WHOLE_THALAMUS_CODE = -1
WHOLE_THALAMUS_NAME = "Thalamus"
DEFAULT_COMPARISONS = 13  # 12 nuclei + whole thalamus
_ALPHA = 0.05  # significance level of one test, before the Bonferroni correction
# labels are carried by nearest neighbour, wherever a labelmap is warped
LABEL_INTERPOLATION_NOTE = {"label_interpolation": "nearest"}

METRICS = ("dice", "vsi", "centroid_dist_mm")  # the metrics-table columns stats compares; dice first
# the metrics table's value columns, each a NucleusMetrics field, and the format metrics.csv writes
_VALUE_FORMATS = {"vol_a_mm3": ".6f", "vol_b_mm3": ".6f", **dict.fromkeys(METRICS, ".9f")}


def _mask(labels: LabelVolume, code) -> np.ndarray:
    """Voxels of one structure; the whole thalamus is every nonzero code."""
    return labels.data > 0 if code == WHOLE_THALAMUS_CODE else labels.data == code


def dice(a: LabelVolume, b: LabelVolume, code) -> float:
    """2|A^B| / (|A|+|B|); 1 when both empty, 0 when exactly one is."""
    require_common_grid(a, b)
    ma, mb = _mask(a, code), _mask(b, code)
    na, nb = int(ma.sum()), int(mb.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / (na + nb)


def vsi(a: LabelVolume, b: LabelVolume, code) -> float:
    """1 - ||A|-|B|| / (|A|+|B|); 1 when both empty."""
    require_common_grid(a, b)
    ma, mb = _mask(a, code), _mask(b, code)
    na, nb = int(ma.sum()), int(mb.sum())
    if na + nb == 0:
        return 1.0
    return 1.0 - abs(na - nb) / (na + nb)


def centroid(labels: LabelVolume, code) -> np.ndarray:
    """World-mm centroid of a structure's voxel centers."""
    idx = np.argwhere(_mask(labels, code))
    if idx.size == 0:
        raise EmptyStructure(f"code {code} absent")
    return labels.geometry.index_to_world(idx).mean(axis=0)


def centroid_distance(a: LabelVolume, b: LabelVolume, code) -> float:
    require_common_grid(a, b)
    return float(np.linalg.norm(centroid(a, code) - centroid(b, code)))


def nucleus_volume(labels: LabelVolume, code) -> float:
    """Structure volume in mm^3 (0 for an absent code)."""
    return float(_mask(labels, code).sum()) * labels.geometry.voxel_volume


@dataclass
class NucleusMetrics:
    code: int
    name: str
    vol_a_mm3: float
    vol_b_mm3: float
    dice: float
    vsi: float
    centroid_dist_mm: float | None  # None when either side is empty
    both_empty: bool = False


@dataclass
class PairedTestResult:
    code: int
    name: str
    t: float
    dof: int
    p: float
    significant_raw: bool
    significant_bonferroni: bool
    zero_variance: bool = False


@dataclass
class SegmentationReport:
    rows: list
    notes: dict

    def to_csv(self, path, subject_id=""):
        """One row per structure; an empty cell is a missing value (read_metrics_csv)."""
        with atomic_open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["subject_id", "label_code", "label_name", *_VALUE_FORMATS])
            for r in self.rows:
                values = ((getattr(r, col), fmt) for col, fmt in _VALUE_FORMATS.items())
                w.writerow([subject_id, r.code, r.name, *("" if v is None else format(v, fmt) for v, fmt in values)])

    def to_json(self, path):
        with atomic_open(path) as f:
            json.dump({"notes": self.notes, "rows": [asdict(r) for r in self.rows]}, f, indent=2)


def read_metrics_csv(path, metric):
    """(subject, code) -> metric value or None, and code -> label name, from a metrics.csv.

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


def write_volumes_csv(labels: LabelVolume, scheme: LabelScheme, path):
    """Volume in mm^3 of the whole thalamus and of each of scheme's codes."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label_code", "label_name", "volume_mm3"])
        w.writerow([WHOLE_THALAMUS_CODE, WHOLE_THALAMUS_NAME, f"{nucleus_volume(labels, WHOLE_THALAMUS_CODE):.6f}"])
        for code in scheme.codes():
            w.writerow([code, scheme[code].abbrev, f"{nucleus_volume(labels, code):.6f}"])


def _aggregate_bilateral(labels: LabelVolume, scheme: LabelScheme) -> LabelVolume:
    """The labelmap with each left code replaced by its right partner."""
    data = labels.data.copy()
    for right, left in scheme.bilateral_pairs():
        data[data == left] = right
    return labels.with_data(data)


def build_report(
    seg_a: LabelVolume,
    seg_b: LabelVolume,
    scheme: LabelScheme,
    aggregate_hemispheres: bool = False,
) -> SegmentationReport:
    """Per-structure metrics of scheme's codes plus a whole-thalamus row (union of all codes)."""
    require_common_grid(seg_a, seg_b)
    if aggregate_hemispheres:
        seg_a = _aggregate_bilateral(seg_a, scheme)
        seg_b = _aggregate_bilateral(seg_b, scheme)
        scheme = LabelScheme([e for e in scheme.entries.values() if e.hemisphere != "left"])
    rows = []
    for code in [WHOLE_THALAMUS_CODE, *scheme.codes()]:
        if code == WHOLE_THALAMUS_CODE:
            name = WHOLE_THALAMUS_NAME
        else:
            e = scheme[code]
            name = e.abbrev if aggregate_hemispheres else f"{e.abbrev}-{e.hemisphere[:1].upper()}"
        va = nucleus_volume(seg_a, code)
        vb = nucleus_volume(seg_b, code)
        d = dice(seg_a, seg_b, code)
        v = vsi(seg_a, seg_b, code)
        try:
            cd = centroid_distance(seg_a, seg_b, code)
        except EmptyStructure:
            cd = None
        rows.append(NucleusMetrics(code, name, va, vb, d, v, cd, both_empty=(va == 0 and vb == 0)))
    return SegmentationReport(rows, {"aggregated_hemispheres": aggregate_hemispheres, **LABEL_INTERPOLATION_NOTE})


def student_t_sf_two_sided(t: float, dof: int) -> float:
    """Two-sided tail probability of Student's t.

    Taken from the lower tail at -|t|: ``1 - stdtr(dof, |t|)`` cancels to 0
    once the tail drops below the double-precision epsilon.
    """
    return float(2.0 * stdtr(dof, -abs(t)))


def paired_t_test(x, y, m: int = DEFAULT_COMPARISONS, code: int = 0, name: str = "") -> PairedTestResult:
    """Two-sided paired t-test with a Bonferroni flag at 0.05/m."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch("x and y must be equal-length 1D sequences")
    n = len(x)
    if n < 2:
        raise InsufficientSubjects("paired t-test needs n >= 2")
    d = x - y
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    dof = n - 1
    zero_var = sd == 0.0
    if zero_var:
        if mean == 0.0:
            t, p = 0.0, 1.0
        else:
            t = np.inf if mean > 0 else -np.inf
            p = 0.0
    else:
        t = mean / (sd / np.sqrt(n))
        p = student_t_sf_two_sided(t, dof)
    return PairedTestResult(
        code=code,
        name=name,
        t=float(t),
        dof=dof,
        p=p,
        significant_raw=p < _ALPHA,
        significant_bonferroni=p < bonferroni_threshold(m),
        zero_variance=zero_var,
    )


def bonferroni_threshold(m: int = DEFAULT_COMPARISONS) -> float:
    return _ALPHA / m


def write_stats_csv(results, path):
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label_code", "label_name", "t", "dof", "p", "sig_raw", "sig_bonferroni"])
        for r in results:
            w.writerow(
                [r.code, r.name, f"{r.t:.9g}", r.dof, f"{r.p:.9g}", int(r.significant_raw), int(r.significant_bonferroni)]
            )
