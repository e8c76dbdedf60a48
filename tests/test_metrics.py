"""Overlap metrics, reports, and paired statistics."""

import csv

import numpy as np
import pytest

from atlasfuse.errors import (
    EmptyStructure,
    GeometryMismatch,
    InsufficientSubjects,
    LengthMismatch,
)
from atlasfuse.grid import LabelVolume, default_scheme
from atlasfuse.metrics import (
    WHOLE_THALAMUS_CODE,
    bonferroni_threshold,
    build_report,
    centroid,
    centroid_distance,
    dice,
    nucleus_volume,
    paired_t_test,
    student_t_sf_two_sided,
    vsi,
    write_stats_csv,
)


def _lab(data, spacing=None):
    aff = np.eye(4) if spacing is None else np.diag([*spacing, 1.0])
    return LabelVolume(np.asarray(data, dtype=np.int32), aff)


def _cube(lo, hi, code=1, dims=(16, 16, 16)):
    d = np.zeros(dims, dtype=np.int32)
    d[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = code
    return d


def test_dice_hand_values():
    a = _lab(_cube((0, 0, 0), (2, 2, 2)))
    assert dice(a, a, 1) == 1.0
    b = _lab(_cube((8, 8, 8), (10, 10, 10)))
    assert dice(a, b, 1) == 0.0
    # |A|=8, |B|=8, |A and B|=4 -> 0.5
    c = _lab(_cube((0, 0, 1), (2, 2, 3)))
    assert dice(a, c, 1) == 0.5


def test_dice_empty_conventions():
    empty = _lab(np.zeros((4, 4, 4)))
    full = _lab(_cube((0, 0, 0), (2, 2, 2), dims=(4, 4, 4)))
    assert dice(empty, empty, 1) == 1.0
    assert dice(empty, full, 1) == 0.0


def test_vsi_hand_values():
    a = _lab(_cube((0, 0, 0), (4, 5, 5)))  # 100 voxels
    b = _lab(_cube((0, 0, 0), (2, 5, 5)))  # 50 voxels
    assert vsi(a, b, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert vsi(a, a, 1) == 1.0
    empty = _lab(np.zeros((16, 16, 16)))
    assert vsi(empty, b, 1) == 0.0
    assert vsi(empty, empty, 1) == 1.0


def test_symmetry():
    rng = np.random.default_rng(0)
    a = _lab(rng.integers(0, 3, size=(10, 10, 10)))
    b = _lab(rng.integers(0, 3, size=(10, 10, 10)))
    for code in (1, 2, WHOLE_THALAMUS_CODE):
        assert dice(a, b, code) == dice(b, a, code)
        assert vsi(a, b, code) == vsi(b, a, code)
        assert centroid_distance(a, b, code) == centroid_distance(b, a, code)


def test_grid_mismatch_rejected():
    a = _lab(np.zeros((4, 4, 4)))
    b = _lab(np.zeros((4, 4, 4)), spacing=(2.0, 1.0, 1.0))
    with pytest.raises(GeometryMismatch):
        dice(a, b, 1)


def test_centroid_pythagorean():
    a = np.zeros((16, 16, 16), dtype=np.int32)
    a[2, 2, 2] = 1
    b = np.zeros((16, 16, 16), dtype=np.int32)
    b[5, 6, 2] = 1
    assert centroid_distance(_lab(a), _lab(b), 1) == pytest.approx(5.0, abs=1e-12)


def test_centroid_brute_force_oracle():
    rng = np.random.default_rng(1)
    aff = np.diag([0.7, 1.1, 0.9, 1.0])
    aff[:3, 3] = (4.0, -2.0, 1.0)
    data = (rng.random((12, 12, 12)) < 0.2).astype(np.int32)
    data[6, 6, 6] = 1
    lab = LabelVolume(data, aff)
    got = centroid(lab, 1)
    acc = np.zeros(3)
    n = 0
    for i in range(12):
        for j in range(12):
            for k in range(12):
                if data[i, j, k] == 1:
                    acc += (aff @ np.array([i, j, k, 1.0]))[:3]
                    n += 1
    assert np.allclose(got, acc / n, atol=1e-9)


def test_centroid_empty_structure():
    with pytest.raises(EmptyStructure):
        centroid(_lab(np.zeros((4, 4, 4))), 1)


def test_nucleus_volume_values():
    data = _cube((0, 0, 0), (4, 5, 5))  # 100 voxels
    assert nucleus_volume(_lab(data), 1) == pytest.approx(100.0)
    iso = _lab(data, spacing=(0.66, 0.66, 0.66))
    assert nucleus_volume(iso, 1) == pytest.approx(28.7496, abs=1e-9)
    assert nucleus_volume(_lab(data), 9) == 0.0


def test_whole_thalamus_is_union_of_codes():
    rng = np.random.default_rng(2)
    a = _lab(rng.integers(0, 4, size=(10, 10, 10)))
    union = int((a.data > 0).sum())
    assert nucleus_volume(a, WHOLE_THALAMUS_CODE) == pytest.approx(float(union))


def test_paired_t_zero_mean_difference():
    r = paired_t_test([1.0, 2.0, 3.0], [1.1, 2.2, 2.7])
    assert abs(r.t) < 1e-9
    assert r.p > 1.0 - 1e-9


def test_paired_t_identical_inputs():
    r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert r.t == 0.0 and r.p == 1.0 and r.zero_variance


def test_paired_t_constant_nonzero_difference():
    r = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert r.zero_variance and np.isinf(r.t) and r.p == 0.0
    assert r.significant_bonferroni


def test_paired_t_against_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    r = paired_t_test(x, y)
    d = x - y
    t = d.mean() / (d.std(ddof=1) / np.sqrt(10))
    assert r.t == pytest.approx(t, abs=1e-12)
    assert r.dof == 9


def test_t_sf_reference_value():
    # n = 13 -> dof 12; t = 2.18 sits just under the raw 0.05 threshold
    p = student_t_sf_two_sided(2.18, 12)
    assert p == pytest.approx(0.0499, abs=5e-4)
    assert 0.0038 < p < 0.05


@pytest.mark.parametrize(
    "t,dof", [(2.18, 12), (-3.5, 4), (20.0, 10), (40.0, 20), (-40.0, 20), (12.0, 2), (300.0, 7)]
)
def test_t_sf_matches_mpmath_in_the_tail(t, dof):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        # two-sided p = I_{dof / (dof + t^2)}(dof / 2, 1 / 2)
        x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
        exact = float(mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))
    p = student_t_sf_two_sided(t, dof)
    assert p > 0.0
    assert abs(p - exact) <= 1e-12 * exact


def test_bonferroni_threshold():
    assert bonferroni_threshold(13) == 0.05 / 13
    assert f"{bonferroni_threshold(13):.4f}" == "0.0038"


def test_paired_t_errors():
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(InsufficientSubjects):
        paired_t_test([1.0], [2.0])


def test_build_report_self_comparison():
    rng = np.random.default_rng(4)
    scheme = default_scheme()
    data = np.zeros((20, 20, 20), dtype=np.int32)
    data[2:6, 2:6, 2:6] = 1
    data[10:14, 2:6, 2:6] = 101
    data[2:5, 10:13, 2:5] = 7
    lab = LabelVolume(data, np.eye(4))
    report = build_report(lab, lab, scheme)
    assert report.rows[0].code == WHOLE_THALAMUS_CODE
    assert report.rows[0].name == "Thalamus"
    for row in report.rows:
        assert row.dice == 1.0 and row.vsi == 1.0
        if not row.both_empty:
            assert row.centroid_dist_mm == pytest.approx(0.0, abs=1e-12)
    assert len(report.rows) == 1 + len(scheme.codes())


def test_build_report_empty_other_side():
    scheme = default_scheme()
    data = np.zeros((16, 16, 16), dtype=np.int32)
    data[4:8, 4:8, 4:8] = 1
    a = LabelVolume(data, np.eye(4))
    b = LabelVolume(np.zeros((16, 16, 16), dtype=np.int32), np.eye(4))
    report = build_report(a, b, scheme)
    row = next(r for r in report.rows if r.code == 1)
    assert row.dice == 0.0 and row.vsi == 0.0 and row.centroid_dist_mm is None


def test_build_report_aggregates_hemispheres():
    scheme = default_scheme()
    data = np.zeros((20, 20, 20), dtype=np.int32)
    data[2:5, 2:5, 2:5] = 3
    data[10:13, 2:5, 2:5] = 103
    lab = LabelVolume(data, np.eye(4))
    report = build_report(lab, lab, scheme, aggregate_hemispheres=True)
    row = next(r for r in report.rows if r.code == 3)
    assert row.vol_a_mm3 == pytest.approx(54.0)  # both hemispheres pooled
    assert not any(r.code > 100 for r in report.rows)


def test_report_csv_columns(tmp_path):
    scheme = default_scheme()
    data = np.zeros((8, 8, 8), dtype=np.int32)
    data[2:4, 2:4, 2:4] = 1
    lab = LabelVolume(data, np.eye(4))
    path = str(tmp_path / "metrics.csv")
    build_report(lab, lab, scheme).to_csv(path, subject_id="s01")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "subject_id",
        "label_code",
        "label_name",
        "vol_a_mm3",
        "vol_b_mm3",
        "dice",
        "vsi",
        "centroid_dist_mm",
    ]
    assert all(r[0] == "s01" for r in rows[1:])


def test_stats_csv_columns(tmp_path):
    r = paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.0], code=1, name="Pul")
    path = str(tmp_path / "stats.csv")
    write_stats_csv([r], path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["label_code", "label_name", "t", "dof", "p", "sig_raw", "sig_bonferroni"]
    assert rows[1][0] == "1" and rows[1][1] == "Pul"
