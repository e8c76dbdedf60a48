"""Inversion-recovery contrast synthesis."""

import numpy as np
import pytest

from atlasfuse import imgio
from atlasfuse.cli import main
from atlasfuse.errors import GeometryMismatch, NonPositiveTI
from atlasfuse.grid import VolumeGrid
from atlasfuse.synth import DEFAULT_TI_MS, SynthesisParams, null_point_t1, synthesize_wmn


def _t1_volume(values):
    arr = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return VolumeGrid(arr, np.eye(4))


def test_null_point_value():
    assert null_point_t1(750.0) == pytest.approx(750.0 / np.log(2.0), abs=1e-12)


def test_null_point_signal_is_zero():
    vol = _t1_volume([null_point_t1(750.0)])
    out = synthesize_wmn(vol, SynthesisParams(ti_ms=750.0))
    assert abs(out.data[0, 0, 0]) < 1e-9


def test_signed_closed_form_value():
    # 1 - 2*exp(-750/1500) computed with an independent high-precision evaluator
    out = synthesize_wmn(_t1_volume([1500.0]), SynthesisParams(signed=True))
    assert out.data[0, 0, 0] == pytest.approx(-0.21306131942526685, abs=1e-12)


def test_magnitude_is_default_and_nonnegative():
    rng = np.random.default_rng(0)
    vol = _t1_volume(rng.uniform(200.0, 3000.0, size=64))
    out = synthesize_wmn(vol)
    assert np.all(out.data >= 0)


def test_t1_zero_maps_to_zero_in_both_modes():
    for signed in (False, True):
        out = synthesize_wmn(_t1_volume([0.0]), SynthesisParams(signed=signed))
        assert out.data[0, 0, 0] == 0.0


def test_t1_floor_masks_failed_fits():
    out = synthesize_wmn(_t1_volume([0.5, -3.0]))
    assert np.all(out.data == 0.0)


def test_signed_monotone_decreasing_in_t1():
    rng = np.random.default_rng(1)
    t1 = rng.uniform(100.0, 4000.0, size=(2, 500))
    lo, hi = np.minimum(t1[0], t1[1]), np.maximum(t1[0], t1[1])
    keep = hi - lo > 1e-6
    s_lo = synthesize_wmn(_t1_volume(lo[keep]), SynthesisParams(signed=True)).data.ravel()
    s_hi = synthesize_wmn(_t1_volume(hi[keep]), SynthesisParams(signed=True)).data.ravel()
    assert np.all(s_lo > s_hi)


def test_signed_bounds():
    rng = np.random.default_rng(2)
    vol = _t1_volume(rng.uniform(10.0, 10000.0, size=256))
    out = synthesize_wmn(vol, SynthesisParams(signed=True))
    assert np.all(out.data > -1.0) and np.all(out.data <= 1.0)


def test_null_point_bisection():
    """Zero crossing located by bisection sits at TI/ln 2 within 1e-6 ms."""
    ti = 750.0
    lo, hi = 500.0, 2000.0

    def s(t1):
        return 1.0 - 2.0 * np.exp(-ti / t1)

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if s(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(null_point_t1(ti), abs=1e-6)


def test_m0_volume_scales_output():
    t1 = _t1_volume([1500.0, 1500.0])
    m0 = VolumeGrid(np.array([2.0, 4.0]).reshape(-1, 1, 1), np.eye(4))
    out = synthesize_wmn(t1, SynthesisParams(m0=m0, signed=True))
    assert out.data[1, 0, 0] == pytest.approx(2.0 * out.data[0, 0, 0], abs=1e-12)


def test_m0_geometry_mismatch():
    t1 = _t1_volume([1500.0])
    m0 = VolumeGrid(np.zeros((2, 1, 1)), np.eye(4))
    with pytest.raises(GeometryMismatch):
        synthesize_wmn(t1, SynthesisParams(m0=m0))


def test_non_positive_ti():
    with pytest.raises(NonPositiveTI):
        SynthesisParams(ti_ms=0.0)
    with pytest.raises(NonPositiveTI):
        SynthesisParams(ti_ms=-5.0)


@pytest.mark.parametrize("ti", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_ti(ti):
    with pytest.raises(NonPositiveTI):
        SynthesisParams(ti_ms=ti)


@pytest.mark.parametrize("ti", ["nan", "inf"])
def test_cli_non_finite_ti_exits_1_without_output(tmp_path, ti):
    t1_path, out_path = tmp_path / "t1.nii.gz", tmp_path / "wmn.nii.gz"
    imgio.write_volume(_t1_volume([1500.0, 900.0]), str(t1_path))
    assert main(["synth", "--t1", str(t1_path), "--ti", ti, "--out", str(out_path)]) == 1
    assert not out_path.exists()


def test_cli_non_finite_m0_voxel_maps_to_zero(tmp_path):
    """A NaN or inf M0 voxel is a failed fit, like a T1 at the floor: it maps to 0,
    and the other voxels keep the signal model."""
    t1 = _t1_volume([1500.0, 900.0, 1200.0, 1300.0])
    paths = {name: str(tmp_path / f"{name}.nii.gz") for name in ("t1", "m0", "wmn")}
    imgio.write_volume(t1, paths["t1"])
    imgio.write_volume(t1.with_data(np.array([np.nan, np.inf, -np.inf, 2.0]).reshape(-1, 1, 1)), paths["m0"])
    assert main(["synth", "--t1", paths["t1"], "--m0", paths["m0"], "--out", paths["wmn"]]) == 0
    out = imgio.read_volume(paths["wmn"]).data.ravel()
    want = np.float32(2.0 * abs(1.0 - 2.0 * np.exp(-DEFAULT_TI_MS / 1300.0)))
    assert out.tolist() == [0.0, 0.0, 0.0, want]
