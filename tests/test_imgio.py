"""NIfTI-1 reader/writer round trips and error contracts."""

import gzip
import json
import os

import numpy as np
import pytest

from atlasfuse import imgio
from atlasfuse.cli import main
from atlasfuse.errors import (
    BadMagic,
    DimMismatch,
    GeometryMismatch,
    IoFailure,
    LabelOverflow,
    MissingFile,
    UnsupportedDatatype,
)
from atlasfuse.grid import DeformationField, Geometry, LabelEntry, LabelScheme, LabelVolume, VolumeGrid
from atlasfuse.metrics import nucleus_volume


def _random_volume(rng, dims=(8, 8, 8), spacing=1.0):
    aff = np.diag([spacing, spacing, spacing, 1.0])
    aff[:3, 3] = (1.5, -2.0, 3.25)
    return VolumeGrid(rng.standard_normal(dims), aff)


def _patch_header(path, **fields):
    """Overwrite header fields of an uncompressed little-endian file in place."""
    raw = bytearray(open(path, "rb").read())
    hdr = np.frombuffer(bytes(raw[: imgio.HEADER_SIZE]), dtype=imgio._header_dtype("<")).copy()
    for name, value in fields.items():
        hdr[name] = value
    raw[: imgio.HEADER_SIZE] = hdr.tobytes()
    open(path, "wb").write(bytes(raw))


def test_scalar_roundtrip_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = _random_volume(rng)
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    back = imgio.read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))
    assert np.allclose(back.geometry.affine, vol.geometry.affine, atol=1e-5)


def test_label_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 13, size=(8, 8, 8), dtype=np.int32)
    lab = LabelVolume(data, np.eye(4))
    path = str(tmp_path / "l.nii.gz")
    imgio.write_volume(lab, path)
    back = imgio.read_volume(path, as_labels=True)
    assert np.array_equal(back.data, data)


def test_label_codes_are_checked_against_a_scheme_on_read(tmp_path):
    """Read with a scheme, a labelmap holding a code the scheme lacks is a data
    error whose message lists the codes as plain integers."""
    data = np.zeros((4, 4, 4), dtype=np.int32)
    data[0, 0, 0], data[1, 1, 1] = 1, 999
    path = str(tmp_path / "l.nii.gz")
    imgio.write_volume(LabelVolume(data, np.eye(4)), path)
    scheme = LabelScheme([LabelEntry(1, "A", "a", "right")])
    with pytest.raises(GeometryMismatch, match=r"codes not in scheme: \[999\]$"):
        imgio.read_volume(path, as_labels=True, scheme=scheme)
    assert np.array_equal(imgio.read_volume(path, as_labels=True).data, data)
    data[1, 1, 1] = 0
    imgio.write_volume(LabelVolume(data, np.eye(4)), path)
    assert np.array_equal(imgio.read_volume(path, as_labels=True, scheme=scheme).data, data)


def test_gzip_magic_bytes(tmp_path):
    vol = _random_volume(np.random.default_rng(2))
    path = str(tmp_path / "v.nii.gz")
    imgio.write_volume(vol, path)
    with open(path, "rb") as f:
        assert f.read(2) == b"\x1f\x8b"


def test_gzip_output_is_byte_reproducible(tmp_path):
    vol = _random_volume(np.random.default_rng(3))
    p1, p2 = str(tmp_path / "a.nii.gz"), str(tmp_path / "b.nii.gz")
    imgio.write_volume(vol, p1)
    imgio.write_volume(vol, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_failed_write_leaves_previous_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "v.nii.gz"
    imgio.write_volume(_random_volume(np.random.default_rng(4)), str(path))
    before = path.read_bytes()

    def disk_full(self, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(gzip.GzipFile, "write", disk_full)
    with pytest.raises(IoFailure):
        imgio.write_volume(_random_volume(np.random.default_rng(5)), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["v.nii.gz"]


def test_identity_affine_written_as_identity_sform(tmp_path):
    vol = VolumeGrid(np.zeros((4, 4, 4)), np.eye(4))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    assert np.allclose(imgio.read_volume(path).geometry.affine, np.eye(4))


def test_missing_file():
    with pytest.raises(MissingFile):
        imgio.read_volume("/nonexistent/file.nii.gz")


def test_bad_magic_two_file_form(tmp_path):
    vol = _random_volume(np.random.default_rng(4))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    raw[344:348] = b"ni1\x00"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(BadMagic):
        imgio.read_volume(path)


def test_bad_magic_garbage_header(tmp_path):
    path = str(tmp_path / "junk.nii")
    open(path, "wb").write(b"\x00" * 400)
    with pytest.raises(BadMagic):
        imgio.read_volume(path)


def test_truncated_file(tmp_path):
    path = str(tmp_path / "short.nii")
    open(path, "wb").write(b"\x00" * 100)
    with pytest.raises(BadMagic):
        imgio.read_volume(path)


def _cut_data(path):
    open(path, "r+b").truncate(os.path.getsize(path) - 100)
    return path


def _gzip_mangled(mangle):
    """A breaker that gzips the file and writes the stream through mangle."""

    def breaker(path):
        open(path + ".gz", "wb").write(mangle(gzip.compress(open(path, "rb").read(), mtime=0)))
        return path + ".gz"

    return breaker


CORRUPT_FILES = {
    "data-shorter-than-header": (_cut_data, DimMismatch),
    "gzip-cut-in-half": (_gzip_mangled(lambda b: b[: len(b) // 2]), IoFailure),
    "gzip-bad-crc": (_gzip_mangled(lambda b: b[:-8] + bytes(8)), IoFailure),
    "gzip-bad-body": (_gzip_mangled(lambda b: b[:10] + bytes(x ^ 0xFF for x in b[10:20]) + b[20:]), IoFailure),
    "nan-vox-offset": (lambda path: _patch_header(path, vox_offset=np.nan) or path, BadMagic),
    "inf-vox-offset": (lambda path: _patch_header(path, vox_offset=np.inf) or path, BadMagic),
}


@pytest.mark.parametrize("case", CORRUPT_FILES)
def test_truncated_or_corrupt_file_is_a_data_error(tmp_path, capsys, case):
    """A short, cut or corrupt file is bad data: read raises a DataError and
    the CLI exits 2 with one JSON error line, not a traceback."""
    breaker, error = CORRUPT_FILES[case]
    path = str(tmp_path / "seg.nii")
    imgio.write_volume(LabelVolume(np.ones((8, 8, 8), dtype=np.int32), np.eye(4)), path)
    path = breaker(path)
    with pytest.raises(error):
        imgio.read_volume(path, as_labels=True)
    out_dir = tmp_path / "eval"
    assert main(["eval", "--seg-a", path, "--seg-b", path, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == error.__name__
    assert not out_dir.exists()


def test_unsupported_datatype(tmp_path):
    vol = _random_volume(np.random.default_rng(5))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    # datatype field sits at byte offset 70 (int16); 128 = RGB24, unsupported
    raw[70:72] = np.int16(128).tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        imgio.read_volume(path)


def test_4d_with_size_1_fourth_axis_accepted(tmp_path):
    vol = _random_volume(np.random.default_rng(6))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    dim = np.frombuffer(bytes(raw[40:56]), dtype="<i2").copy()
    dim[0] = 4
    dim[4] = 1
    raw[40:56] = dim.tobytes()
    open(path, "wb").write(bytes(raw))
    back = imgio.read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))


def test_4d_with_larger_fourth_axis_rejected(tmp_path):
    vol = _random_volume(np.random.default_rng(7))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    dim = np.frombuffer(bytes(raw[40:56]), dtype="<i2").copy()
    dim[0] = 4
    dim[4] = 2
    raw[40:56] = dim.tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DimMismatch):
        imgio.read_volume(path)


def test_scl_slope_inter_applied(tmp_path):
    vol = _random_volume(np.random.default_rng(8))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    # scl_slope at offset 112, scl_inter at 116 (float32 each)
    raw[112:116] = np.float32(2.0).tobytes()
    raw[116:120] = np.float32(10.0).tobytes()
    open(path, "wb").write(bytes(raw))
    back = imgio.read_volume(path)
    expected = vol.data.astype(np.float32).astype(np.float64) * 2.0 + 10.0
    assert np.allclose(back.data, expected)


def test_slope_zero_means_no_scaling(tmp_path):
    vol = _random_volume(np.random.default_rng(9))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    raw = bytearray(open(path, "rb").read())
    raw[112:116] = np.float32(0.0).tobytes()
    raw[116:120] = np.float32(99.0).tobytes()
    open(path, "wb").write(bytes(raw))
    back = imgio.read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_slope_means_no_scaling(tmp_path, slope):
    """A NaN or infinite scl_slope reads like 0, as no scaling; applied, it made every voxel NaN or inf."""
    vol = _random_volume(np.random.default_rng(9))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    _patch_header(path, scl_slope=slope, scl_inter=99.0)
    back = imgio.read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("slope", [1.0, 2.0])
@pytest.mark.parametrize("inter", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_intercept_is_a_data_error(tmp_path, capsys, slope, inter):
    """A finite scl_slope with a NaN or infinite scl_inter cannot be applied: the
    read raises BadMagic, and the CLI exits 2 with one JSON error line and no output."""
    vol = _random_volume(np.random.default_rng(9))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    _patch_header(path, scl_slope=slope, scl_inter=inter)
    with pytest.raises(BadMagic, match="scl_inter"):
        imgio.read_volume(path)
    out = tmp_path / "wmn.nii.gz"
    assert main(["synth", "--t1", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "BadMagic"
    assert not out.exists()


def test_big_endian_read(tmp_path):
    """Byte-swapped header and data decode identically (detected via sizeof_hdr)."""
    vol = _random_volume(np.random.default_rng(10))
    path = str(tmp_path / "le.nii")
    imgio.write_volume(vol, path)
    raw = open(path, "rb").read()
    hdr_le = np.frombuffer(raw[: imgio.HEADER_SIZE], dtype=imgio._header_dtype("<"))
    hdr_be = hdr_le.astype(imgio._header_dtype(">"))
    data = np.frombuffer(raw[imgio.VOX_OFFSET :], dtype="<f4").astype(">f4")
    path_be = str(tmp_path / "be.nii")
    with open(path_be, "wb") as f:
        f.write(hdr_be.tobytes() + b"\x00" * 4 + data.tobytes())
    back = imgio.read_volume(path_be)
    assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))
    assert np.allclose(back.geometry.affine, vol.geometry.affine, atol=1e-5)


def test_label_overflow():
    lab = LabelVolume(np.full((2, 2, 2), 40000, dtype=np.int64), np.eye(4))
    with pytest.raises(LabelOverflow):
        imgio.write_volume(lab, "/tmp/overflow.nii")


def test_labels_require_integer_datatype(tmp_path):
    vol = _random_volume(np.random.default_rng(11))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)  # float32 on disk
    with pytest.raises(UnsupportedDatatype):
        imgio.read_volume(path, as_labels=True)


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    geom = Geometry((6, 5, 4), np.eye(4))
    f = DeformationField(geom, rng.standard_normal((6, 5, 4, 3)))
    path = str(tmp_path / "f.nii.gz")
    imgio.write_field(f, path)
    back = imgio.read_field(path)
    assert np.array_equal(back.disp, f.disp.astype(np.float32).astype(np.float64))
    # header advertises the 5D vector layout
    with gzip.open(path, "rb") as fh:
        hdr = np.frombuffer(fh.read(imgio.HEADER_SIZE), dtype=imgio._header_dtype("<"))[0]
    assert int(hdr["dim"][0]) == 5
    assert int(hdr["dim"][4]) == 1 and int(hdr["dim"][5]) == 3
    assert int(hdr["intent_code"]) == imgio.INTENT_VECTOR


def test_field_with_a_non_finite_displacement_is_a_data_error(tmp_path):
    path = str(tmp_path / "f.nii")
    imgio.write_field(DeformationField.zero(Geometry((4, 3, 2), np.eye(4))), path)
    raw = bytearray(open(path, "rb").read())
    raw[imgio.VOX_OFFSET + 4 : imgio.VOX_OFFSET + 8] = np.float32(np.inf).tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(GeometryMismatch, match="non-finite displacement"):
        imgio.read_field(path)


def test_read_field_rejects_scalar_volume(tmp_path):
    vol = _random_volume(np.random.default_rng(13))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    with pytest.raises(DimMismatch):
        imgio.read_field(path)


def test_qform_fallback(tmp_path):
    """With sform_code 0 and an identity quaternion, spacing comes from qform."""
    vol = VolumeGrid(np.zeros((4, 4, 4)), np.diag([2.0, 2.0, 2.0, 1.0]))
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    _patch_header(path, qform_code=1, sform_code=0)
    back = imgio.read_volume(path)
    assert np.allclose(back.geometry.affine[:3, :3], np.diag([2.0, 2.0, 2.0]))
    assert np.allclose(back.geometry.spacing, [2.0, 2.0, 2.0])


def test_spacing_and_volumes_come_from_the_sform_not_pixdim(tmp_path):
    """A 4^3 block on a 2 mm sform is 512 mm^3 whatever pixdim claims."""
    lab = LabelVolume(np.ones((4, 4, 4), dtype=np.int32), np.diag([2.0, 2.0, 2.0, 1.0]))
    path = str(tmp_path / "l.nii")
    imgio.write_volume(lab, path)
    _patch_header(path, pixdim=[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    back = imgio.read_volume(path, as_labels=True)
    assert np.array_equal(back.geometry.spacing, [2.0, 2.0, 2.0])
    assert nucleus_volume(back, 1) == 512.0


def _rotated():
    c, s = np.cos(0.4), np.sin(0.4)
    aff = np.eye(4)
    aff[:3, :3] = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.diag([0.7, 1.1, 1.3])
    return aff


@pytest.mark.parametrize(
    "affine, spacing",
    [(_rotated(), [0.7, 1.1, 1.3]), (np.diag([-2.0, 1.0, 1.5, 1.0]), [2.0, 1.0, 1.5])],
    ids=["rotated", "mirrored"],
)
def test_spacing_is_the_affine_column_norms(tmp_path, affine, spacing):
    """In memory, in the written pixdim and read back, spacing is the column norms."""
    vol = VolumeGrid(np.zeros((4, 4, 4)), affine)
    assert np.allclose(vol.geometry.spacing, spacing, rtol=0, atol=1e-12)
    path = str(tmp_path / "v.nii")
    imgio.write_volume(vol, path)
    hdr = np.frombuffer(open(path, "rb").read(imgio.HEADER_SIZE), dtype=imgio._header_dtype("<"))[0]
    assert np.allclose(hdr["pixdim"][1:4], spacing, rtol=0, atol=1e-6)
    assert np.allclose(imgio.read_volume(path).geometry.spacing, spacing, rtol=0, atol=1e-6)


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_header_affine_is_a_data_error(tmp_path, bad):
    """Without sform or qform the lattice is diag(pixdim); a degenerate one is bad data."""
    path = str(tmp_path / "v.nii")
    imgio.write_volume(VolumeGrid(np.zeros((4, 4, 4)), np.eye(4)), path)
    _patch_header(path, sform_code=0, qform_code=0, pixdim=[1.0, 1.0, bad, 1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(GeometryMismatch):
        imgio.read_volume(path)
