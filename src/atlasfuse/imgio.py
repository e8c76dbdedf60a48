"""NIfTI-1 single-file reader/writer.

Supports .nii and .nii.gz, scalar volumes and labelmaps, plus 3-component
displacement-field volumes (vector intent, stored as x,y,z,1,3). Reads both
byte orders (detected through the sizeof_hdr sanity check). A lattice is its
affine: it is read from the sform, else the qform, else the pixdim diagonal,
and written little-endian as the sform, with pixdim the affine's column norms.
"""

from __future__ import annotations

import gzip
import os
import zlib

import numpy as np

from .atomic import atomic_open
from .errors import (
    BadMagic,
    DimMismatch,
    GeometryMismatch,
    IoFailure,
    LabelOverflow,
    MissingFile,
    UnsupportedDatatype,
)
from .grid import _DET_EPS, Geometry, LabelVolume, VolumeGrid
from .register import DeformationField

HEADER_SIZE = 348
VOX_OFFSET = 352
INTENT_VECTOR = 1007

_HEADER_DTD = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

# NIfTI-1 datatype codes we accept
_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}
_INT_CODES = {2, 4, 8}


def _header_dtype(byteorder="<"):
    return np.dtype([(n, byteorder + t, *s) for n, t, *s in _HEADER_DTD])


def _open_read(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(raw):
    order = "<"
    hdr = np.frombuffer(raw, dtype=_header_dtype("<"), count=1)[0]
    if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
        order = ">"
        hdr = np.frombuffer(raw, dtype=_header_dtype(">"), count=1)[0]
        if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
            raise BadMagic("not a NIfTI-1 file (bad sizeof_hdr)")
    magic = bytes(hdr["magic"]).rstrip(b"\x00")
    if magic != b"n+1":
        raise BadMagic(f"unsupported magic {magic!r}; only single-file 'n+1' is handled")
    return hdr, order


def _affine_from_header(hdr):
    if int(hdr["sform_code"]) > 0:
        aff = np.eye(4)
        aff[0, :] = hdr["srow_x"]
        aff[1, :] = hdr["srow_y"]
        aff[2, :] = hdr["srow_z"]
        return aff
    if int(hdr["qform_code"]) > 0:
        return _affine_from_quaternion(hdr)
    aff = np.diag([*[float(p) for p in hdr["pixdim"][1:4]], 1.0])
    return aff


def _affine_from_quaternion(hdr):
    b, c, d = (float(hdr[k]) for k in ("quatern_b", "quatern_c", "quatern_d"))
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(max(a2, 0.0))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    pixdim = hdr["pixdim"]
    qfac = -1.0 if float(pixdim[0]) < 0 else 1.0
    scale = np.diag([float(pixdim[1]), float(pixdim[2]), float(pixdim[3]) * qfac])
    aff = np.eye(4)
    aff[:3, :3] = rot @ scale
    aff[:3, 3] = [float(hdr[k]) for k in ("qoffset_x", "qoffset_y", "qoffset_z")]
    return aff


def _read_raw(path, expect_vector=False):
    if not os.path.isfile(path):
        raise MissingFile(path)
    try:
        with _open_read(path) as f:
            raw = f.read()
    except (OSError, EOFError, zlib.error) as e:  # gzip.BadGzipFile is an OSError
        raise IoFailure(f"cannot read {path}: {e}") from e
    if len(raw) < HEADER_SIZE:
        raise BadMagic("file shorter than a NIfTI-1 header")
    hdr, order = _read_header(raw[:HEADER_SIZE])
    code = int(hdr["datatype"])
    if code not in _DTYPES:
        raise UnsupportedDatatype(f"NIfTI datatype code {code}")
    dim = hdr["dim"]
    ndim = int(dim[0])
    if expect_vector:
        if ndim != 5 or int(dim[4]) != 1 or int(dim[5]) != 3:
            raise DimMismatch(
                f"expected 5D vector layout (nx,ny,nz,1,3), got dim={list(dim[: ndim + 1])}"
            )
        shape = (int(dim[1]), int(dim[2]), int(dim[3]), 3)
    else:
        if ndim == 4 and int(dim[4]) == 1:
            pass
        elif ndim != 3:
            raise DimMismatch(f"dim[0]={ndim} not supported (3D only)")
        shape = (int(dim[1]), int(dim[2]), int(dim[3]))
    if any(s < 1 for s in shape):
        raise DimMismatch(f"non-positive dimension in {shape}")
    dt = _DTYPES[code].newbyteorder(order)
    n = int(np.prod(shape))
    vox_offset = float(hdr["vox_offset"])
    if not np.isfinite(vox_offset):
        raise BadMagic(f"vox_offset {vox_offset} is not finite")
    offset = max(int(vox_offset), HEADER_SIZE)
    if len(raw) < offset + n * dt.itemsize:
        raise DimMismatch(f"dims {shape} need {offset + n * dt.itemsize} bytes; the file has {len(raw)}")
    data = np.frombuffer(raw, dtype=dt, count=n, offset=offset)
    # NIfTI is Fortran-ordered on disk
    data = data.reshape(shape[::-1]).transpose(range(len(shape))[::-1])
    affine = _affine_from_header(hdr)
    # a malformed header is bad data (exit 2), not a numerical failure
    if not np.all(np.isfinite(affine)) or abs(np.linalg.det(affine[:3, :3])) <= _DET_EPS:
        raise GeometryMismatch(f"header affine is singular or not finite: {affine[:3, :3].tolist()}")
    return hdr, data, affine, code


def read_volume(path, as_labels=False, scheme=None):
    """Read a 3D NIfTI-1 file into a VolumeGrid (or LabelVolume with as_labels).

    With a scheme, a nonzero code the scheme lacks is a GeometryMismatch.
    """
    hdr, data, affine, code = _read_raw(path)
    if as_labels:
        if code not in _INT_CODES:
            raise UnsupportedDatatype(
                f"labelmap requires an integer datatype, file has code {code}"
            )
        labels = LabelVolume(np.ascontiguousarray(data).astype(np.int32), affine)
        if scheme is not None:
            unknown = set(np.unique(labels.data).tolist()) - {0, *scheme.codes()}
            if unknown:
                raise GeometryMismatch(f"codes not in scheme: {sorted(unknown)}")
        return labels
    out = np.ascontiguousarray(data).astype(np.float64)
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        out = out * slope + inter
    return VolumeGrid(out, affine)


def _base_header(geometry, datatype_code, bitpix, ndim, intent=0):
    hdr = np.zeros((), dtype=_header_dtype("<"))
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    dim = np.ones(8, dtype=np.int16)
    dim[0] = ndim
    dim[1:4] = geometry.dims
    if ndim == 5:
        dim[4] = 1
        dim[5] = 3
    hdr["dim"] = dim
    hdr["intent_code"] = intent
    hdr["datatype"] = datatype_code
    hdr["bitpix"] = bitpix
    pixdim = np.zeros(8, dtype=np.float32)
    pixdim[0] = 1.0
    pixdim[1:4] = geometry.spacing
    hdr["pixdim"] = pixdim
    hdr["vox_offset"] = VOX_OFFSET
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # mm
    hdr["sform_code"] = 1
    hdr["qform_code"] = 0
    hdr["srow_x"] = geometry.affine[0, :]
    hdr["srow_y"] = geometry.affine[1, :]
    hdr["srow_z"] = geometry.affine[2, :]
    hdr["magic"] = b"n+1"
    return hdr


def _write_blob(path, hdr, data_f_order_bytes):
    blob = hdr.tobytes() + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + data_f_order_bytes
    try:
        if str(path).endswith(".gz"):
            # fixed mtime and no embedded filename keep gzip output
            # byte-reproducible regardless of path or wall clock
            with atomic_open(path, "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", filename="", mtime=0) as f:
                    f.write(blob)
        else:
            with atomic_open(path, "wb") as f:
                f.write(blob)
    except OSError as e:
        raise IoFailure(str(e)) from e


def write_volume(volume, path):
    """Write a VolumeGrid (float32) or LabelVolume (int16) as single-file NIfTI-1."""
    if isinstance(volume, LabelVolume):
        if volume.data.max(initial=0) > np.iinfo(np.int16).max:
            raise LabelOverflow("label code exceeds int16 range")
        arr = volume.data.astype("<i2")
        code, bits = 4, 16
    else:
        arr = volume.data.astype("<f4")
        code, bits = 16, 32
    hdr = _base_header(volume.geometry, code, bits, 3)
    _write_blob(path, hdr, np.asfortranarray(arr).tobytes(order="F"))


def write_field(field, path):
    """Write a DeformationField as a 5D vector NIfTI (nx,ny,nz,1,3, intent 1007)."""
    arr = field.disp.astype("<f4")
    g = field.geometry
    hdr = _base_header(g, 16, 32, 5, intent=INTENT_VECTOR)
    flat = np.asfortranarray(arr.reshape(g.dims + (1, 3))).tobytes(order="F")
    _write_blob(path, hdr, flat)


def read_field(path):
    """Read a 5D vector NIfTI into a DeformationField."""
    hdr, data, affine, _code = _read_raw(path, expect_vector=True)
    disp = np.ascontiguousarray(data).astype(np.float64)
    return DeformationField(Geometry(disp.shape[:3], affine), disp)
