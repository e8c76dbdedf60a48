"""Label fusion: majority voting and joint label fusion (JLF).

JLF weighting per voxel: each atlas contributes its best-matching patch
(minimum sum of absolute z-scored intensity differences within the local
search window); the pairwise dependency matrix M(i,j) = (sum_p |Di(p)|*|Dj(p)|)^beta
is regularized and solved against the all-ones vector; negative weights are
clamped to zero and the weights renormalized before voting.

Voxels where every warped atlas already agrees are copied directly, which
both speeds things up and makes JLF bit-identical to majority voting when
the atlases are identical.

The patch search runs per chunk of up to ``_CHUNK`` disagreeing voxels (C
order). The chunk's search cubes reach an exact set of candidate centres, the
sorted unique (offset x voxel) flat indices; ``searchsorted`` gives each
candidate its row. For each atlas the chunk z-scores every centre's patch
once into a (centre x patch) window of contiguous rows. Then, for each of
the search offsets, it gathers whole window rows and scores them against the
target patches, keeping a running best. The labels are bit-identical to a
per-voxel loop (kept as the oracle in tests/test_fusion.py) because:

- mean and std are ``mean(axis=1)`` / ``std(axis=1)`` of contiguous patch
  rows for atlas and target patches alike, never box filters, whose running
  sums round differently;
- a flat patch (std < 1e-12) is divided by 1.0, which is exact and equals
  centring only;
- the running best SAD is replaced only on a strict ``<``, which keeps
  ``argmin``'s first-minimum tie-break over the search offsets;
- one batched ``jlf_weights`` call serves the chunk: numpy's stacked
  matmul and solve run the same kernel per matrix as a 2-D call, and every
  reduction over atlases is a contiguous row, as in a per-voxel call;
- each code's vote sums its atlases' weights as one contiguous row.

Memory: the window holds at most ``_WINDOW_CAP`` float64 elements (8 MiB); a
chunk whose window would exceed it is halved until it fits, down to a single
voxel, whose window (search cube x patch) is the floor. Besides the window,
one chunk holds (chunk x patch) buffers for the target, the gather, the
row-reduction temporaries and the (chunk x atlas x patch) differences, and
two (offset x chunk) index tables. No (voxel x offset x patch) array is
ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAtlasList, GeometryMismatch, SingularDependency
from .grid import LabelVolume, VolumeGrid, _is_int, require_common_grid

_CHUNK = 256  # disagreeing voxels scored together; (chunk x patch) buffers stay in cache
_WINDOW_CAP = 1 << 20  # float64 elements in one z-scored centre window (8 MiB)


@dataclass
class JlfParams:
    """Patch and search cube radii in voxels; the weights take jlf_weights' defaults."""

    patch_radius: int = 2
    search_radius: int = 3

    def __post_init__(self):
        for name in ("patch_radius", "search_radius"):
            r = getattr(self, name)
            if not _is_int(r) or r < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {r!r}")
            setattr(self, name, int(r))


def majority_vote(warped_labels) -> LabelVolume:
    """Per-voxel most frequent code: JLF's vote with unit weights, so ties go to the lowest code (0 competes)."""
    if not warped_labels:
        raise EmptyAtlasList("need at least one atlas labelmap")
    require_common_grid(*warped_labels)
    stack = np.stack([lv.data for lv in warped_labels], axis=0)
    out = stack[0].copy()
    disagree = np.any(stack != stack[0], axis=0)
    if disagree.any():
        votes = stack[:, disagree].T
        out[disagree] = _weighted_vote(np.ones(votes.shape), votes)
    return warped_labels[0].with_data(out)


def jlf_weights(diffs, beta=2.0, epsilon_scale=0.1, absolute_epsilon=None):
    """Fusion weights from per-atlas patch-difference vectors.

    diffs: (..., N, P) array; row i of each (N, P) matrix holds the normalized
    target-minus-atlas patch differences for atlas i at its best match.
    Returns (..., N) weights from one batched solve. SingularDependency is
    raised when any matrix of the batch is singular or its weights collapse.
    """
    d = np.abs(np.asarray(diffs, dtype=float))
    m = (d @ np.swapaxes(d, -1, -2)) ** beta
    n = d.shape[-2]
    eps = absolute_epsilon
    if eps is None:
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        eps = epsilon_scale * np.maximum(diag.mean(axis=-1), 1e-12)[..., None, None]
    try:
        w = np.linalg.solve(m + eps * np.eye(n), np.ones(n))
    except np.linalg.LinAlgError as e:
        raise SingularDependency(str(e)) from e
    s = w.sum(axis=-1, keepdims=True)
    if np.any(np.abs(s) < 1e-30):
        raise SingularDependency("weight sum collapsed to zero")
    w = w / s
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise SingularDependency("all weights clamped to zero")
    return w / total


def _cube_offsets(radius, strides):
    """Flat offsets of the (2r+1)^3 cube in C order, as the index grids would list it."""
    r = np.arange(-radius, radius + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3) @ strides


def _zrows(out, flat, centres, patch_off):
    """Write the z-scored patch at each of ``centres`` into a row of ``out``.

    Mean and std are row reductions, as a per-voxel loop takes them, over
    ``_CHUNK`` rows at a time, so their temporaries stay at (chunk x patch)
    size; a flat patch (std < 1e-12) is divided by 1.0.
    """
    for b in range(0, len(centres), _CHUNK):
        rows = flat[centres[b : b + _CHUNK, None] + patch_off]
        mu = rows.mean(axis=1)
        sd = rows.std(axis=1)
        sd[sd < 1e-12] = 1.0
        zb = out[b : b + len(rows)]
        np.subtract(rows, mu[:, None], out=zb)
        zb /= sd[:, None]
    return out


def _weighted_vote(w, votes):
    """Per row, the code with the largest summed weight; ties go to the lowest code.

    Each (row, code) weight sum adds that code's weights in atlas order as one
    contiguous row, exactly as ``w[votes == code].sum()`` would; rows are
    grouped by how many atlases voted for the code, since numpy's pairwise
    summation groups a sum by its length.
    """
    codes = np.unique(votes)
    hit = votes[:, None, :] == codes[:, None]  # (row, code, atlas)
    count = hit.sum(axis=2)
    acc = np.zeros(count.shape)
    wide = np.broadcast_to(w[:, None, :], hit.shape)
    for k in np.unique(count[count > 0]):
        sel = count == k
        acc[sel] = wide[sel][hit[sel]].reshape(-1, k).sum(axis=1)
    return codes[np.argmax(acc, axis=1)]


def _fuse_chunk(vc, cand, centres, tflat, apad, lpad, patch_off):
    """Fused codes of the disagreeing voxels ``vc`` (flat indices into the padded volumes).

    ``cand`` holds the (offset x voxel) candidate centres and ``centres`` their
    sorted set, whose z-scored patches form the window, rebuilt per atlas.
    """
    m, n, npatch = len(vc), len(apad), len(patch_off)
    rows = np.searchsorted(centres, cand)  # window row of each candidate
    tpatch = _zrows(np.empty((m, npatch)), tflat, vc, patch_off)
    z = np.empty((len(centres), npatch))
    buf = np.empty((m, npatch))
    sad = np.empty(m)
    diffs = np.empty((m, n, npatch))
    votes = np.empty((m, n), dtype=np.int64)
    for ai in range(n):
        _zrows(z, apad[ai], centres, patch_off)
        best = np.full(m, np.inf)
        best_row = rows[0].copy()
        for r in rows:
            np.take(z, r, axis=0, out=buf, mode="clip")  # in range; "clip" skips a buffered copy
            buf -= tpatch
            np.abs(buf, out=buf)
            buf.sum(axis=1, out=sad)
            better = sad < best
            best[better] = sad[better]
            best_row[better] = r[better]
        diffs[:, ai] = z[best_row] - tpatch
        votes[:, ai] = lpad[ai][centres[best_row]]
    w = jlf_weights(diffs)
    return _weighted_vote(w, votes)


def joint_label_fusion(
    target: VolumeGrid,
    atlas_intensities,
    atlas_labels,
    params: JlfParams | None = None,
) -> LabelVolume:
    """Patch-based weighted voting over N warped atlases on the target grid."""
    params = params or JlfParams()
    if not atlas_intensities or not atlas_labels:
        raise EmptyAtlasList("need at least one atlas")
    if len(atlas_intensities) != len(atlas_labels):
        raise GeometryMismatch("intensity and label lists differ in length")
    require_common_grid(target, *atlas_intensities, *atlas_labels)
    n = len(atlas_labels)
    stack = np.stack([lv.data for lv in atlas_labels], axis=0)
    out = stack[0].copy()
    disagree = np.any(stack != stack[0], axis=0)
    if n == 1 or not disagree.any():
        return atlas_labels[0].with_data(out)

    pr, sr = params.patch_radius, params.search_radius
    pad = pr + sr
    tpad = np.pad(target.data, pad, mode="edge")
    apad = [np.pad(v.data, pad, mode="edge").ravel() for v in atlas_intensities]
    lpad = [np.pad(lv.data, pad, mode="constant", constant_values=0).ravel() for lv in atlas_labels]
    strides = np.array([tpad.shape[1] * tpad.shape[2], tpad.shape[2], 1])
    patch_off = _cube_offsets(pr, strides)
    search_off = _cube_offsets(sr, strides)[:, None]

    # flat indices into the padded volumes; every gathered index is in range
    # because the padding covers patch plus search radius
    vox = np.flatnonzero(np.pad(disagree, pad))
    fused = np.empty(len(vox), dtype=out.dtype)
    c0 = 0
    while c0 < len(vox):
        m = min(_CHUNK, len(vox) - c0)
        while True:  # halve the chunk until its window fits under the cap
            cand = vox[c0 : c0 + m] + search_off
            centres = np.unique(cand)
            if m == 1 or len(centres) * len(patch_off) <= _WINDOW_CAP:
                break
            m //= 2
        vc = vox[c0 : c0 + m]
        fused[c0 : c0 + m] = _fuse_chunk(vc, cand, centres, tpad.ravel(), apad, lpad, patch_off)
        c0 += m

    out[disagree] = fused  # vox lists the disagreeing voxels in C order
    return atlas_labels[0].with_data(out)
