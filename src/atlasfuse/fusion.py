"""Label fusion: majority voting and joint label fusion (JLF).

JLF weighting per voxel: each atlas contributes its best-matching patch
(minimum sum of absolute z-scored intensity differences within the local
search window); the pairwise dependency matrix M(i,j) = (sum_p |Di(p)|*|Dj(p)|)^beta
is regularized and solved against the all-ones vector; negative weights are
clamped to zero and the weights renormalized before voting.

Voxels where every warped atlas already agrees are copied directly, which
both speeds things up and makes JLF bit-identical to majority voting when
the atlases are identical.

The patch search takes the disagreeing voxels (C order) in blocks of up to
``_CHUNK``. Consecutive blocks share a window: the sorted union of the
candidate centres their search cubes reach, while that union's float32
patches fit in ``_WINDOW_CAP`` bytes. For each atlas the window z-scores
every centre's patch once, in float64, and stores it rounded to float32.
Then each block scores every (offset, voxel) candidate in float32: it
gathers whole window rows, subtracts the float32 target patches and sums
the absolute differences with a BLAS matvec by a ones vector. Over that
(offset x voxel) table a screen masks each candidate whose float32 SAD is
within a proven slack of its voxel's least. If every voxel of the block
keeps one candidate, each takes it; else ``argmin`` picks the first least
in offset order down each column of an (offset x voxel) table of the
survivors' float64 SADs, scored as the per-voxel loop scores them, and +inf
elsewhere. The labels are bit-identical to that loop (kept as the oracle
in tests/test_fusion.py) because:

- mean and std are float64 row reductions of contiguous patch rows, for
  atlas and target patches alike, never box filters, whose running sums
  round differently; the std repeats ``np.std``'s steps;
- a flat patch (std < 1e-12) is divided by 1.0, which is exact and equals
  centring only;
- the screen never drops a candidate whose float64 SAD equals its voxel's
  least, and the float64 scores of the survivors decide, with ``argmin``'s
  first-minimum tie-break over the search offsets (a NaN first);
- the chosen patch's differences are z-scored again in float64;
- one batched ``jlf_weights`` call serves a block: numpy's stacked
  matmul and solve run the same kernel per matrix as a 2-D call, and every
  reduction over atlases is a contiguous row, as in a per-voxel call;
- each code's vote sums its atlases' weights as one contiguous row.

The slack. A z-scored patch of P voxels has sum z^2 = P (a flat patch far
less), so sum |z| <= P by Cauchy-Schwarz, for atlas and target patches
alike. With u = 2^-24, rounding both patches to float32 and rounding their
difference moves each |difference| by at most about 2u(|z| + |t|), so the
SAD by at most 4uP; summing the P float32 terms in any order moves it by at
most (P - 1)u SAD more. A float32 SAD is thus within e = 4uP + (P - 1)u SAD
of the float64 one, whose own rounding error is some 2^-29 times smaller.
A candidate c whose float64 SAD is its voxel's least then lies above the
float32 least, held by c', by at most e(c) + e(c'), about 2uP(least + 4).
The screen allows 16uP(least + 4), eight times that: for P = 125, 1.2e-4
times the least plus 4.8e-4. A NaN least keeps every candidate.

Memory: the window holds at most ``_WINDOW_CAP`` bytes (8 MiB) of float32
patches; a block whose own centres would exceed it is halved until they
fit, down to a single voxel, whose window (search cube x patch) is the
floor. Besides the window, one block holds (block x patch) buffers for the
target in float64 and float32, the gather and the row-reduction
temporaries, and (offset x block) tables of candidate centres, window rows,
float32 SADs, the screen's mask and at times float64 SADs. The call holds
one chosen centre per atlas and disagreeing voxel, and a row lookup and two
marks the size of the padded volume. After the last window is released,
fusion builds (block x atlas x patch) differences ``_CHUNK`` voxels at a
time. No (voxel x offset x patch) array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAtlasList, GeometryMismatch, SingularDependency
from .grid import LabelVolume, VolumeGrid, _is_int, require_common_grid

_CHUNK = 256  # disagreeing voxels scored together (a block); (block x patch) buffers stay in cache
_WINDOW_CAP = 8 << 20  # bytes of float32 z-scored centre patches in one window (8 MiB)


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

    Mean and std are float64 row reductions over ``_CHUNK`` rows at a time,
    so their temporaries stay at (block x patch) size. The std takes
    ``np.std``'s steps on the centred rows it also divides: the root of the
    mean of their squares. A flat patch (std < 1e-12) is divided by 1.0. Each
    quotient is rounded once, to ``out``'s dtype.
    """
    for b in range(0, len(centres), _CHUNK):
        rows = flat[centres[b : b + _CHUNK, None] + patch_off]
        rows -= rows.mean(axis=1, keepdims=True)
        sd = np.sqrt(np.square(rows).sum(axis=1, keepdims=True) / rows.shape[1])
        sd[sd < 1e-12] = 1.0
        np.divide(rows, sd, out=out[b : b + len(rows)])
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


def _windows(vox, search_off, npatch, size):
    """Group the disagreeing voxels ``vox`` into windows of consecutive blocks.

    Yields (centres, blocks): a window's sorted candidate centres, whose
    float32 z-scored patches fit in ``_WINDOW_CAP`` bytes, and its blocks as
    (start, stop) ranges of ``vox``. A block is ``_CHUNK`` voxels, halved
    until its own centres fit, down to one voxel; it joins the open window
    while their union fits. ``size`` is the padded volume's voxel count.
    """
    cap = _WINDOW_CAP // (4 * npatch)
    mark = np.zeros(size, dtype=bool)  # one block's centres
    seen = np.zeros(size, dtype=bool)  # the open window's centres
    blocks, rows, c0 = [], 0, 0
    while c0 < len(vox):
        m = min(_CHUNK, len(vox) - c0)
        while True:
            mark[vox[c0 : c0 + m] + search_off] = True
            own = np.flatnonzero(mark)
            mark[own] = False
            if m == 1 or len(own) <= cap:
                break
            m //= 2
        new = own[~seen[own]]
        if blocks and rows + len(new) > cap:
            yield np.flatnonzero(seen), blocks
            seen[:] = False
            new, blocks, rows = own, [], 0
        seen[new] = True
        rows += len(new)
        blocks.append((c0, c0 + m))
        c0 += m
    yield np.flatnonzero(seen), blocks


def _screen(sad, npatch):
    """The (offset x voxel) mask of candidates that may hold their voxel's least float64 SAD.

    ``sad`` is the (offset x voxel) float32 table. A candidate is dropped only
    when its SAD exceeds its voxel's least by more than the slack
    ``16 P 2**-24 (least + 4)`` (module docstring), so a NaN least keeps them
    all and every voxel keeps at least one.
    """
    low = sad.min(axis=0).astype(np.float64)
    return ~(sad > low + 16 * npatch * 2.0**-24 * (low + 4))


def _search(z, row_of, vc, search_off, tflat, aflat, patch_off):
    """Per voxel of ``vc``, one atlas's candidate centre of least float64 SAD, first in offset order.

    ``z`` is the window of float32 z-scored atlas patches and ``row_of`` maps
    a centre to its window row. Every (offset, voxel) SAD is scored in
    float32; unless each voxel kept one, ``argmin`` reads the survivors of
    ``_screen`` re-scored in float64, in an (offset x voxel) table.
    """
    m, npatch = len(vc), len(patch_off)
    cand = vc + search_off  # (offset x voxel) candidate centres
    rows = row_of[cand]
    tpatch = _zrows(np.empty((m, npatch)), tflat, vc, patch_off)
    t32 = tpatch.astype(np.float32)
    ones = np.ones(npatch, dtype=np.float32)
    buf = np.empty((m, npatch), dtype=np.float32)
    sad = np.empty(rows.shape, dtype=np.float32)
    for s, r in enumerate(rows):
        z.take(r, axis=0, out=buf, mode="clip")  # in range; "clip" skips a buffered copy
        buf -= t32
        np.abs(buf, out=buf)
        np.matmul(buf, ones, out=sad[s])  # a BLAS row sum
    keep = _screen(sad, npatch)
    if keep.sum() == m:
        return cand[np.argmax(keep, axis=0), np.arange(m)]
    si, vi = np.nonzero(keep)
    exact = np.full(keep.shape, np.inf)  # the survivors' float64 SADs; argmin takes the first least, NaN first
    for b in range(0, len(si), _CHUNK):
        s, v = si[b : b + _CHUNK], vi[b : b + _CHUNK]
        d = _zrows(np.empty((len(v), npatch)), aflat, cand[s, v], patch_off)
        d -= tpatch[v]
        exact[s, v] = np.abs(d, out=d).sum(axis=1)
    return cand[np.argmin(exact, axis=0), np.arange(m)]


def _fuse_block(vc, best, tflat, apad, lpad, patch_off):
    """Fused codes of the voxels ``vc``, given each atlas's chosen centres ``best`` (atlas x voxel)."""
    m, n, npatch = len(vc), len(apad), len(patch_off)
    tpatch = _zrows(np.empty((m, npatch)), tflat, vc, patch_off)
    diffs = np.empty((m, n, npatch))
    votes = np.empty((m, n), dtype=np.int64)
    for ai in range(n):
        _zrows(diffs[:, ai], apad[ai], best[ai], patch_off)
        diffs[:, ai] -= tpatch
        votes[:, ai] = lpad[ai][best[ai]]
    return _weighted_vote(jlf_weights(diffs), votes)


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
    if not disagree.any():
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
    tflat = tpad.ravel()
    row_of = np.empty(tpad.size, dtype=np.int32)  # window row of a candidate centre
    best = np.empty((n, len(vox)), dtype=np.int64)  # chosen centre per atlas and disagreeing voxel
    for centres, blocks in _windows(vox, search_off, len(patch_off), tpad.size):
        row_of[centres] = np.arange(len(centres))
        z = np.empty((len(centres), len(patch_off)), dtype=np.float32)
        for ai in range(n):
            _zrows(z, apad[ai], centres, patch_off)
            for b0, b1 in blocks:
                best[ai, b0:b1] = _search(z, row_of, vox[b0:b1], search_off, tflat, apad[ai], patch_off)
        del z  # the differences below are built without a window
    fused = np.empty(len(vox), dtype=out.dtype)
    for b in range(0, len(vox), _CHUNK):
        fused[b : b + _CHUNK] = _fuse_block(vox[b : b + _CHUNK], best[:, b : b + _CHUNK], tflat, apad, lpad, patch_off)

    out[disagree] = fused  # vox lists the disagreeing voxels in C order
    return atlas_labels[0].with_data(out)
