"""Label fusion: majority voting and joint label fusion (JLF).

JLF weighting per voxel: each atlas contributes its best-matching patch
(minimum sum of absolute z-scored intensity differences within the local
search window); the pairwise dependency matrix M(i,j) = (sum_p |Di(p)|*|Dj(p)|)^beta
is regularized and solved against the all-ones vector; negative weights are
clamped to zero and the weights renormalized before voting.

Voxels where every warped atlas already agrees are copied directly, which
both speeds things up and makes JLF bit-identical to majority voting when
the atlases are identical.

The patch search is offset-major. Every candidate patch centre (the
disagreeing voxels dilated by the search cube) gets its per-atlas patch mean
and std once, as row reductions over (centre x patch) blocks. Then, for a
fixed-size chunk of disagreeing voxels, each atlas and each search offset
gathers one (chunk x patch) block and scores it against the target patches
with the same elementwise operations a per-voxel loop would run, so the
labels are bit-identical to that loop (kept as the oracle in
tests/test_fusion.py):

- mean and std are ``mean(axis=1)`` / ``std(axis=1)`` of contiguous patch
  rows, never box filters, whose running sums round differently;
- a flat patch (std < 1e-12) is divided by 1.0, which is exact and equals
  centring only;
- the running best SAD is replaced only on a strict ``<``, which keeps
  ``argmin``'s first-minimum tie-break over the search offsets.

Besides the statistics (16 bytes per atlas and centre) and a 4-byte
centre-to-row table over the padded volume, working memory is a few
(chunk x patch) buffers: no (voxel x offset x patch) array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation

from .errors import EmptyAtlasList, GeometryMismatch, SingularDependency
from .grid import LabelVolume, VolumeGrid

_CHUNK = 256  # disagreeing voxels scored together; (chunk x patch) buffers stay in cache
_STAT_BLOCK = 1024  # candidate centres per mean/std block


@dataclass
class JlfParams:
    patch_radius: int = 2  # voxels
    search_radius: int = 3  # voxels
    beta: float = 2.0
    epsilon_scale: float = 0.1  # epsilon = scale * mean(diag(M))
    absolute_epsilon: float | None = None  # overrides epsilon_scale when set

    def __post_init__(self):
        if self.patch_radius < 0 or self.search_radius < 0:
            raise ValueError("radii must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.epsilon_scale <= 0 and self.absolute_epsilon is None:
            raise ValueError("epsilon must be > 0")


def _check_common_grid(volumes):
    g0 = volumes[0].geometry
    for v in volumes[1:]:
        if not v.geometry.close_to(g0):
            raise GeometryMismatch("inputs are not on a common grid")
    return g0


def majority_vote(warped_labels) -> LabelVolume:
    """Per-voxel most frequent code; ties go to the lowest code (0 competes)."""
    if not warped_labels:
        raise EmptyAtlasList("need at least one atlas labelmap")
    _check_common_grid(warped_labels)
    stack = np.stack([lv.data for lv in warped_labels], axis=0)
    codes = np.unique(stack)
    counts = np.zeros((len(codes),) + stack.shape[1:], dtype=np.int32)
    for ci, code in enumerate(codes):
        counts[ci] = (stack == code).sum(axis=0)
    # argmax returns the first (lowest-code) maximum because codes is sorted
    winner = codes[np.argmax(counts, axis=0)]
    ref = warped_labels[0]
    return LabelVolume(winner.astype(np.int32), ref.affine, ref.spacing, ref.scheme)


def jlf_weights(diffs, beta=2.0, epsilon_scale=0.1, absolute_epsilon=None):
    """Fusion weights from per-atlas patch-difference vectors.

    diffs: (N, P) array, row i = normalized target-minus-atlas patch
    differences for atlas i at its best match.
    """
    d = np.abs(np.asarray(diffs, dtype=float))
    m = (d @ d.T) ** beta
    eps = absolute_epsilon
    if eps is None:
        eps = epsilon_scale * max(float(np.mean(np.diag(m))), 1e-12)
    try:
        w = np.linalg.solve(m + eps * np.eye(len(d)), np.ones(len(d)))
    except np.linalg.LinAlgError as e:
        raise SingularDependency(str(e)) from e
    s = w.sum()
    if abs(s) < 1e-30:
        raise SingularDependency("weight sum collapsed to zero")
    w = w / s
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise SingularDependency("all weights clamped to zero")
    return w / total


def _zscore(patch):
    mu = patch.mean()
    sd = patch.std()
    if sd < 1e-12:
        return patch - mu
    return (patch - mu) / sd


def _cube_offsets(radius, strides):
    """Flat offsets of the (2r+1)^3 cube in C order, as the index grids would list it."""
    r = np.arange(-radius, radius + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3) @ strides


def _centre_stats(flat, centres, patch_off):
    """Per-centre patch mean and z-score divisor (1.0 for flat patches)."""
    mu = np.empty(len(centres))
    sd = np.empty(len(centres))
    for b in range(0, len(centres), _STAT_BLOCK):
        rows = flat[centres[b : b + _STAT_BLOCK, None] + patch_off]
        mu[b : b + len(rows)] = rows.mean(axis=1)
        sd[b : b + len(rows)] = rows.std(axis=1)
    sd[sd < 1e-12] = 1.0
    return mu, sd


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
    _check_common_grid([target, *atlas_intensities, *atlas_labels])
    n = len(atlas_labels)
    stack = np.stack([lv.data for lv in atlas_labels], axis=0)
    out = stack[0].copy()
    disagree = np.any(stack != stack[0], axis=0)
    if n == 1 or not disagree.any():
        ref = atlas_labels[0]
        return LabelVolume(out, ref.affine, ref.spacing, ref.scheme)

    pr, sr = params.patch_radius, params.search_radius
    pad = pr + sr
    tpad = np.pad(target.data, pad, mode="edge")
    apad = [np.pad(v.data, pad, mode="edge").ravel() for v in atlas_intensities]
    lpad = [np.pad(lv.data, pad, mode="constant", constant_values=0).ravel() for lv in atlas_labels]
    strides = np.array([tpad.shape[1] * tpad.shape[2], tpad.shape[2], 1])
    patch_off = _cube_offsets(pr, strides)
    search_off = _cube_offsets(sr, strides)
    npatch = len(patch_off)

    # flat indices into the padded volumes; every gathered index is in range
    # because the padding covers patch plus search radius
    vmask = np.pad(disagree, pad)
    vox = np.flatnonzero(vmask)
    centres = np.flatnonzero(binary_dilation(vmask, np.ones((2 * sr + 1,) * 3, dtype=bool)))
    row_of = np.zeros(vmask.size, dtype=np.int32)
    row_of[centres] = np.arange(len(centres), dtype=np.int32)
    stats = [_centre_stats(a, centres, patch_off) for a in apad]
    fused = np.empty(len(vox), dtype=out.dtype)

    for c0 in range(0, len(vox), _CHUNK):
        vc = vox[c0 : c0 + _CHUNK]
        m = len(vc)
        tpatch = np.empty((m, npatch))
        for v, (ci, cj, ck) in enumerate(zip(*np.unravel_index(vc, tpad.shape))):
            tpatch[v] = _zscore(
                tpad[ci - pr : ci + pr + 1, cj - pr : cj + pr + 1, ck - pr : ck + pr + 1]
            ).reshape(-1)
        base = vc[:, None] + patch_off
        idx = np.empty_like(base)
        buf = np.empty((m, npatch))
        sad = np.empty(m)
        diffs = np.empty((m, n, npatch))
        votes = np.empty((m, n), dtype=np.int64)
        for ai in range(n):
            flat, (mu, sd) = apad[ai], stats[ai]
            best = np.full(m, np.inf)
            best_off = np.full(m, search_off[0])
            for so in search_off:
                rows = row_of[vc + so]
                np.add(base, so, out=idx)
                np.take(flat, idx, out=buf, mode="clip")  # in range; "clip" skips a buffered copy
                buf -= mu[rows, None]
                buf /= sd[rows, None]
                buf -= tpatch
                np.abs(buf, out=buf)
                buf.sum(axis=1, out=sad)
                better = sad < best
                best[better] = sad[better]
                best_off[better] = so
            bc = vc + best_off
            rows = row_of[bc]
            diffs[:, ai] = (flat[bc[:, None] + patch_off] - mu[rows, None]) / sd[rows, None] - tpatch
            votes[:, ai] = lpad[ai][bc]
        for v in range(m):
            w = jlf_weights(diffs[v], params.beta, params.epsilon_scale, params.absolute_epsilon)
            codes = np.unique(votes[v])
            acc = np.array([w[votes[v] == c].sum() for c in codes])
            fused[c0 + v] = codes[int(np.argmax(acc))]

    out[disagree] = fused  # vox lists the disagreeing voxels in C order
    ref = atlas_labels[0]
    return LabelVolume(out, ref.affine, ref.spacing, ref.scheme)
