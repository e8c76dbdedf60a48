"""Majority voting and joint label fusion."""

import tracemalloc

import numpy as np
import pytest

from atlasfuse import fusion
from atlasfuse.errors import EmptyAtlasList, GeometryMismatch, SingularDependency
from atlasfuse.fusion import JlfParams, jlf_weights, joint_label_fusion, majority_vote
from atlasfuse.grid import LabelVolume, VolumeGrid


def _lab(data):
    return LabelVolume(np.asarray(data, dtype=np.int32), np.eye(4))


def _vol(data):
    return VolumeGrid(np.asarray(data, dtype=float), np.eye(4))


def _single_voxel_labs(codes):
    return [_lab(np.full((1, 1, 1), c)) for c in codes]


def test_mv_most_frequent_wins():
    out = majority_vote(_single_voxel_labs([1, 1, 2]))
    assert out.data[0, 0, 0] == 1


def test_mv_tie_breaks_to_lowest_code():
    assert majority_vote(_single_voxel_labs([1, 2])).data[0, 0, 0] == 1
    assert majority_vote(_single_voxel_labs([2, 5])).data[0, 0, 0] == 2
    # background competes as an ordinary code
    assert majority_vote(_single_voxel_labs([0, 3])).data[0, 0, 0] == 0


def test_mv_unanimity_returns_input():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 5, size=(6, 6, 6), dtype=np.int32)
    out = majority_vote([_lab(data) for _ in range(5)])
    assert np.array_equal(out.data, data)


def test_mv_permutation_invariance():
    rng = np.random.default_rng(1)
    labs = [_lab(rng.integers(0, 4, size=(8, 8, 8))) for _ in range(5)]
    ref = majority_vote(labs).data
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(5)
        assert np.array_equal(majority_vote([labs[i] for i in perm]).data, ref)


def test_mv_errors():
    with pytest.raises(EmptyAtlasList):
        majority_vote([])
    a = _lab(np.zeros((4, 4, 4)))
    b = LabelVolume(np.zeros((4, 4, 4), dtype=np.int32), np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(GeometryMismatch):
        majority_vote([a, b])


def _reference_majority_vote(warped_labels):
    """Per voxel, each code's count over the whole stack; argmax takes the first, lowest, code."""
    stack = np.stack([lv.data for lv in warped_labels], axis=0)
    codes = np.unique(stack)
    counts = np.zeros((len(codes),) + stack.shape[1:], dtype=np.int32)
    for ci, code in enumerate(codes):
        counts[ci] = (stack == code).sum(axis=0)
    return codes[np.argmax(counts, axis=0)]


def test_mv_matches_counting_every_code():
    """On random stacks of 1-7 atlases, dense or sparse disagreement, code 0 included."""
    rng = np.random.default_rng(70)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        codes = rng.choice([0, 1, 2, 5, 101, 112], size=int(rng.integers(1, 5)), replace=False)
        base = rng.choice(codes, size=(5, 6, 7))
        flip = rng.random()  # the share of voxels where an atlas departs from the base
        labs = [_lab(np.where(rng.random(base.shape) < flip, rng.choice(codes, size=base.shape), base)) for _ in range(n)]
        out = majority_vote(labs)
        assert out.data.dtype == np.int32
        assert np.array_equal(out.data, _reference_majority_vote(labs))


def test_jlf_weights_orthogonal_errors_split_evenly():
    # D1=(1,0), D2=(0,1), beta=2: M = I, so w = (0.5, 0.5)
    w = jlf_weights([[1.0, 0.0], [0.0, 1.0]], beta=2.0, absolute_epsilon=1e-6)
    assert np.allclose(w, [0.5, 0.5], atol=1e-6)


def test_jlf_weights_perfect_atlas_dominates():
    # D1=(1,1) (bad atlas), D2=(0,0) (perfect): M(1,1)=4, M(2,2)=0
    w = jlf_weights([[1.0, 1.0], [0.0, 0.0]], beta=2.0, absolute_epsilon=1e-6)
    assert w[1] > 0.99
    # hand-solved: w2 = (4 + eps) / (4 + 2 eps)
    eps = 1e-6
    assert w[1] == pytest.approx((4 + eps) / (4 + 2 * eps), abs=1e-9)


def test_jlf_weights_properties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = rng.standard_normal((4, 27))
        w = jlf_weights(d)
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)


def test_jlf_identical_atlases_equals_mv_bit_exact():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 4, size=(8, 8, 8), dtype=np.int32)
    intensity = _vol(rng.standard_normal((8, 8, 8)))
    labs = [_lab(data) for _ in range(4)]
    ints = [intensity.with_data(intensity.data) for _ in range(4)]
    jlf = joint_label_fusion(intensity, ints, labs)
    mv = majority_vote(labs)
    assert np.array_equal(jlf.data, mv.data)
    assert np.array_equal(jlf.data, data)


def test_jlf_single_atlas_returns_it_exactly():
    rng = np.random.default_rng(4)
    data = rng.integers(0, 3, size=(6, 6, 6), dtype=np.int32)
    intensity = _vol(rng.standard_normal((6, 6, 6)))
    out = joint_label_fusion(intensity, [intensity], [_lab(data)])
    assert np.array_equal(out.data, data)


def test_jlf_prefers_intensity_matched_atlas():
    """Two disagreeing atlases: the one whose image matches the target wins."""
    rng = np.random.default_rng(5)
    target = _vol(rng.standard_normal((9, 9, 9)))
    good_lab = np.zeros((9, 9, 9), dtype=np.int32)
    good_lab[3:6, 3:6, 3:6] = 2
    bad_lab = np.zeros((9, 9, 9), dtype=np.int32)
    bad_lab[3:6, 3:6, 3:6] = 7
    bad_int = _vol(rng.standard_normal((9, 9, 9)))  # unrelated texture
    out = joint_label_fusion(
        target,
        [target.with_data(target.data), bad_int],
        [_lab(good_lab), _lab(bad_lab)],
        JlfParams(patch_radius=1, search_radius=1),
    )
    assert np.array_equal(out.data, good_lab)


def test_jlf_permutation_invariance():
    rng = np.random.default_rng(6)
    target = _vol(rng.standard_normal((7, 7, 7)))
    ints = [_vol(target.data + 0.2 * rng.standard_normal((7, 7, 7))) for _ in range(3)]
    labs = [_lab(rng.integers(0, 3, size=(7, 7, 7))) for _ in range(3)]
    params = JlfParams(patch_radius=1, search_radius=1)
    ref = joint_label_fusion(target, ints, labs, params).data
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        out = joint_label_fusion(
            target, [ints[i] for i in perm], [labs[i] for i in perm], params
        ).data
        assert np.array_equal(out, ref)


def test_jlf_corrupted_atlas_among_identical_ones():
    """4 truth-matched atlases + 1 shifted one: both fusers stay perfect."""
    rng = np.random.default_rng(7)
    truth = np.zeros((12, 12, 12), dtype=np.int32)
    truth[4:8, 4:8, 4:8] = 3
    target = _vol(np.where(truth > 0, 2.0, 0.5) + 0.05 * rng.standard_normal((12, 12, 12)))
    good = [(target.with_data(target.data), _lab(truth)) for _ in range(4)]
    bad = (
        _vol(np.roll(target.data, 3, axis=0)),
        _lab(np.roll(truth, 3, axis=0)),
    )
    ints = [g[0] for g in good] + [bad[0]]
    labs = [g[1] for g in good] + [bad[1]]
    params = JlfParams(patch_radius=1, search_radius=1)
    jlf = joint_label_fusion(target, ints, labs, params)
    mv = majority_vote(labs)
    assert np.array_equal(mv.data, truth)
    assert np.array_equal(jlf.data, truth)


def test_jlf_params_validation():
    with pytest.raises(ValueError):
        JlfParams(patch_radius=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"patch_radius": 1.5},
        {"search_radius": 2.0},
        {"patch_radius": True},
    ],
    ids=["fractional-patch", "float-search", "bool-patch"],
)
def test_jlf_params_rejects_what_it_cannot_run(kwargs):
    with pytest.raises(ValueError):
        JlfParams(**kwargs)


def test_jlf_params_takes_integer_radii_and_a_zero_absolute_epsilon():
    params = JlfParams(patch_radius=np.int64(0), search_radius=np.int32(1))
    assert (params.patch_radius, params.search_radius) == (0, 1)
    assert type(params.patch_radius) is int and type(params.search_radius) is int  # the manifest is JSON


def test_jlf_list_length_mismatch():
    target = _vol(np.zeros((4, 4, 4)))
    lab = _lab(np.zeros((4, 4, 4)))
    with pytest.raises(EmptyAtlasList):
        joint_label_fusion(target, [], [])
    with pytest.raises(GeometryMismatch):
        joint_label_fusion(target, [target, target], [lab])


# --- joint_label_fusion against the per-voxel reference loop ---


def _zscore_ref(patch):
    mu = patch.mean()
    sd = patch.std()
    if sd < 1e-12:
        return patch - mu
    return (patch - mu) / sd


def _reference_jlf(target, atlas_intensities, atlas_labels, params):
    """The per-voxel search loop the offset-major implementation must match bit for bit."""
    n = len(atlas_labels)
    stack = np.stack([lv.data for lv in atlas_labels], axis=0)
    out = stack[0].copy()
    disagree = np.any(stack != stack[0], axis=0)
    if n == 1 or not disagree.any():
        return out

    pr, sr = params.patch_radius, params.search_radius
    pad = pr + sr
    tpad = np.pad(target.data, pad, mode="edge")
    apad = [np.pad(v.data, pad, mode="edge") for v in atlas_intensities]
    lpad = [np.pad(lv.data, pad, mode="constant", constant_values=0) for lv in atlas_labels]

    side = 2 * pr + 1
    po = np.stack(
        np.meshgrid(*([np.arange(-pr, pr + 1)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)  # (P, 3) patch offsets
    so = np.stack(
        np.meshgrid(*([np.arange(-sr, sr + 1)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)  # (S, 3) search offsets
    npatch = side**3

    vox = np.argwhere(disagree)
    for i, j, k in vox:
        ci, cj, ck = i + pad, j + pad, k + pad
        tpatch = _zscore_ref(
            tpad[ci - pr : ci + pr + 1, cj - pr : cj + pr + 1, ck - pr : ck + pr + 1]
        ).reshape(-1)
        diffs = np.empty((n, npatch))
        votes_code = np.empty(n, dtype=np.int64)
        centers = so + (ci, cj, ck)  # candidate patch centers (S, 3)
        cand_idx = centers[:, None, :] + po[None, :, :]
        ix, iy, iz = cand_idx[..., 0], cand_idx[..., 1], cand_idx[..., 2]
        for ai in range(n):
            cand = apad[ai][ix, iy, iz]
            mu = cand.mean(axis=1, keepdims=True)
            sd = cand.std(axis=1, keepdims=True)
            norm = np.where(sd < 1e-12, cand - mu, (cand - mu) / np.maximum(sd, 1e-12))
            d = norm - tpatch[None, :]
            best = int(np.argmin(np.abs(d).sum(axis=1)))
            diffs[ai] = d[best]
            bc = centers[best]
            votes_code[ai] = lpad[ai][bc[0], bc[1], bc[2]]
        w = jlf_weights(diffs)
        codes = np.unique(votes_code)
        acc = np.array([w[votes_code == c].sum() for c in codes])
        out[i, j, k] = codes[int(np.argmax(acc))]
    return out


def _oracle_case(seed, n, shape, texture):
    """Target, n noisy atlas intensities and n disagreeing labelmaps.

    texture "noise" is i.i.d.; "flat" adds constant blocks (flat patches in
    target and atlases); "tiled" repeats a 2-voxel motif so SADs tie.
    """
    rng = np.random.default_rng(seed)
    if texture == "tiled":
        motif = rng.integers(0, 3, size=(2, 2, 2)).astype(float)
        base = np.tile(motif, [-(-s // 2) for s in shape])[: shape[0], : shape[1], : shape[2]]
    else:
        base = rng.standard_normal(shape)
    if texture == "flat":
        base[: shape[0] // 2, :, : shape[2] // 2] = 0.1
        base[:, shape[1] // 2 :, shape[2] // 2 :] = -0.25
    target = _vol(base)
    ints, labs = [], []
    truth = (base > np.median(base)).astype(np.int32) + 1
    for _ in range(n):
        noisy = base if texture == "tiled" else base + 0.3 * rng.standard_normal(shape)
        if texture == "flat":
            noisy = np.where(base == 0.1, 0.1, noisy)
        ints.append(_vol(noisy))
        flip = rng.random(shape) < 0.25
        labs.append(_lab(np.where(flip, rng.integers(0, 4, size=shape), truth)))
    return target, ints, labs


@pytest.mark.parametrize(
    "seed,n,shape,texture,pr,sr",
    [
        (10, 2, (5, 6, 7), "noise", 0, 0),
        (11, 3, (6, 5, 6), "noise", 1, 0),
        (12, 5, (5, 5, 6), "noise", 0, 2),
        (13, 2, (6, 6, 5), "noise", 2, 1),
        (14, 3, (6, 7, 6), "noise", 1, 2),
        (15, 5, (5, 6, 5), "noise", 2, 2),
        (16, 3, (7, 6, 7), "flat", 1, 1),
        (17, 5, (6, 6, 6), "flat", 2, 1),
        (18, 2, (6, 7, 6), "tiled", 1, 1),
        (19, 5, (6, 6, 6), "tiled", 1, 2),
        (20, 3, (12, 11, 10), "noise", 1, 1),  # over 256 disagreeing voxels
        # default radii (2, 3), each over 256 disagreeing voxels: several chunks
        (21, 3, (9, 10, 9), "noise", 2, 3),
        (22, 5, (8, 9, 8), "flat", 2, 3),
        (23, 2, (11, 10, 10), "tiled", 2, 3),
        # ties at the default radii: several candidates per voxel survive the float32 screen
        (25, 5, (9, 9, 10), "tiled", 2, 3),
        (26, 3, (10, 9, 9), "flat", 2, 3),
        # patch radius 0: every SAD is 0, so all 343 candidates survive and offset 0 wins
        (27, 3, (7, 6, 7), "noise", 0, 3),
    ],
)
def test_jlf_matches_reference_loop(seed, n, shape, texture, pr, sr):
    target, ints, labs = _oracle_case(seed, n, shape, texture)
    params = JlfParams(patch_radius=pr, search_radius=sr)
    out = joint_label_fusion(target, ints, labs, params).data
    ref = _reference_jlf(target, ints, labs, params)
    # every border voxel disagrees somewhere, so edge padding is exercised
    stack = np.stack([lv.data for lv in labs])
    assert np.any(stack != stack[0], axis=0)[[0, -1]].any()
    assert np.array_equal(out, ref)


def test_jlf_float64_decides_what_float32_cannot_tell_apart():
    """Two atlas patches 1e-9 apart: float32 ties them, and the later one is least in float64.

    At voxel (2, 2, 4) atlas 0's candidates at offsets (0, 0, -2) and
    (0, 0, +2) hold the same near-copy of the target patch, but one value of
    the second is 1e-9 closer to the target. Their float32 SADs are equal, so
    the float32 minimum is the first; the float64 search picks the second,
    whose code 2 the fused label must carry.
    """
    rng = np.random.default_rng(90)
    shape = (5, 5, 9)
    target = rng.standard_normal(shape)
    tp = target[1:4, 1:4, 3:6]
    near = tp + 0.01 * rng.standard_normal(tp.shape)
    closer = near.copy()
    closer[1, 1, 1] += 1e-9 * np.sign(tp[1, 1, 1] - near[1, 1, 1])
    a0 = 3.0 * rng.standard_normal(shape)
    a0[1:4, 1:4, 1:4] = near  # centre (2, 2, 2)
    a0[1:4, 1:4, 5:8] = closer  # centre (2, 2, 6)
    l0 = np.zeros(shape, dtype=np.int32)
    l0[2, 2, 2], l0[2, 2, 6] = 1, 2
    l1 = l0.copy()
    l1[2, 2, 4] = 3  # the one disagreeing voxel
    zt = _zscore_ref(tp).ravel()
    sad64 = [np.abs(_zscore_ref(p).ravel() - zt).sum() for p in (near, closer)]
    sad32 = [np.abs(_zscore_ref(p).ravel().astype(np.float32) - zt.astype(np.float32)).sum() for p in (near, closer)]
    assert sad64[1] < sad64[0] and sad32[1] == sad32[0]

    ints = [_vol(a0), _vol(3.0 * rng.standard_normal(shape))]
    labs = [_lab(l0), _lab(l1)]
    params = JlfParams(patch_radius=1, search_radius=2)
    out = joint_label_fusion(_vol(target), ints, labs, params).data
    ref = _reference_jlf(_vol(target), ints, labs, params)
    assert ref[2, 2, 4] == 2
    assert np.array_equal(out, ref)


def test_screen_keeps_what_float32_misorders_and_float64_decides():
    """On a hand-built (offset x voxel) table, each column a voxel, the screen's mask keeps each float64 least.

    Voxel 0: float32 ranks offset 1 first, float64 offset 0; offset 3 lies
    beyond the slack. Voxel 1: offsets 1 and 2 tie in both; offset 0 is far.
    Voxel 2: a NaN least keeps every offset, and the NaN wins, as in argmin.
    """
    npatch = 125
    slack = 16 * npatch * 2.0**-24 * (10.0 + 4)  # at a least of 10.0
    exact = np.array(
        [
            [10.0 - 1e-7, 7.5, 3.0],
            [10.0 + 1e-7, 7.0, np.nan],
            [10.0 + 0.5 * slack, 7.0, 1.0],
            [10.0 + 2.0 * slack, 9.0, 2.0],
        ]
    )
    sad = exact.astype(np.float32)
    sad[0, 0] = np.nextafter(np.float32(10.0), np.float32(11.0))
    sad[1, 0] = np.float32(10.0)
    assert np.argmin(sad[:, 0]) == 1 and np.argmin(exact[:, 0]) == 0
    keep = fusion._screen(sad, npatch)
    assert keep.T.tolist() == [[True, True, True, False], [False, True, True, False], [True, True, True, True]]
    table = np.where(keep, exact, np.inf)  # the float64 table _search's argmin reads
    assert np.argmin(table, axis=0).tolist() == [0, 1, 1] == np.argmin(exact, axis=0).tolist()


@pytest.mark.parametrize("cap_rows", [1, 400])
def test_jlf_window_split_matches_reference_loop(monkeypatch, cap_rows):
    """A block whose window exceeds the byte cap is halved, down to one voxel, with the same labels."""
    target, ints, labs = _oracle_case(24, 3, (9, 8, 9), "noise")
    params = JlfParams(patch_radius=1, search_radius=2)
    row_bytes = 4 * 3**3  # one float32 z-scored patch
    sizes = []
    real = fusion._windows

    def spy(*args):
        for centres, blocks in real(*args):
            assert len(centres) * row_bytes <= fusion._WINDOW_CAP or [b1 - b0 for b0, b1 in blocks] == [1]
            sizes.extend(b1 - b0 for b0, b1 in blocks)
            yield centres, blocks

    monkeypatch.setattr(fusion, "_WINDOW_CAP", cap_rows * row_bytes)
    monkeypatch.setattr(fusion, "_windows", spy)
    out = joint_label_fusion(target, ints, labs, params).data
    stack = np.stack([lv.data for lv in labs])
    assert sum(sizes) == np.any(stack != stack[0], axis=0).sum() > fusion._CHUNK
    assert max(sizes) == 1 if cap_rows == 1 else 1 < max(sizes) < fusion._CHUNK
    assert np.array_equal(out, _reference_jlf(target, ints, labs, params))


def test_jlf_memory_stays_under_window_cap():
    """5% scattered disagreement at default radii: an uncapped window held 15k rows (15 MB)."""
    shape, n = (16, 32, 32), 3
    rng = np.random.default_rng(30)
    base = rng.standard_normal(shape)
    truth = (base > 0).astype(np.int32) + 1
    scattered = np.where(rng.random(shape) < 0.05, 3, truth)
    ints = [_vol(base + 0.3 * rng.standard_normal(shape)) for _ in range(n)]
    labs = [_lab(truth), _lab(truth), _lab(scattered)]
    tracemalloc.start()
    try:
        joint_label_fusion(_vol(base), ints, labs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nsearch, npatch = 7**3, 5**3
    # (offset x chunk) index tables; target, gather, three row-reduction
    # temporaries and the (chunk x atlas x patch) differences
    chunk_bytes = 8 * fusion._CHUNK * (2 * nsearch + (n + 5) * npatch)
    # stacked labels and padded copies of the inputs
    volume_bytes = 8 * int(np.prod(np.add(shape, 10))) * (2 * n + 3)
    assert peak < (8 << 20) + chunk_bytes + volume_bytes  # the window cap is 8 MiB


# --- batched jlf_weights and the vectorised vote against per-voxel references ---


def _reference_weights(diffs, beta=2.0, epsilon_scale=0.1, absolute_epsilon=None):
    """The single-voxel jlf_weights body the batched call must match bit for bit."""
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


@pytest.mark.parametrize("n,npatch", [(1, 1), (2, 27), (5, 125), (9, 125), (20, 343)])
def test_jlf_weights_batched_matches_single_voxel(n, npatch):
    rng = np.random.default_rng(40 + n)
    d = rng.standard_normal((12, n, npatch)) * rng.uniform(0.01, 10.0, size=(12, 1, 1))
    for kwargs in ({}, {"beta": 1.0}, {"beta": 0.5, "epsilon_scale": 0.5}, {"absolute_epsilon": 1e-3}):
        ref = np.stack([_reference_weights(x, **kwargs) for x in d])
        assert np.array_equal(jlf_weights(d, **kwargs), ref)
        assert np.array_equal(jlf_weights(d.reshape(3, 4, n, npatch), **kwargs), ref.reshape(3, 4, n))
        assert np.array_equal(jlf_weights(d[5], **kwargs), ref[5])


def test_jlf_weights_batched_singular_like_single_voxel():
    rng = np.random.default_rng(50)
    d = rng.standard_normal((6, 3, 8))
    d[4] = 0.0  # M = 0 and epsilon 0: singular
    with pytest.raises(SingularDependency):
        _reference_weights(d[4], absolute_epsilon=0.0)
    with pytest.raises(SingularDependency):
        jlf_weights(d, absolute_epsilon=0.0)
    regular = np.delete(d, 4, axis=0)
    ref = np.stack([_reference_weights(x, absolute_epsilon=0.0) for x in regular])
    assert np.array_equal(jlf_weights(regular, absolute_epsilon=0.0), ref)


def _reference_vote(w, votes):
    codes = np.unique(votes)
    acc = np.array([w[votes == c].sum() for c in codes])
    return codes[int(np.argmax(acc))]


@pytest.mark.parametrize("n", [2, 5, 8, 13, 20])
def test_weighted_vote_matches_single_voxel(n):
    """Exact for every atlas count: numpy sums 8 or more terms pairwise."""
    rng = np.random.default_rng(60 + n)
    w = rng.random((400, n))
    w[::7, 0] = 0.0  # clamped weights
    w[::5] = 1.0  # equal weights, so codes with equal counts tie
    w /= w.sum(axis=1, keepdims=True)
    votes = rng.integers(0, 4, size=(400, n))
    votes[::3] = rng.integers(0, 2, size=(134, n)) * 5  # two codes only
    ref = [_reference_vote(wv, vv) for wv, vv in zip(w, votes)]
    assert np.array_equal(fusion._weighted_vote(w, votes), ref)
