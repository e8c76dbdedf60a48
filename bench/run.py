"""atlasfuse benchmark: seeded phantom in, timed and scored segmentations out.

Usage (from the repository root):

    python3 bench/run.py --workload jlf-warm --seed 7 --seconds 36 --trace 0

Set-up builds the inputs and writes them to disk, three times; ``setup_s`` is
the median, scaled to the reference pace as below. The inputs are the prior
library ``derive_atlases(n=5, seed=7)`` and three subjects. Like a site's
atlas library and its test cohort, the library and the subjects' anatomies
are the same in every run: subject j has the warp that
``make_subject(seed=2024 + 100003 j)`` draws, the first being the conftest
fixture's subject. Drawn per seed, the anatomy alone moved a call's fusion
work by up to 30% (721 to 933 disagreeing voxels over six subjects).
``--seed S`` draws the scan noise instead, as
``make_subject(seed=S + 2017 + 100003 j)`` would, so seed 7 gives the
fixture's subject exactly. The phantom is the 32^3 box of the 64^3 conftest
phantom at 1 mm that holds right-side nuclei 1, 2, 4 and 5 whole: the full
64^3 chain takes 20 s to set up and 12-30 s per segmentation, more than the
measuring budget allows.

Load is a closed loop with one client: segmentations of the subjects in turn
run back to back for ``--seconds``, at least one per subject, each
``run_segment`` call in a fresh child process like a CLI invocation. Every
output is scored against the phantom truth and hashed. ``segment_s`` is each
subject's median call averaged over the subjects, so that it does not depend
on which subjects a run had time to segment once more; the scores are
averaged over the subjects too.

The host's speed drifts by up to a third within a run, which a comparison of
two commits must not read as theirs. So each timed call and each set-up runs
under a probe (``bench/pace.py``) that times a fixed loop ten times a second
in the same process, and its wall time is scaled to a steady reference pace:
``segment_s`` and ``setup_s`` are seconds on a host that runs the loop in
``pace.REF_LOOP_S``. On a 2-vCPU KVM guest, over ten seeds per workload,
the spread (quartile distance over median) of ``segment_s`` was 7% on
jlf-warm and 5% on mv-cold where the same statistic of wall times spread 21%
and 8%; ``setup_s`` spread 6-7% against 14-26%. The wall times and the
probe's readings are in the report line.

With ``--trace 1`` the same loop gives the untraced time, then subject 0 is
segmented once more, and the set-up run once, with spans recorded around the
package's functions (``bench/spans.py``); the per-layer metrics are printed
instead of the end-to-end ones.

The second-to-last line of standard output is a JSON report (provenance,
per-call times, output sha256 per subject, per-nucleus scores); the last line
is the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = {
    # the paper's default path; joint label fusion is most of the time
    "jlf-warm": {"fusion": "jlf", "workers": 1, "cold": False},
    # no cached prior warps: five more prior->template demons runs over two
    # worker threads, and five warp writes; the only user of --workers
    "mv-cold": {"fusion": "mv", "workers": 2, "cold": True},
    # the serial registration chain alone; left out of BENCHMARK.json, whose
    # time budget fits two workloads, and run by hand
    "mv-warm": {"fusion": "mv", "workers": 1, "cold": False},
}

PHANTOM_BOX = ((3, 1, 7), (34, 32, 38))  # inclusive voxel box of the 64^3 phantom
N_PRIORS = 5
LIBRARY_SEED = 7
ANATOMY_SEED = 7  # subject j's warp is make_subject's for subject_seed(7, j)
NOISE_SIGMA = 0.01  # make_subject's scan noise, as a share of the image's range
N_SUBJECTS = 3
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
WARP_NAME = "warp_to_template.nii.gz"

# criterion-6 accuracy bounds, by truth voxel count of the nucleus
BIG_VOX, SMALL_VOX = 500, 50
BIG_MIN_DICE, BIG_MIN_VSI, SMALL_MIN_DICE = 0.85, 0.90, 0.60


def subject_seed(seed, j):
    return seed + 2017 + 100003 * j


def tree_sha256(path, suffixes=None):
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if suffixes and not name.endswith(suffixes):
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(file_sha256(full).encode())
    return h.hexdigest()


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def build_inputs(out_dir, seed):
    """Write the atlas library and the subject volumes; return paths and truths."""
    import numpy as np
    from atlasfuse import imgio, phantom
    from atlasfuse.grid import CropBox, crop

    wmn, truth, _ = phantom.synthesized_base()
    box = CropBox(*PHANTOM_BOX)
    base = crop(wmn, box), crop(truth, box)
    atlas = os.path.join(out_dir, "atlas")
    phantom.derive_atlases(base, n=N_PRIORS, seed=LIBRARY_SEED).save(atlas)
    subjects = []
    for j in range(N_SUBJECTS):
        spec = phantom.WarpSpec(seed=subject_seed(ANATOMY_SEED, j))
        image, subject_truth, _ = phantom.make_subject(base, warp_spec=spec, noise_sigma=0.0)
        # make_subject's noise model, drawn from --seed
        rng = np.random.default_rng(subject_seed(seed, j) + 700001)
        noise = rng.standard_normal(image.data.shape) * NOISE_SIGMA * float(np.ptp(image.data))
        image = image.with_data(image.data + noise)
        path = os.path.join(out_dir, f"subject{j}.nii.gz")
        imgio.write_volume(image, path)
        subjects.append({"path": path, "truth": subject_truth.data})
    return {"atlas": atlas, "subjects": subjects}


def set_up(seed, repeats, tracer=None):
    """Build the inputs `repeats` times; return the last build, times and hashes.

    Each time is a (wall seconds, seconds at the reference pace) pair.
    """
    from atlasfuse import imgio, phantom  # noqa: F401  imported before any timing

    times, hashes, inputs = [], [], None
    for i in range(repeats):
        out_dir = os.path.join(WORK, f"setup{i}")
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.install(spans.SETUP_TARGETS)
        try:
            with pace.Probe() as probe:
                t0 = time.perf_counter()
                inputs = build_inputs(out_dir, seed)
                seconds = time.perf_counter() - t0
            times.append((seconds, seconds * probe.scale()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        hashes.append(tree_sha256(out_dir))
        if i + 1 < repeats:
            shutil.rmtree(out_dir)
    return inputs, times, hashes


def score(seg, truth):
    """Per-nucleus Dice/VSI against truth and whether criterion 6 holds."""
    import numpy as np

    rows, ok = [], True
    for code in np.unique(truth):
        t, s = truth == code, seg == code
        n, m = int(t.sum()), int(s.sum())
        if code == 0 or n < SMALL_VOX:
            continue
        d = 2.0 * int((t & s).sum()) / (n + m)
        v = 1.0 - abs(m - n) / (m + n)
        if n >= BIG_VOX:
            ok = ok and d >= BIG_MIN_DICE and v >= BIG_MIN_VSI
        else:
            ok = ok and d >= SMALL_MIN_DICE
        rows.append({"code": int(code), "vox": n, "dice": d, "vsi": v})
    big = [r["dice"] for r in rows if r["vox"] >= BIG_VOX]
    # 2% of subjects have both big nuclei of the box warped below 500
    # voxels; the largest nucleus then stands in for the big class
    worst_big = min(big) if big else max(rows, key=lambda r: r["vox"])["dice"]
    mean = statistics.fmean(r["dice"] for r in rows)
    return {"ok": ok, "worst_big_dice": worst_big, "mean_dice": mean, "nuclei": rows}


def segment_once(inputs, j, workload, tag, spans_path=None):
    """Segment subject j in a child process; score and hash its output."""
    from atlasfuse import imgio

    atlas = inputs["atlas"]
    if workload["cold"]:
        # a fresh warp-free copy per call: run_segment may write computed
        # warps into the library it reads
        atlas = os.path.join(WORK, f"cold-{tag}")
        shutil.copytree(inputs["atlas"], atlas)
        for path in glob.glob(os.path.join(atlas, "priors", "*", WARP_NAME)):
            os.remove(path)
    out_dir = os.path.join(WORK, f"out-{tag}")
    job = {
        "src": SRC,
        "input": inputs["subjects"][j]["path"],
        "atlas": atlas,
        "out": out_dir,
        "fusion": workload["fusion"],
        "workers": workload["workers"],
        "spans": spans_path,
    }
    sample = {"subject": j, "ok": False}
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(job)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode == 0:
            sample.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            seg_path = os.path.join(out_dir, "segmentation.nii.gz")
            sample["sha256"] = file_sha256(seg_path)
            seg = imgio.read_volume(seg_path, as_labels=True).data
            sample.update(score(seg, inputs["subjects"][j]["truth"]))
        else:
            sample["error"] = f"child exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        sample["error"] = f"child ran over {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if atlas != inputs["atlas"]:
            shutil.rmtree(atlas, ignore_errors=True)
    return sample


def closed_loop(inputs, workload, seconds):
    """Segment the subjects in turn until `seconds` have passed; each at least once."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < N_SUBJECTS or time.perf_counter() < deadline:
        j = len(samples) % N_SUBJECTS
        samples.append(segment_once(inputs, j, workload, str(len(samples))))
    return samples


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return None  # not a git checkout, or a packed ref


def provenance(seed, library_sha):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        l3 = None
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "library_seed": LIBRARY_SEED,
        "anatomy_seeds": [subject_seed(ANATOMY_SEED, j) for j in range(N_SUBJECTS)],
        "noise_seeds": [subject_seed(seed, j) + 700001 for j in range(N_SUBJECTS)],
        "phantom_box": PHANTOM_BOX,
        "nproc": os.cpu_count(),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "package_sha256": tree_sha256(os.path.join(SRC, "atlasfuse"), (".py", ".json")),
        "atlas_library_sha256": library_sha,
    }


def execute(name, seed, seconds, trace):
    """Run one workload; return (result, report)."""
    workload = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    inputs, setup_times, setup_hashes = set_up(seed, 1 if trace else SETUP_REPEATS, tracer)
    library_sha = tree_sha256(inputs["atlas"])
    samples = closed_loop(inputs, workload, seconds)
    by_subject = [[s for s in samples if s["subject"] == j and s["ok"]] for j in range(N_SUBJECTS)]
    shas = [sorted({s["sha256"] for s in samples if s["subject"] == j and "sha256" in s}) for j in range(N_SUBJECTS)]
    checks = {
        "setup_deterministic": len(set(setup_hashes)) == 1,
        "library_unchanged": tree_sha256(inputs["atlas"]) == library_sha,
        "output_deterministic": all(len(h) == 1 for h in shas),
    }
    report = {
        "workload": name,
        "sha256": [h[0] if len(h) == 1 else h for h in shas],
        "samples": samples,
        "setup_wall_s": [wall for wall, _ in setup_times],
        "setup_scaled_s": [scaled for _, scaled in setup_times],
        "provenance": provenance(seed, library_sha),
    }
    good = [s for ok in by_subject for s in ok]

    def median(key, calls=good):
        return statistics.median(s[key] for s in calls) if calls else 0.0

    def per_subject(key, pick=lambda calls: calls[0]):  # scores repeat exactly for a subject
        return statistics.fmean(pick([s[key] for s in ok]) for ok in by_subject if ok) if good else 0.0

    if not trace:
        metrics = {
            "segment_s": (per_subject("scaled_s", statistics.median), "s"),
            "setup_s": (statistics.median(scaled for _, scaled in setup_times), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
            "worst_big_dice": (per_subject("worst_big_dice"), "ratio"),
            "mean_dice": (per_subject("mean_dice"), "ratio"),
        }
    else:
        spans_path = os.path.join(WORK, "spans.json")
        traced = segment_once(inputs, 0, workload, "traced", spans_path)
        seg_spans = []
        if os.path.exists(spans_path):
            with open(spans_path) as f:
                seg_spans = [spans.Span(**d) for d in json.load(f)]
        checks["traced_output_identical"] = [traced.get("sha256")] == shas[0]
        report["traced_sha256"] = traced.get("sha256")
        report["missing_wrapped_names"] = sorted(set(tracer.missing + traced.get("missing", [])))
        metrics = spans.segment_metrics(seg_spans, workload["workers"])
        metrics.update(spans.setup_metrics(tracer.spans))
        base = median("scaled_s", by_subject[0])
        overhead = traced["scaled_s"] / base - 1.0 if traced["ok"] and base else 0.0
        metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
        samples.append(traced)
    failed = sum(1 for s in samples if not s["ok"])
    report["failed_frac"] = failed / len(samples)
    report["checks"] = checks
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "atlasfuse", "pipeline.py")):
        print(f"no atlasfuse source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        result, report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
