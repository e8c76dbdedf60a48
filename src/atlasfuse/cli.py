"""Command-line interface.

Subcommands: synth, segment, eval, stats, phantom.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
No command writes over its own input (atomic.refuse_overwrite): the run_* functions
check theirs, and the CLI the files only it reads, synth's --t1/--m0 and --config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, imgio
from .atomic import make_dirs, refuse_overwrite
from .errors import AtlasFuseError, NumericalError, UsageError
from .metrics import DEFAULT_COMPARISONS, METRICS
from .phantom import PhantomSpec, WarpSpec, derive_atlases, make_subject, synthesized_base
from .pipeline import CONFIG_KEYS, DEFAULT_FUSION, FUSIONS, SEGMENT_OUTPUTS, read_config
from .pipeline import run_eval, run_segment, run_stats
from .synth import DEFAULT_TI_MS, SynthesisParams, synthesize_wmn


def cmd_synth(args):
    refuse_overwrite([args.out], {"--t1": args.t1, "--m0": args.m0})
    t1 = imgio.read_volume(args.t1)
    if args.t1_unit == "s":
        t1 = t1.with_data(t1.data * 1000.0)
    m0 = imgio.read_volume(args.m0) if args.m0 else None
    params = SynthesisParams(ti_ms=args.ti, m0=m0, signed=args.signed)
    imgio.write_volume(synthesize_wmn(t1, params), args.out)
    return 0


def cmd_segment(args):
    refuse_overwrite([os.path.join(args.out_dir, n) for n in SEGMENT_OUTPUTS.values()], {"--config": args.config})
    settings = read_config(args.config) if args.config else {}
    # --mode and --fusion stand in for the config's keys of the same names
    settings.update({k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None})
    out = run_segment(
        args.input, args.atlas, args.out_dir, true_warp_path=args.true_warp, n_workers=args.workers, **settings
    )
    print(json.dumps({"status": "ok", "outputs": out}))
    return 0


def cmd_eval(args):
    out = run_eval(
        args.seg_a,
        args.seg_b,
        args.out_dir,
        intensity_a_path=args.intensity_a,
        intensity_b_path=args.intensity_b,
        align=args.align,
        aggregate_hemispheres=args.aggregate,
        subject_id=args.subject_id,
    )
    print(json.dumps({"status": "ok", "csv": out["csv"], "json": out["json"]}))
    return 0


def cmd_stats(args):
    out = run_stats(args.csv_a, args.csv_b, args.out, m=args.m, metric=args.metric)
    print(
        json.dumps(
            {"status": "ok", "csv": out["csv"], "bonferroni_threshold": out["bonferroni_threshold"]}
        )
    )
    return 0


def cmd_phantom(args):
    if args.n_atlases < 1:
        raise UsageError(f"--n-atlases must be >= 1, got {args.n_atlases}")
    try:
        spec = PhantomSpec(seed=args.seed, noise_sigma=args.noise)
        warp = WarpSpec(seed=args.seed, max_displacement_mm=args.max_warp_mm)
    except ValueError as e:
        raise UsageError(f"bad phantom option: {e}") from e
    base_int, truth, t1_map = synthesized_base(spec)
    lib = derive_atlases((base_int, truth), n=args.n_atlases, seed=args.seed, warp_spec=warp)
    lib.save(args.out_dir)
    subj_int, subj_truth, subj_warp = make_subject(
        (base_int, truth),
        warp_spec=WarpSpec(seed=args.seed + 99991, max_displacement_mm=args.max_warp_mm),
    )
    sdir = os.path.join(args.out_dir, "subject")
    make_dirs(sdir)
    imgio.write_volume(subj_int, os.path.join(sdir, "intensity.nii.gz"))
    imgio.write_volume(subj_truth, os.path.join(sdir, "truth_labels.nii.gz"))
    imgio.write_field(subj_warp, os.path.join(sdir, "truth_warp.nii.gz"))
    imgio.write_volume(t1_map, os.path.join(sdir, "base_t1_map.nii.gz"))
    print(json.dumps({"status": "ok", "atlas_dir": args.out_dir, "subject_dir": sdir}))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse whose errors, its subparsers' too, raise UsageError: one JSON line like any usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="atlasfuse", description="Multi-atlas thalamic segmentation toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize WMn contrast from a T1 map")
    ps.add_argument("--t1", required=True)
    ps.add_argument("--ti", type=float, default=DEFAULT_TI_MS)
    ps.add_argument("--out", required=True)
    ps.add_argument("--signed", action="store_true")
    ps.add_argument("--m0", default=None)
    ps.add_argument("--t1-unit", choices=("ms", "s"), default="ms")
    ps.set_defaults(func=cmd_synth)

    pg = sub.add_parser("segment", help="segment an input volume with an atlas library")
    pg.add_argument("--input", required=True)
    pg.add_argument("--atlas", required=True)
    pg.add_argument("--out-dir", required=True)
    pg.add_argument("--mode", choices=tuple(DEFAULT_FUSION), default=None)
    pg.add_argument("--fusion", choices=FUSIONS, default=None)
    pg.add_argument("--config", default=None, help="JSON config mirroring the run manifest")
    pg.add_argument("--true-warp", default=None, help="bypass registration with a known warp")
    pg.add_argument(
        "--workers",
        type=int,
        default=1,
        help="registration threads: one pool of N threads registers the input and each prior without "
        "a cached warp while the main thread assembles; 1 starts no thread, the result is the same for every N",
    )
    pg.set_defaults(func=cmd_segment)

    pe = sub.add_parser("eval", help="compare two segmentations")
    pe.add_argument("--seg-a", required=True)
    pe.add_argument("--seg-b", required=True)
    pe.add_argument("--out-dir", required=True)
    pe.add_argument("--intensity-a", default=None)
    pe.add_argument("--intensity-b", default=None)
    pe.add_argument("--align", action="store_true")
    pe.add_argument("--aggregate", action="store_true")
    pe.add_argument("--subject-id", default="")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("stats", help="paired t-tests between two metrics CSVs")
    pt.add_argument("--csv-a", required=True)
    pt.add_argument("--csv-b", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--m", type=int, default=DEFAULT_COMPARISONS)
    pt.add_argument("--metric", default=METRICS[0], choices=METRICS)
    pt.set_defaults(func=cmd_stats)

    pp = sub.add_parser("phantom", help="generate a phantom atlas library and test subject")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--n-atlases", type=int, default=5)
    pp.add_argument("--noise", type=float, default=0.0)
    pp.add_argument("--max-warp-mm", type=float, default=WarpSpec.max_displacement_mm)
    pp.set_defaults(func=cmd_phantom)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help or --version has printed its text
        return e.code
    except AtlasFuseError as e:
        code = 1 if isinstance(e, UsageError) else 3 if isinstance(e, NumericalError) else 2
        print(json.dumps({"status": "error", "error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
