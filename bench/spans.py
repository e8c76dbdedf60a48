"""Outside-in tracing of atlasfuse, and the per-layer metrics made from it.

The tracer replaces package functions at the module attributes the pipeline
reaches them through (``pipeline.register_rigid``, ``register.compose_fields``
inside the demons loop, ...) with wrappers that record one span per call:
name, start, end, parent span, thread, and counts read from the call's
arguments or result after its end time is taken. Spans stay in memory until
the run ends. Nothing inside the package changes.

A span opened on a worker thread with no open span of its own (the prior
warps of ``run_segment``'s thread pool) is parented to the root span, the
outermost span open on the main thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


def _nbytes(obj):
    arr = getattr(obj, "data", None)
    if arr is None:
        arr = getattr(obj, "disp", None)
    return int(arr.nbytes) if arr is not None else 0


def _read_info(args, kwargs, result):
    return {"bytes": _nbytes(result)}


def _write_info(args, kwargs, result):
    return {"bytes": _nbytes(args[0] if args else next(iter(kwargs.values())))}


def _resample_info(args, kwargs, result):
    return {"vox": int(result.data.size)}


def _invert_info(args, kwargs, result):
    # solver state as the returned field exposes it; None if it stops doing so
    return {
        "converged": getattr(result, "converged", None),
        "residual_mm": getattr(result, "residual_mm", None),
    }


def _jlf_info(args, kwargs, result):
    import numpy as np

    labels = args[2] if len(args) > 2 else kwargs["atlas_labels"]
    stack = np.stack([lv.data for lv in labels])
    return {"disagree": int(np.any(stack != stack[0], axis=0).sum())}


# (module, attribute path, span name, count hook). One span name may be
# installed at several bindings of the same function; each binding wraps the
# original, so a call is recorded once.
SEGMENT_TARGETS = [
    ("atlasfuse.pipeline", "run_segment", "pipeline.run_segment", None),
    ("atlasfuse.pipeline", "_prior_warp", "pipeline.prior_warp", None),
    ("atlasfuse.library", "AtlasLibrary.load", "library.load", None),
    ("atlasfuse.imgio", "read_volume", "imgio.read", _read_info),
    ("atlasfuse.imgio", "read_field", "imgio.read", _read_info),
    ("atlasfuse.imgio", "write_volume", "imgio.write", _write_info),
    ("atlasfuse.imgio", "write_field", "imgio.write", _write_info),
    ("atlasfuse.pipeline", "register_rigid", "register.rigid", None),
    ("atlasfuse.pipeline", "register_deformable", "register.deformable", None),
    ("atlasfuse.pipeline", "invert_field", "register.invert", _invert_info),
    ("atlasfuse.pipeline", "resample_field", "register.resample_field", None),
    ("atlasfuse.register", "resample_field", "register.resample_field", None),
    ("atlasfuse.pipeline", "compose_fields", "register.compose", None),
    ("atlasfuse.register", "compose_fields", "register.compose", None),
    ("atlasfuse.pipeline", "warp_labels", "register.warp_labels", None),
    ("atlasfuse.pipeline", "resample", "grid.resample", _resample_info),
    ("atlasfuse.register", "resample", "grid.resample", _resample_info),
    ("atlasfuse.pipeline", "crop", "grid.crop", None),
    ("atlasfuse.pipeline", "uncrop", "grid.uncrop", None),
    ("atlasfuse.pipeline", "majority_vote", "fusion.mv", None),
    ("atlasfuse.pipeline", "joint_label_fusion", "fusion.jlf", _jlf_info),
]

SETUP_TARGETS = [
    ("atlasfuse.phantom", "synthesized_base", "phantom.base", None),
    ("atlasfuse.phantom", "derive_atlases", "phantom.derive", None),
    ("atlasfuse.phantom", "make_subject", "phantom.subject", None),
    ("atlasfuse.phantom", "invert_field", "register.invert", _invert_info),
    ("atlasfuse.grid", "resample", "grid.resample", _resample_info),
    ("atlasfuse.library", "AtlasLibrary.save", "library.save", None),
    ("atlasfuse.imgio", "write_volume", "imgio.write", _write_info),
    ("atlasfuse.imgio", "write_field", "imgio.write", _write_info),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    info: dict | None = None


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._undo = []

    def install(self, targets):
        for modname, path, name, info in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(modname)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, info))
            else:
                new = self._wrap(raw, name, info)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent, self._root = None, sid
            else:
                parent = self._root
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
            finally:
                stack.pop()
            extra = None
            if info is not None:
                try:
                    extra = info(args, kwargs, result)
                except Exception as e:  # a changed signature must not break the traced run
                    self.missing.append(f"{name} count ({e!r})")
            self.spans.append(Span(sid, name, parent, threading.get_ident(), t0, t1, extra))
            return result

        return traced


def self_times(spans):
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _total(spans, name):
    return sum(s.end - s.start for s in spans if s.name == name)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def _info_sum(spans, name, key):
    return sum((s.info or {}).get(key) or 0 for s in spans if s.name == name)


LAYERS = ("library", "imgio", "grid", "register", "fusion")


def segment_metrics(spans, n_workers):
    """Per-layer metrics of one traced run_segment call, as name -> (value, unit)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    roots = [s for s in spans if s.name == "pipeline.run_segment" and s.parent is None]
    root = roots[0] if roots else None
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    jlf_s = _total(spans, "fusion.jlf")
    disagree = _info_sum(spans, "fusion.jlf", "disagree")
    put("fusion.jlf_s", jlf_s, "s")
    put("fusion.jlf_disagree_vox", disagree, "count")
    put("fusion.jlf_us_per_vox", 1e6 * jlf_s / disagree if disagree else 0.0, "us")
    put("fusion.mv_s", _total(spans, "fusion.mv"), "s")

    def under_deformable(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == "register.deformable":
                return True
            p = by_id.get(p.parent)
        return False

    put("register.rigid_s", _total(spans, "register.rigid"), "s")
    put("register.deformable_s", _total(spans, "register.deformable"), "s")
    put("register.deformable_calls", _count(spans, "register.deformable"), "count")
    put(
        "register.demons_iters",
        sum(1 for s in spans if s.name == "register.compose" and under_deformable(s)),
        "count",
    )
    inverts = [s for s in spans if s.name == "register.invert"]
    put("register.invert_s", _total(spans, "register.invert"), "s")
    put("register.invert_calls", len(inverts), "count")
    put("register.invert_converged", sum(1 for s in inverts if (s.info or {}).get("converged")), "count")
    residuals = [(s.info or {}).get("residual_mm") for s in inverts]
    put("register.invert_residual_mm", max((r for r in residuals if r is not None), default=0.0), "mm")
    put("register.compose_s", _total(spans, "register.compose"), "s")
    put("register.compose_calls", _count(spans, "register.compose"), "count")
    put("register.resample_field_s", _total(spans, "register.resample_field"), "s")
    put("register.warp_labels_s", _total(spans, "register.warp_labels"), "s")
    put("grid.resample_s", _total(spans, "grid.resample"), "s")
    put("grid.resample_calls", _count(spans, "grid.resample"), "count")
    put("grid.resample_mvox", _info_sum(spans, "grid.resample", "vox") / 1e6, "Mvox")

    # prior phase: the root's direct children from the first prior warp until
    # fusion starts, leaving out the main thread's writes of computed warps
    wall = busy = 0.0
    starts = [s.start for s in spans if s.name == "pipeline.prior_warp"]
    if root is not None and starts:
        first = min(starts)
        fused = [s.start for s in spans if s.name in ("fusion.jlf", "fusion.mv")]
        stop = min(fused, default=root.end)
        phase = [
            s
            for s in spans
            if s.parent == root.id and s.start >= first and s.end <= stop and not s.name.startswith("imgio.")
        ]
        wall = max(s.end for s in phase) - first
        busy = sum(s.end - s.start for s in phase)
    put("pipeline.priors_wall_s", wall, "s")
    put("pipeline.priors_busy_s", busy, "s")
    put("pipeline.priors_parallel_eff", busy / (wall * n_workers) if wall else 0.0, "ratio")
    put("pipeline.self_s", selfs[root.id] if root is not None else 0.0, "s")

    put("library.load_s", _total(spans, "library.load"), "s")
    for op in ("read", "write"):
        put(f"imgio.{op}_s", _total(spans, f"imgio.{op}"), "s")
        put(f"imgio.{op}_calls", _count(spans, f"imgio.{op}"), "count")
        put(f"imgio.{op}_mb", _info_sum(spans, f"imgio.{op}", "bytes") / 1e6, "MB")

    busy_by_layer = defaultdict(float)
    for s in spans:
        busy_by_layer[s.name.split(".")[0]] += selfs[s.id]
    for layer in LAYERS:
        put(f"{layer}.busy_s", busy_by_layer[layer], "s")
    return m


def setup_metrics(spans):
    """Per-layer metrics of one traced set-up, as name -> (value, unit)."""
    return {
        "phantom.derive_s": (_total(spans, "phantom.derive"), "s"),
        "phantom.subject_s": (_total(spans, "phantom.subject"), "s"),
        "phantom.invert_s": (_total(spans, "register.invert"), "s"),
        "library.save_s": (_total(spans, "library.save"), "s"),
    }
