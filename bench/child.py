"""One segmentation in a fresh process, as a CLI invocation would run it.

Usage: python3 bench/child.py '<json job>'

The job names the source tree, the input volume, the atlas library, the
output directory, the fusion, the worker count and, for a traced run, the
file the spans go to. The last line of standard output is a JSON object with
the wall time of the ``run_segment`` call, the mean time of the pace probe's
loop during it (``bench/pace.py``), the process's peak RSS and, when traced,
the wrapped names that no longer exist.
"""

import json
import resource
import sys
import time

import pace


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from atlasfuse import pipeline

    tracer = None
    if job.get("spans"):
        import spans  # the script's own directory is on sys.path

        tracer = spans.Tracer()
        tracer.install(spans.SEGMENT_TARGETS)
    with pace.Probe() as probe:
        t0 = time.perf_counter()
        pipeline.run_segment(
            job["input"], job["atlas"], job["out"], mode="wmn", fusion=job["fusion"], n_workers=job["workers"]
        )
        seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    out = {
        "seconds": seconds,
        "scaled_s": seconds * probe.scale(),
        "probe_loop_s": probe.mean_loop_s(),
        "probes": len(probe.loops_s),
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        with open(job["spans"], "w") as f:
            json.dump([vars(s) for s in tracer.spans], f)
        out["missing"] = tracer.missing
    print(json.dumps(out))


if __name__ == "__main__":
    main()
