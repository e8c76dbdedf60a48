"""Smoke test of the benchmark harness on a small phantom.

    python3 -m pytest bench

Runs each workload of BENCHMARK.json with tracing off and with it on, on two
subjects in a box of the phantom a third the size of the benchmark's, and
checks that each metric BENCHMARK.json names is printed with its unit and
that tracing leaves the segmentation byte-identical.
"""

import json
import os

import pytest

import run

SMALL_BOX = ((9, 5, 7), (29, 32, 25))  # nuclei 1 and 4 whole


with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    monkeypatch.setattr(run, "PHANTOM_BOX", SMALL_BOX)
    monkeypatch.setattr(run, "N_SUBJECTS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_tracing_keeps_output(capsys, workload):
    result, report = _run(capsys, workload, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert report["checks"]["setup_deterministic"] and report["checks"]["library_unchanged"]
    assert len(report["provenance"]["package_sha256"]) == 64
    assert all(s["probes"] >= 2 for s in report["samples"])  # the pace probe ran in every call

    traced, traced_report = _run(capsys, workload, 1)
    _check_metrics(traced, SPEC["per_layer"])
    assert len(report["sha256"]) == 2
    assert traced_report["traced_sha256"] == traced_report["sha256"][0] == report["sha256"][0]
    assert traced_report["checks"]["traced_output_identical"]
    assert traced_report["missing_wrapped_names"] == []
    calls = traced["metrics"]["register.deformable_calls"]["value"]
    assert calls == (1 + 5 if run.WORKLOADS[workload]["cold"] else 1)


def test_refuses_to_run_without_source_tree(monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(run.WORK, "no-such-tree"))
    assert run.main(["--workload", "mv-warm", "--seconds", "0"]) == 2
