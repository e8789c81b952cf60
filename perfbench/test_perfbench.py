"""Fast self-test of the benchmark at reduced input size.

    python -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted, that a
corrupted output, a wrong virtual result or a call the tracer cannot see
makes the run count as failed, and that the host-probe helper process
has ended when a run leaves it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import traced  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3


@pytest.fixture
def calls():
    c = W.Calls()
    c.install()
    yield c
    c.restore()


def _names(result):
    return list(result["metrics"])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == traced.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.GATED)
    assert all(w["why"] == W.WORKLOADS[w["name"]].why
               for w in spec["workloads"])


def test_host_probe_helper_ends_with_its_context():
    cpus = os.sched_getaffinity(0)
    with run.HostProbe() as probe:
        assert probe() > 0
        assert len(os.sched_getaffinity(probe._proc.pid)) == 1
    assert probe._proc.returncode == 0
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("name", W.GATED)
def test_bare_run_emits_end_to_end_metrics(name, calls):
    result, report = run.bare_run(W.WORKLOADS[name], SEED, 0.0, calls,
                                  None, small=True)
    assert _names(result) == [n for n, _ in run.END_TO_END]
    assert result["correct"] and result["attempted"] == 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["samples"]["tasks_per_s"] == 1
    # One set-up per iteration plus the workload's set-up-only passes.
    assert report["samples"]["setup_s"] == 1 + W.WORKLOADS[name].setup_passes
    assert report["iterations"]["host_speed"][0] > 0


@pytest.mark.parametrize("name", W.GATED)
def test_traced_run_emits_per_layer_metrics_and_passes_self_check(name, calls):
    result, _ = run.traced_run(W.WORKLOADS[name], SEED, calls, None,
                               small=True)
    assert _names(result) == [n for n, _ in traced.PER_LAYER]
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.events"] > 0
    assert (metrics["telemetry.bus.calls"] > 0) == W.WORKLOADS[name].telemetry


def test_traced_whatif_run_counts_probes(calls):
    result, _ = run.traced_run(W.WORKLOADS["whatif-mra"], SEED, calls, None,
                               small=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["whatif.probes"] == 7
    assert metrics["body.PROJECT.calls"] > 0


def _corrupt_c(make_driver):
    def corrupting(*args, **kwargs):
        res = make_driver(*args, **kwargs)
        _, tile = next(iter(res.C.blocks()))
        tile.data[0, 0] += 1.0
        return res
    return corrupting


def test_corrupted_output_counts_as_failed():
    patch = tracer.Patcher()
    patch.function("repro.apps.bspmm.driver", "bspmm_ttg", _corrupt_c)
    c = W.Calls()
    c.install()
    try:
        result, _ = run.bare_run(W.WORKLOADS["bspmm16"], SEED, 0.0, c, None,
                                 small=True)
    finally:
        c.restore()
        patch.restore()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_wrong_virtual_output_counts_as_failed(calls):
    wl = W.WORKLOADS["potrf-real"]
    good = W.iterate(wl, SEED, calls, small=True)
    assert not good.errors
    wrong = json.loads(json.dumps(good.virtual))
    wrong[0]["makespan"] = math.nextafter(wrong[0]["makespan"], math.inf)
    result, _ = run.bare_run(wl, SEED, 0.0, calls, wrong, small=True)
    assert result["failed"] == 1


def test_call_through_hoisted_reference_fails_self_check(calls, monkeypatch):
    from repro.runtime.base import Backend

    submit = Backend.submit
    init = Backend.__init__

    def hoisting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # An instance attribute bound before the tracer wraps the class.
        self.submit = types.MethodType(submit, self)

    monkeypatch.setattr(Backend, "__init__", hoisting_init)
    result, _ = run.traced_run(W.WORKLOADS["bspmm16"], SEED, calls, None,
                               small=True)
    assert result["failed"] == 1


def test_tracer_restores_every_binding():
    import repro.apps.cholesky.graph as cg
    import repro.bench.history as history
    from repro.core.graph import Executable

    before = (cg.gemm, history.MEASUREMENTS["mra"], Executable.send_from)
    t = tracer.Tracer()
    t.install()
    assert cg.gemm is not before[0]
    assert history.MEASUREMENTS["mra"] is not before[1]
    t.restore()
    assert (cg.gemm, history.MEASUREMENTS["mra"],
            Executable.send_from) == before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bspmm16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
