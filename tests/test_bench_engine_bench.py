"""engine-bench: warm-up, median of timed passes, makespan equality gate.

``measure_cell`` and the clock are stubbed, so these tests check the
bookkeeping of :func:`repro.bench.parallel.engine_benchmark` without
running a simulation.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.bench import parallel
from repro.bench.parallel import ENGINE_BENCH_REPEATS, engine_benchmark


class _Clock:
    """Fake ``time`` module: ``measure_cell`` advances it by a script."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def _stub(monkeypatch, durations, makespans):
    """Cell ``n`` (in call order) takes ``durations[n]`` fake seconds and
    reports makespan ``makespans[engine]``."""
    clock = _Clock()
    calls = []

    def measure_cell(cell):
        clock.now += durations[len(calls)]
        calls.append(cell)
        return SimpleNamespace(makespan=makespans[cell["engine"]])

    monkeypatch.setattr(parallel, "time", clock)
    monkeypatch.setattr(parallel, "measure_cell", measure_cell)
    return calls


def test_host_seconds_is_median_of_timed_passes(monkeypatch):
    assert ENGINE_BENCH_REPEATS == 3
    # Per engine: warm-up (untimed), then three one-cell passes.
    calls = _stub(monkeypatch, [100.0, 5.0, 1.0, 2.0,
                                100.0, 4.0, 8.0, 6.0],
                  {"seq": 1.5, "sharded": 1.5})
    res = engine_benchmark(("seq", "sharded"), app="fw", seeds=(0,))
    assert len(calls) == 2 * (1 + ENGINE_BENCH_REPEATS)
    assert [c["engine"] for c in calls] == ["seq"] * 4 + ["sharded"] * 4
    assert res["seq"]["host_seconds"] == 2.0      # median of 5, 1, 2
    assert res["sharded"]["host_seconds"] == 6.0  # median of 4, 8, 6
    assert res["sharded"]["speedup"] == pytest.approx(2.0 / 6.0)
    assert res["seq"]["makespan"] == res["sharded"]["makespan"] == 1.5


def test_pass_spans_every_seed(monkeypatch):
    calls = _stub(monkeypatch, [9.0, 1.0, 1.0, 3.0, 3.0, 2.0, 2.0],
                  {"seq": 1.0})
    res = engine_benchmark(("seq",), app="potrf", seeds=(0, 1), nodes=16)
    assert [c["seed"] for c in calls] == [0, 0, 1, 0, 1, 0, 1]
    assert all(c["nodes"] == 16 and c["app"] == "potrf" for c in calls)
    assert res["seq"]["host_seconds"] == 4.0  # passes 2, 6, 4


def test_diverging_makespans_raise(monkeypatch):
    _stub(monkeypatch, [1.0] * 8, {"seq": 1.0, "sharded": 1.25})
    with pytest.raises(AssertionError, match="'sharded' diverged from 'seq'"):
        engine_benchmark(("seq", "sharded"))


def test_cli_output_records_cpu_count(monkeypatch, tmp_path):
    from repro.bench.__main__ import main

    _stub(monkeypatch, [1.0] * 8, {"seq": 2.0, "sharded": 2.0})
    out = tmp_path / "bench.json"
    assert main(["engine-bench", "--apps", "fw", "--seeds", "0",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cpu_count"] == os.cpu_count()
    assert set(data["engines"]) == {"seq", "sharded"}


def test_cli_rejects_mp_engine():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["--engine", "mp"])
