"""Tests for the Gantt timeline SVG and the bench CLI."""

import pytest

from repro.apps.floydwarshall import floyd_warshall_ttg
from repro.bench.__main__ import main as bench_main
from repro.linalg import BlockCyclicDistribution, TiledMatrix, random_weight_matrix
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry import EventBus, Telemetry
from repro.telemetry.report_html import gantt_svg


@pytest.fixture(scope="module")
def traced():
    tel = Telemetry(nranks=2, capacity=None)
    w = random_weight_matrix(48, seed=1)
    W = TiledMatrix.from_dense(w, 16, BlockCyclicDistribution.for_ranks(2))
    floyd_warshall_ttg(W, ParsecBackend(Cluster(HAWK, 2), telemetry=tel))
    return tel


def _lane_labels(svg):
    return svg.count('<text x="2"')


def test_gantt_svg_structure(traced):
    svg = gantt_svg(traced)
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    assert svg.count("<rect") >= len(traced.bus.spans("task"))
    assert "FW_D" in svg  # legend entry
    assert "r0 w0" in svg and "r1 w0" in svg


def test_gantt_rect_count_capped(traced):
    assert _lane_labels(gantt_svg(traced)) > 1
    capped = gantt_svg(traced, max_lanes=1)
    assert _lane_labels(capped) == 1
    assert capped.count("<rect") < gantt_svg(traced).count("<rect")


def test_gantt_empty_trace():
    svg = gantt_svg(EventBus(capacity=None))
    assert "no spans recorded" in svg


def test_gantt_escapes_keys():
    bus = EventBus(capacity=None)
    bus.complete("<evil>", 0, 0, 0.0, 1.0, cat="task",
                 args={"key": "<key&>", "template": "<evil>"})
    svg = gantt_svg(bus)
    assert "<evil>" not in svg
    assert "&lt;evil&gt;" in svg
    assert "&lt;key&amp;&gt;" in svg


def test_cli_table1(capsys):
    assert bench_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "hawk" in out and "seawulf" in out


def test_cli_figure_with_max_nodes(capsys):
    assert bench_main(["fig13b", "--max-nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 13b" in out
    assert "ttg-parsec" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        bench_main(["fig99"])
