"""The traced run: per-layer metrics, layer shares and the self-check.

One bare iteration is timed first; then the tracer is installed and the
same iteration runs again.  Per-layer metrics come from the traced
iteration's timed phase (``setup.inputs_s`` from its set-up phase).  The
self-check compares the wrapper counts with the simulator's own counters
over the whole traced iteration, so a call that reached a layer through
a reference the tracer did not rebind fails the run loudly.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Tuple

import tracer as T
import workloads as W

#: Template names of the gated workloads' graphs (bspmm, cholesky).
TEMPLATES = (
    "READ_GATE", "READ_SP_A", "READ_SP_B", "BCAST_A", "BCAST_B",
    "LSTORE_A", "LSTORE_B", "LBCAST_A", "LBCAST_B", "COORDINATOR",
    "C_INIT", "MULTIPLY_ADD", "WRITE_C",
    "INITIATOR", "POTRF", "TRSM", "SYRK", "GEMM", "RESULT",
)
KERNELS = ("potrf", "trsm", "syrk", "gemm", "gemm_accumulate")

#: Template -> the tile kernel its body calls exactly once.
KERNEL_OF_TEMPLATE = {"POTRF": "potrf", "TRSM": "trsm", "SYRK": "syrk",
                      "GEMM": "gemm", "MULTIPLY_ADD": "gemm_accumulate"}


def _calls_self(key: str) -> List[Tuple[str, str]]:
    return [(key + ".calls", "count"), (key + ".self_s", "s")]


#: Every per-layer metric of the gated workloads, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = (
    _calls_self("graph.send_from") + _calls_self("graph.broadcast_from")
    + _calls_self("graph.argstream") + [("graph.executable.self_s", "s")]
    + _calls_self("messaging.outputs")
    + [m for k in ("submit", "send_value", "send_control", "post_local",
                   "copy") for m in _calls_self("runtime." + k)]
    + _calls_self("termination")
    + [("scheduler.push.calls", "count"), ("scheduler.pop.calls", "count"),
       ("scheduler.self_s", "s")]
    + [("engine.events", "count")] + _calls_self("engine.schedule")
    + [("engine.run.self_s", "s"), ("engine.us_per_event", "us")]
    + _calls_self("serialization.serialize")
    + _calls_self("serialization.deserialize")
    + _calls_self("comm.send_am") + _calls_self("comm.rma_get")
    + _calls_self("network.send")
    + [("bytes." + p, "B") for p in ("splitmd", "generic", "control")]
    + [m for t in TEMPLATES for m in _calls_self("body." + t)]
    + [m for k in KERNELS for m in _calls_self("kernel." + k)]
    + [("kernel.flops", "flop"), ("kernel.host_gflops", "Gflop/s")]
    + _calls_self("telemetry.bus") + _calls_self("telemetry.metrics")
    + _calls_self("telemetry.events")
    + [("telemetry.analyze.self_s", "s"),
       ("telemetry.events_recorded", "count"),
       ("history.measure.self_s", "s"),
       ("setup.inputs_s", "s"),
       ("driver.self_s", "s"),
       ("trace.overhead_x", "x")]
)


def _backends(records: List[W.DriverCall]) -> List[Any]:
    seen: Dict[int, Any] = {}
    for r in records:
        seen.setdefault(id(r.backend), r.backend)
    return list(seen.values())


def _events(records: List[W.DriverCall]) -> int:
    return sum(b.engine.events_processed for b in _backends(records))


def _tasks_by_template(records: List[W.DriverCall]) -> Counter:
    tasks: Counter = Counter()
    for r in records:
        tasks.update(r.result.stats["tasks_by_template"])
    return tasks


def self_check(whole: T.Totals, traced: W.Iteration,
               bare: W.Iteration) -> List[str]:
    """Wrapper counts against the simulator's own counters."""
    def calls(key: str) -> int:
        return whole.get(key, (0, 0.0, 0.0))[0]

    errors = []

    def expect(what: str, got: Any, want: Any) -> None:
        if got != want:
            errors.append(f"self-check: {what}: traced {got!r} != {want!r}")

    tasks = _tasks_by_template(traced.records)
    bodies = {k[len("body."):]: v[0] for k, v in whole.items()
              if k.startswith("body.") and v[0]}
    expect("body calls by template", bodies, dict(tasks))
    for template, kernel in KERNEL_OF_TEMPLATE.items():
        if tasks[template]:
            expect(f"kernel.{kernel} calls", calls("kernel." + kernel),
                   tasks[template])
    expect("engine events", _events(traced.records), _events(bare.records))
    expect("virtual outputs", traced.virtual, bare.virtual)
    backends = _backends(traced.records)
    expect("runtime.submit calls", calls("runtime.submit"),
           sum(b.stats.tasks_executed for b in backends))
    expect("termination calls", calls("termination"), sum(
        t.messages_sent + t.messages_delivered + t.tasks_created
        + t.tasks_retired for t in (b.termination for b in backends)))
    am = sum(b.comm.am_count for b in backends)
    expect("comm.send_am calls", calls("comm.send_am"), am)
    expect("network.send calls", calls("network.send"),
           sum(b.comm.network.messages_sent for b in backends))
    expect("comm.rma_get calls", calls("comm.rma_get"),
           sum(b.comm.rma_count for b in backends))
    expect("serialization.serialize calls",
           calls("serialization.serialize"), calls("runtime.send_value"))
    return errors


#: Keys reported as both ``<key>.calls`` and ``<key>.self_s``.
_CALLS_SELF = (
    "graph.send_from", "graph.broadcast_from", "graph.argstream",
    "messaging.outputs", "runtime.submit", "runtime.send_value",
    "runtime.send_control", "runtime.post_local", "runtime.copy",
    "termination", "engine.schedule", "serialization.serialize",
    "serialization.deserialize", "comm.send_am", "comm.rma_get",
    "network.send", "telemetry.bus", "telemetry.metrics", "telemetry.events",
)


def layer_metrics(timed: T.Totals, setup: T.Totals, traced: W.Iteration,
                  bare: W.Iteration) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` (0 where a layer did not run),
    plus the templates, kernels and what-if counts of workloads outside
    it."""
    def field(i: int, keys: Tuple[str, ...]) -> Any:
        return sum(timed[k][i] for k in keys if k in timed)

    def calls(*keys: str) -> int:
        return field(0, keys)

    def secs(*keys: str) -> float:
        return field(1, keys)

    def prefixed(prefix: str) -> List[str]:
        return [k for k in timed if k.startswith(prefix)]

    out: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for key in _CALLS_SELF + tuple(
            k for k in prefixed("body.") + prefixed("kernel.")
            if calls(k)):
        out[key + ".calls"] = calls(key)
        out[key + ".self_s"] = secs(key)
    timed_records = [r for r in traced.records if r.phase == "timed"]
    bare_timed = [r for r in bare.records if r.phase == "timed"]
    kernel_s = secs(*prefixed("kernel."))
    flops = field(2, tuple(prefixed("kernel.")))
    out.update({
        "graph.executable.self_s": secs("graph.executable"),
        "scheduler.push.calls": calls("scheduler.push"),
        "scheduler.pop.calls": calls("scheduler.pop"),
        "scheduler.self_s": secs("scheduler.push", "scheduler.pop"),
        "engine.events": _events(timed_records),
        "engine.run.self_s": secs("engine.run"),
        "engine.us_per_event": 1e6 * bare.timed_s / _events(bare_timed),
        "kernel.flops": flops,
        "kernel.host_gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "telemetry.analyze.self_s": secs("telemetry.analyze"),
        "telemetry.events_recorded": sum(
            len(b.telemetry.bus) for b in _backends(timed_records)
            if b.telemetry is not None),
        "history.measure.self_s": secs("history.measure"),
        "setup.inputs_s": setup.get("setup.inputs", (0, 0.0))[1],
        "driver.self_s": secs(*prefixed("driver.")),
        "trace.overhead_x": traced.timed_s / bare.timed_s,
    })
    for r in timed_records:
        for proto, nbytes in r.result.stats["bytes_by_protocol"].items():
            out["bytes." + proto] = out.get("bytes." + proto, 0) + nbytes
    if calls("whatif.replay"):
        out["whatif.probes"] = calls("whatif.replay")
        out["whatif.replay.self_s"] = secs("whatif.replay", "whatif.sweep")
    return out


def layer_shares(timed: T.Totals, wall: float) -> Dict[str, float]:
    """Share of the timed phase's wall time spent in each layer's self
    time; ``(not wrapped)`` is the rest."""
    shares: Dict[str, float] = {}
    for key, (_, secs, _) in timed.items():
        layer = T.layer_of(key)
        shares[layer] = shares.get(layer, 0.0) + secs / wall
    shares["(not wrapped)"] = 1.0 - sum(shares.values())
    return shares


def unit_of(name: str) -> str:
    units = dict(PER_LAYER)
    if name in units:
        return units[name]
    if name.startswith("bytes."):
        return "B"
    return "s" if name.endswith("self_s") else "count"
