"""Per-layer host-time tracer that wraps ``repro`` from the outside.

Nothing in ``src/`` knows about this module.  :class:`Patcher` replaces a
function at every place it is bound -- the class attribute of a method,
or every module global (and plain-dict value) across the loaded
``repro.*`` modules that holds a module-level function, so names bound
by ``from ... import`` are wrapped too.  :class:`Tracer` uses it to wrap
the public functions of each layer with a timing wrapper.

A wrapper keeps three numbers per key: calls, self time, and (for tile
kernels) the flops of its calls.  Self time is the wrapper's inclusive
time minus the inclusive time of the wrapped calls nested inside it, so
the keys partition the traced wall time (the rest is code no wrapper
covers).  Totals stay in memory; the runner takes a
:meth:`Tracer.snapshot` at each phase boundary and subtracts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.linalg.kernels as K

#: key -> (calls, self seconds, flops)
Totals = Dict[str, Tuple[int, float, float]]


class Patcher:
    """Replaces callables at all their bindings and restores them."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def method(self, cls: type, name: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``cls.<name>`` (defined on ``cls`` itself) by
        ``make(original)``; class- and static-methods keep their kind."""
        orig = cls.__dict__[name]
        if isinstance(orig, (classmethod, staticmethod)):
            new: Any = type(orig)(make(orig.__func__))
        else:
            new = make(orig)
        setattr(cls, name, new)
        self._undo.append(lambda: setattr(cls, name, orig))

    def function(self, module: str, name: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace the function ``module.<name>`` at every binding.

        Every ``repro.*`` module global that *is* the function is
        rebound, and so is every plain-dict value that is (registries
        such as ``repro.bench.history.MEASUREMENTS`` hold references).
        """
        target = getattr(importlib.import_module(module), name)
        new = make(target)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is target:
                    setattr(mod, attr, new)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, target))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is target:
                            value[k] = new
                            self._undo.append(
                                functools.partial(value.__setitem__, k, target))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# What is wrapped, by layer.  Keys are metric prefixes; the layer of a key
# is found by LAYER_OF_PREFIX.  Methods are named "module:Class.method",
# module functions "module:function".

_G = "repro.core.graph:Executable."
_B = "repro.runtime.base:Backend."
_T = "repro.runtime.termination:TerminationDetector."
_S = "repro.runtime.scheduler:"
_E = "repro.sim.engine:Engine."
_BUS = "repro.telemetry.events:EventBus."
_MET = "repro.telemetry.metrics:"
_AN = "repro.telemetry.analyze:"
_HIS = "repro.bench.history:"
_MW = "repro.apps.mra.multiwavelet:Multiwavelet."
_K = "repro.linalg.kernels:"

WRAPPED: Dict[str, List[str]] = {
    "graph.send_from": [_G + "send_from"],
    "graph.broadcast_from": [_G + "broadcast_from"],
    "graph.argstream": [_G + n for n in (
        "set_argstream_size", "finalize_argstream",
        "set_stream_size_via", "finalize_stream_via")],
    "graph.executable": [_G + "__init__"],
    "messaging.outputs": ["repro.core.messaging:TaskOutputs." + n for n in (
        "send", "broadcast", "broadcast_multi", "set_size", "finalize")],
    "runtime.submit": [_B + "submit"],
    "runtime.send_value": [_B + "send_value"],
    "runtime.send_control": [_B + "send_control"],
    "runtime.post_local": [_B + "post_local", _B + "post_local_batch"],
    "runtime.copy": [_B + "maybe_copy_local"],
    "termination": [_T + n for n in (
        "message_sent", "message_delivered", "task_created", "task_retired")],
    "scheduler.push": [_S + c + ".push" for c in (
        "PriorityQueue", "LifoQueue", "FifoQueue")],
    "scheduler.pop": [_S + c + ".pop" for c in (
        "PriorityQueue", "LifoQueue", "FifoQueue")],
    "engine.schedule": [_E + n for n in (
        "schedule", "schedule_at", "schedule_batch")],
    "engine.run": [_E + "run"],
    "serialization.serialize": [],     # every Protocol subclass, see below
    "serialization.deserialize": [],
    "comm.send_am": ["repro.comm.endpoint:CommEngine.send_am"],
    "comm.rma_get": ["repro.comm.endpoint:CommEngine.rma_get"],
    "network.send": ["repro.sim.network:NetworkModel.send"],
    "telemetry.bus": [_BUS + n for n in (
        "begin", "end", "complete", "instant", "counter", "new_flow")]
    + ["repro.telemetry.events:Telemetry.data_token"],
    # Registry lookups, instrument updates, and the queue-wait sampling
    # wrapper that only exists when telemetry is attached.
    "telemetry.metrics": [_MET + "MetricsRegistry." + n for n in (
        "counter", "gauge", "histogram", "get")]
    + [_MET + "Counter.inc", _MET + "Gauge.set", _MET + "Histogram.observe"]
    + [_S + "InstrumentedQueue.push", _S + "InstrumentedQueue.pop"],
    "telemetry.events": [_BUS + n for n in (
        "events", "spans", "instants", "counters")],
    "telemetry.analyze": [_AN + n for n in (
        "task_nodes", "dep_edges", "program_order_edges", "critical_path",
        "summary_by_template", "idle_breakdown", "report")],
    "whatif.replay": ["repro.telemetry.whatif:replay_record"],
    "whatif.sweep": ["repro.telemetry.whatif:sensitivity"],
    "history.measure": [_HIS + n for n in (
        "measure_potrf", "measure_fw", "measure_bspmm", "measure_mra",
        "git_sha")],
    "setup.inputs": [
        "repro.linalg.generators:spd_matrix",
        "repro.linalg.generators:yukawa_blocksparse",
        "repro.linalg.tiled_matrix:TiledMatrix.from_dense",
        "repro.apps.mra.driver:random_gaussians",
    ],
    "driver.bspmm": ["repro.apps.bspmm.driver:bspmm_ttg"],
    "driver.cholesky": ["repro.apps.cholesky.driver:cholesky_ttg"],
    "driver.mra": ["repro.apps.mra.driver:mra_ttg"],
}


#: Tile kernels (bound by ``from repro.linalg.kernels import`` in the app
#: graphs) with their flops per call: the repository's flop formulas on
#: the same tile shapes the task cost models use.
KERNELS: Dict[str, Callable[..., float]] = {
    _K + "potrf": lambda akk: K.potrf_flops(akk.rows),
    _K + "trsm": lambda lkk, amk: (
        K.trsm_flops(amk.cols) * amk.rows / max(amk.cols, 1)),
    _K + "syrk": lambda amk, amm: (
        K.syrk_flops(amm.rows) * amk.cols / max(amm.rows, 1)),
    _K + "gemm": lambda amk, ank, amn: K.gemm_flops(amn.rows, amn.cols,
                                                    amk.cols),
    _K + "gemm_accumulate": lambda a, b, c: K.gemm_flops(c.rows, c.cols,
                                                         a.cols),
    # MRA multiwavelet operators (Multiwavelet.project_flops/filter_flops).
    _MW + "project_box": lambda mw, f, box: (
        (mw.project_flops() - mw.filter_flops()) / 2 ** mw.d),
    _MW + "filter": lambda mw, kids: mw.filter_flops(),
    _MW + "unfilter": lambda mw, sd: mw.filter_flops(),
    _MW + "wavelet_norm2": lambda mw, sd: 0.0,
    _MW + "set_scaling_corner": lambda mw, sd, s: 0.0,
}

#: Key prefix -> the ``src/repro`` layer it belongs to.
LAYER_OF_PREFIX: List[Tuple[str, str]] = [
    ("graph.", "core.graph"),
    ("messaging.", "core.messaging"),
    ("runtime.", "runtime.base"),
    ("termination", "runtime.termination"),
    ("scheduler.", "runtime.scheduler"),
    ("engine.", "sim.engine"),
    ("serialization.", "serialization"),
    ("comm.", "comm"),
    ("network.", "sim.network"),
    ("body.", "apps (task bodies)"),
    ("kernel.", "linalg.kernels + mra.multiwavelet"),
    ("telemetry.", "telemetry"),
    ("whatif.", "telemetry.whatif"),
    ("history.", "bench.history"),
    ("setup.", "input generators"),
    ("driver.", "app drivers"),
]


def layer_of(key: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if key.startswith(prefix):
            return layer
    raise KeyError(key)


def _resolve(spec: str) -> Tuple[str, Optional[str], str]:
    module, _, path = spec.partition(":")
    cls, _, name = path.rpartition(".")
    return module, cls or None, name


class Tracer:
    """Self-time accounting over the wrapped functions.

    ``install`` wraps every entry of :data:`WRAPPED` and :data:`KERNELS`,
    and every template-task body of each graph built while installed
    (key ``body.<TEMPLATE>``, through the graph-construction observer of
    :mod:`repro.core.graph`).  ``restore`` undoes all of it.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, List[float]] = {}
        self._stack: List[float] = [0.0]
        self._patcher = Patcher()
        self._observer: Optional[Callable[[str, Any], None]] = None

    def _wrap(self, fn: Callable[..., Any], key: str,
              flops: Optional[Callable[..., float]] = None) -> Callable[..., Any]:
        rec = self._totals.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt - stack.pop()
                stack[-1] += dt
                if flops is not None:
                    rec[2] += flops(*args)

        return traced

    def install(self) -> None:
        from repro.core import graph
        from repro.serialization.protocols import Protocol

        def wrap_spec(spec: str, key: str,
                      flops: Optional[Callable[..., float]] = None) -> None:
            module, cls, name = _resolve(spec)

            def make(f: Callable[..., Any]) -> Callable[..., Any]:
                return self._wrap(f, key, flops)

            if cls is None:
                self._patcher.function(module, name, make)
            else:
                owner = getattr(importlib.import_module(module), cls)
                self._patcher.method(owner, name, make)

        for key, specs in WRAPPED.items():
            self._totals.setdefault(key, [0, 0.0, 0.0])
            for spec in specs:
                wrap_spec(spec, key)
        todo = list(Protocol.__subclasses__())
        while todo:
            proto = todo.pop()
            todo.extend(proto.__subclasses__())
            for name in ("serialize", "deserialize"):
                if name in proto.__dict__:
                    self._patcher.method(
                        proto, name,
                        lambda f, k="serialization." + name: self._wrap(f, k))
        for spec, flops in KERNELS.items():
            wrap_spec(spec, "kernel." + _resolve(spec)[2], flops)

        def on_construct(kind: str, obj: Any) -> None:
            if kind == "graph":
                for tt in obj.tts:
                    tt.fn = self._wrap(tt.fn, "body." + tt.name)

        self._observer = on_construct
        graph.add_construction_observer(on_construct)

    def restore(self) -> None:
        from repro.core import graph

        if self._observer is not None:
            graph.remove_construction_observer(self._observer)
            self._observer = None
        self._patcher.restore()

    def snapshot(self) -> Totals:
        return {k: (int(v[0]), v[1], v[2]) for k, v in self._totals.items()}


def delta(end: Totals, start: Totals) -> Totals:
    """Per-key totals accumulated between two snapshots."""
    zero = (0, 0.0, 0.0)
    return {key: tuple(a - b for a, b in zip(v, start.get(key, zero)))
            for key, v in end.items()}  # type: ignore[misc]
