"""The attach-everything recorder used by the telemetry CLI and bench harness.

:func:`capture` is a context manager that hooks graph construction and
gives every backend bound inside the ``with`` block its own
:class:`~repro.telemetry.events.Telemetry`; each capture comes back as a
:class:`RecordedRun`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro.telemetry.events import Telemetry


@dataclass
class RecordedRun:
    """One backend captured by :func:`capture`."""

    telemetry: Telemetry
    backend: Any
    graphs: List[str]

    @property
    def label(self) -> str:
        name = getattr(self.backend, "name", "backend")
        graphs = ",".join(self.graphs) or "?"
        return f"{graphs}@{name}(nranks={self.backend.nranks})"


@contextmanager
def capture(events: bool = True, capacity: Optional[int] = 65536) -> Iterator[List[RecordedRun]]:
    """Attach a fresh Telemetry to every backend bound inside the block.

    Observes :class:`~repro.core.graph.Executable` construction (the same
    hook the analysis CLI uses), so scripts need no cooperation; one
    :class:`RecordedRun` is appended per distinct backend, in binding
    order.  ``events=False`` records metrics only (bench mode).
    """
    from repro.core.graph import (
        add_construction_observer,
        remove_construction_observer,
    )

    runs: List[RecordedRun] = []
    by_backend: dict = {}

    def observer(kind: str, obj: Any) -> None:
        if kind != "executable":
            return
        backend = obj.backend
        run = by_backend.get(id(backend))
        if run is None:
            tel = Telemetry(nranks=backend.nranks, capacity=capacity,
                            events=events)
            backend.attach_telemetry(tel)
            run = RecordedRun(tel, backend, [])
            by_backend[id(backend)] = run
            runs.append(run)
        run.graphs.append(obj.graph.name)

    add_construction_observer(observer)
    try:
        yield runs
    finally:
        remove_construction_observer(observer)
