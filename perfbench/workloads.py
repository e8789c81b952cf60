"""The benchmark's workloads: inputs from a seed, one iteration, checks.

Every workload runs on the ``seq`` engine, Hawk nodes with 4 workers,
as a closed loop with one client: one iteration builds its inputs
(set-up), calls the application driver (the timed phase), and is then
checked outside the timed phase.  Why each workload exists is recorded
in ``NOTES.md`` next to this file.

The application drivers are wrapped at every binding by :class:`Calls`,
which records each driver call (arguments, backend, result) so the
checks and the tracer can see runs made deep inside ``repro.bench`` and
``repro.telemetry.whatif``.  Functions of ``repro`` are called through
their module attributes here, so the wrappers installed by the tracer
see those calls too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import scipy
import scipy.linalg.blas

import repro.apps.bspmm as bspmm
import repro.apps.cholesky as cholesky
import repro.bench.history as history
import repro.linalg as linalg
import repro.runtime as runtime
import repro.sim.cluster as cluster
import repro.telemetry.whatif as whatif

from tracer import Patcher

REFERENCES = Path(__file__).with_name("references.json")

#: Drivers recorded by :class:`Calls` (module, function).
DRIVERS = [
    ("repro.apps.bspmm.driver", "bspmm_ttg"),
    ("repro.apps.cholesky.driver", "cholesky_ttg"),
    ("repro.apps.mra.driver", "mra_ttg"),
]

#: Tiles per side of every full-size bspmm input.  At 30 atoms the Yukawa
#: tiling has 22 to 26 tiles depending on the seed, and the task count
#: grows with its cube (21k to 32k tasks), so a run seed is mapped to the
#: first derived seed whose tiling has this many: every seed then
#: measures the same DAG size (26,344 tasks) with its own atom
#: positions, block sizes and values.
BSPMM_TILES = 24
#: Matrix dimensions a full-size bspmm input may have.  With 24 tiles it
#: ranges from about 370 to 450, and the peak RSS follows it, so the
#: derived seed must also fall in this band.
BSPMM_DIMS = range(420, 440)

#: Relative tolerance of an MRA function norm against the analytic norm.
MRA_NORM_RTOL = 1.0e-2
#: ||L L^T - A|| / ||A|| bound of the Cholesky factor (Frobenius norms).
POTRF_RESIDUAL = 1.0e-10


@dataclass
class DriverCall:
    phase: str
    args: tuple
    backend: Any
    result: Any


class SetupDone(Exception):
    """Raised at driver entry to end a set-up-only pass."""


class Calls:
    """Records the driver calls of one iteration and its phase times."""

    def __init__(self) -> None:
        self._patcher = Patcher()
        #: Raise :class:`SetupDone` instead of entering the driver.
        self.setup_only = False
        self.records: List[DriverCall] = []
        #: Inputs a workload keeps for its checks (e.g. the dense matrix).
        self.inputs: Dict[str, Any] = {}
        self.start_at_driver = False
        self.t_begin = self.t_timed = self.t_end = 0.0
        #: Called at the timed-phase boundaries (the tracer snapshots).
        self.on_phase: Callable[[], None] = lambda: None

    def install(self) -> None:
        for module, name in DRIVERS:
            self._patcher.function(module, name, self._record)

    def restore(self) -> None:
        self._patcher.restore()

    def _record(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def driver(*args: Any, **kwargs: Any) -> Any:
            if self.start_at_driver and not self.t_timed:
                self.start_timed()
            if self.setup_only:
                raise SetupDone
            backend = next(a for a in args
                           if isinstance(a, runtime.base.Backend))
            result = fn(*args, **kwargs)
            phase = "timed" if self.t_timed and not self.t_end else "setup"
            self.records.append(DriverCall(phase, args, backend, result))
            return result

        return driver

    def clear(self) -> None:
        """Drop the last iteration's inputs and results."""
        self.records = []
        self.inputs = {}

    def begin(self) -> None:
        self.clear()
        self.start_at_driver = False
        self.t_timed = self.t_end = 0.0
        self.on_phase()
        self.t_begin = time.perf_counter()

    def start_timed(self) -> None:
        self.t_timed = time.perf_counter()
        self.on_phase()

    def end_timed(self) -> None:
        self.t_end = time.perf_counter()
        self.on_phase()

    def timed(self) -> List[DriverCall]:
        return [r for r in self.records if r.phase == "timed"]


def _cluster(nodes: int) -> Any:
    return cluster.Cluster.with_engine(cluster.HAWK.with_workers(4), nodes,
                                       engine="seq")


# ---------------------------------------------------------------- workloads


def bspmm_input_seed(seed: int) -> int:
    def fits(s: int) -> bool:
        tiling = linalg.yukawa_blocksparse(30, target_tile=24, seed=s,
                                           synthetic=True).row_tiling
        return tiling.nblocks == BSPMM_TILES and tiling.n in BSPMM_DIMS

    return next(s for s in itertools.count(seed * 1000) if fits(s))


def run_bspmm16(seed: int, calls: Calls, small: bool) -> None:
    natoms, nodes = (8, 4) if small else (30, 16)
    a = linalg.yukawa_blocksparse(natoms, target_tile=24, seed=seed)
    backend = runtime.ParsecBackend(_cluster(nodes))
    calls.start_timed()
    bspmm.bspmm_ttg(a, a, backend)
    calls.end_timed()


def run_bspmm16_tel(seed: int, calls: Calls, small: bool) -> None:
    # The watchdog cell builds its own inputs, so the timed phase starts
    # when it enters the driver and ends after its record analysis.
    calls.start_at_driver = True
    if small:
        history.measure_bspmm(seed, nodes=4, natoms=8)
    else:
        history.measure_bspmm(seed, nodes=16)
    calls.end_timed()


def run_potrf_real(seed: int, calls: Calls, small: bool) -> None:
    n = 512 if small else 3072
    dense = calls.inputs["dense"] = linalg.spd_matrix(n, seed)
    a = linalg.TiledMatrix.from_dense(
        dense, 128, history.SeededBlockCyclic.for_ranks(4, seed))
    backend = runtime.ParsecBackend(_cluster(4))
    calls.start_timed()
    cholesky.cholesky_ttg(a, backend)
    calls.end_timed()


def run_whatif_mra(seed: int, calls: Calls, small: bool) -> None:
    record = history.measure_mra(seed, nfuncs=2 if small else 8)
    calls.start_timed()
    whatif.sensitivity(record)
    calls.end_timed()


def check_bspmm(calls: Calls) -> List[str]:
    errors = []
    for r in calls.records:
        a = r.args[0].to_dense()
        b = r.args[1].to_dense()
        if not np.allclose(r.result.C.to_dense(), a @ b):
            errors.append("bspmm: C differs from dense A @ B")
    return errors


def check_potrf(calls: Calls) -> List[str]:
    errors = []
    a = calls.inputs["dense"]
    for r in calls.records:
        low = np.tril(r.result.L.to_dense())
        # Lower triangle of L L^T - A (symmetric): the strict part counts
        # twice in the Frobenius norm.
        diff = np.tril(scipy.linalg.blas.dsyrk(1.0, low, lower=1) - a)
        sq = 2.0 * np.sum(diff * diff) - np.sum(np.diag(diff) ** 2)
        rel = np.sqrt(sq) / np.linalg.norm(a)
        if not rel <= POTRF_RESIDUAL:
            errors.append(f"potrf: ||LL^T - A|| / ||A|| = {rel:.3e} "
                          f"> {POTRF_RESIDUAL:g}")
    return errors


def check_mra(calls: Calls) -> List[str]:
    errors = []
    for r in calls.records:
        for fid, f in enumerate(r.args[0]):
            exact = f.norm2_analytic()
            got = r.result.norms.get(fid, float("nan"))
            rel = abs(got - exact) / exact
            if not rel <= MRA_NORM_RTOL:
                errors.append(f"mra: function {fid} norm^2 {got:.6e} vs "
                              f"analytic {exact:.6e} (rel {rel:.2e} > "
                              f"{MRA_NORM_RTOL:g})")
    return errors


@dataclass
class Workload:
    name: str
    why: str
    run: Callable[[int, Calls, bool], None]
    check: Callable[[Calls], List[str]]
    #: Run seed -> the seed the full-size inputs are generated from.
    input_seed: Callable[[int], int] = lambda seed: seed
    #: Workload whose stored virtual outputs this one must reproduce.
    reference: str = ""
    telemetry: bool = False
    #: Set-up-only passes after each iteration: more ``setup_s`` samples
    #: where the set-up is short next to the iteration.
    setup_passes: int = 0
    #: Layer-share predictions the traced run reports on (not gated):
    #: (description, layers, predicate on their summed share).
    design: List[tuple] = field(default_factory=list)


_DISPATCH = ("core.graph", "core.messaging", "runtime.base",
             "runtime.scheduler", "runtime.termination", "sim.engine")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "bspmm16",
        "block-sparse SUMMA on 16 ranks, bare: per-event messaging, "
        "dispatch, event-loop and termination cost",
        run_bspmm16, check_bspmm, bspmm_input_seed, setup_passes=4,
        design=[("dispatch layers >= 50%", _DISPATCH, lambda s: s >= 0.5),
                ("telemetry == 0", ("telemetry",), lambda s: s == 0.0)]),
    Workload(
        "bspmm16-tel",
        "the bspmm watchdog cell with full telemetry and record analysis; "
        "bspmm16 is its control",
        run_bspmm16_tel, check_bspmm, bspmm_input_seed, reference="bspmm16",
        telemetry=True, setup_passes=4,
        design=[("telemetry > 0", ("telemetry",), lambda s: s > 0.0)]),
    Workload(
        "potrf-real",
        "real-data tiled Cholesky on 4 ranks: NumPy/SciPy kernels and "
        "splitmd + RMA transfers",
        run_potrf_real, check_potrf,
        design=[("kernels >= 50%", ("linalg.kernels + mra.multiwavelet",),
                 lambda s: s >= 0.5)]),
    Workload(
        "whatif-mra",
        "what-if sensitivity sweep over the MRA watchdog record: streaming "
        "reducers, generic serialization, replay",
        run_whatif_mra, check_mra, telemetry=True),
]}

#: The workloads BENCHMARK.json gates on.  whatif-mra is left out: its
#: MRA norm check fails on every seed (see NOTES.md).
GATED = ("bspmm16", "bspmm16-tel", "potrf-real")


# ---------------------------------------------------------------- outputs


def virtual(r: DriverCall) -> Dict[str, Any]:
    """The simulated (virtual-time) outputs of one driver call."""
    stats = r.result.stats
    return {
        "makespan": r.result.makespan,
        "tasks_by_template": dict(sorted(stats["tasks_by_template"].items())),
        "bytes_by_protocol": dict(sorted(stats["bytes_by_protocol"].items())),
    }


def load_references() -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    with REFERENCES.open() as fh:
        return json.load(fh)


@dataclass
class Iteration:
    setup_s: float
    timed_s: float
    tasks: int
    virtual: List[Dict[str, Any]]
    errors: List[str]
    records: List[DriverCall]


def iterate(wl: Workload, seed: int, calls: Calls, small: bool = False,
            expect: Optional[List[Dict[str, Any]]] = None) -> Iteration:
    """One closed-loop iteration: set-up, timed driver call, checks.

    ``expect`` is the reference list of virtual outputs, compared bit
    for bit after the output checks.
    """
    calls.begin()
    wl.run(seed, calls, small)
    records = list(calls.records)
    timed = calls.timed()
    outputs = [virtual(r) for r in records]
    errors = wl.check(calls)
    if expect is not None and outputs != expect:
        errors.append(f"{wl.name}: virtual outputs of input seed {seed} "
                      "differ from the reference")
    return Iteration(
        setup_s=calls.t_timed - calls.t_begin,
        timed_s=calls.t_end - calls.t_timed,
        tasks=sum(int(r.result.stats["tasks_executed"]) for r in timed),
        virtual=outputs,
        errors=errors,
        records=records,
    )


def setup_only(wl: Workload, seed: int, calls: Calls,
               small: bool = False) -> float:
    """Seconds of one set-up-only pass: the workload runs as in
    :func:`iterate` until it would enter its driver."""
    calls.begin()
    calls.setup_only = True
    try:
        wl.run(seed, calls, small)
    except SetupDone:
        return calls.t_timed - calls.t_begin
    finally:
        calls.setup_only = False
    raise RuntimeError(f"{wl.name}: the driver was not entered")


# ------------------------------------------------------------ environment


def src_digest(src: Path) -> str:
    """SHA-256 over the package sources (identifies the code measured
    where there is no git metadata)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path, wl: Workload) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": history.git_sha() or None,
        "src_sha256": src_digest(root / "src" / "repro"),
        "engine": "seq",
        "telemetry": wl.telemetry,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }
