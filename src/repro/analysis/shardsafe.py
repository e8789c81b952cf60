"""Static shard-safety pass: can this graph run on a shared-nothing engine?

The ROADMAP's top open item -- a true multiprocess engine where each rank
shard is a separate process -- imposes properties no wiring lint checks:
task bodies and event callables must be pure functions of their declared
inputs (the shape TaskTorrent demands of its runtime core), their
captured state must either pickle across a process boundary or be
reconstructible per rank, and every scheduling path must carry a rank so
events land on the right shard.  This pass inspects every callable a
:class:`~repro.core.graph.TaskGraph` owns (task bodies, keymaps, priority
maps, device maps, cost models, stream reducers) via
:func:`inspect.getclosurevars` plus bytecode analysis (:mod:`dis`) and
emits the ``SHD0xx`` rule family; :func:`scan_shard_paths` additionally
AST-scans runtime modules for scheduling calls that drop the ``rank=``
hint (SHD008).

The report is deliberately a *TODO list*: closure capture of application
matrices (SHD006) is idiomatic today and harmless on the in-process
engines, so it is warning severity -- but every such finding is a closure
the multiprocess refactor must cut.  Hard process-boundary violations
(unpicklable state, live runtime objects, nonlocal mutation) are errors.

Waivers compose exactly like the wiring linter's: template-level
``tt.lint_waive("SHD006", expires="2027-01-01")``, file-level
``# ttg-lint: disable=SHD006`` through the CLI, and call-level
``shardsafe_graph(g, ignore=("SHD006",))``.
"""

from __future__ import annotations

import ast
import dis
import inspect
import io
import pickle
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.lint import LintContext
from repro.analysis.rules import Finding

#: Payloads above this size are assumed to be data (picklable by
#: construction: ndarray/tile buffers) and never probed byte-for-byte.
_PICKLE_PROBE_LIMIT = 1 << 20

#: Type names that identify live runtime state (SHD002) without importing
#: every subsystem: matched against the captured value's MRO.
_RUNTIME_TYPE_NAMES = frozenset({
    "Backend", "ParsecBackend", "MadnessBackend",
    "Executable", "Cluster", "Engine", "ShardedEngine",
    "CommEngine", "RmaWindow", "EventBus", "Telemetry", "MetricsRegistry",
    "World", "Sanitizer", "TerminationDetector", "WorkerPool",
})

#: Scheduling entry points that must carry a rank hint (SHD008).
_RANKED_CALLS = frozenset({
    "schedule", "schedule_at", "schedule_batch",
    "post_local", "post_local_batch",
})

#: Line annotation acknowledging an intentionally unranked call.
_UNRANKED_OK = "# shard-safe: unranked-ok"


@dataclass(frozen=True)
class CallableSite:
    """One callable owned by a graph, with its provenance."""

    tt: Any                 # owning TemplateTask (waiver scope)
    role: str               # body | keymap | priomap | devicemap | cost | reducer
    fn: Any
    location: str           # "graph/TT.role"


def iter_graph_callables(graph: Any) -> Iterator[CallableSite]:
    """Every callable a graph owns, in deterministic template order."""
    for tt in graph.tts:
        yield CallableSite(tt, "body", tt.fn, f"{graph.name}/{tt.name}.body")
        for role, fn in (
            ("keymap", tt._keymap),
            ("priomap", tt._priomap),
            ("devicemap", tt._devicemap),
            ("cost", tt._cost),
        ):
            if fn is not None:
                yield CallableSite(tt, role, fn,
                                   f"{graph.name}/{tt.name}.{role}")
        for term in tt.inputs:
            if term.is_streaming and term.reducer is not None:
                yield CallableSite(
                    tt, "reducer", term.reducer,
                    f"{graph.name}/{tt.name}.{term.name}.reducer",
                )


# ------------------------------------------------------- capture analysis


def _unwrap(fn: Any) -> Tuple[Optional[Any], Optional[Any]]:
    """(plain function, bound self) behind a callable, else (None, None)."""
    self_obj = getattr(fn, "__self__", None)
    func = getattr(fn, "__func__", fn)
    if inspect.isfunction(func):
        return func, self_obj
    return None, self_obj


def _captures(fn: Any) -> List[Tuple[str, str, Any]]:
    """Captured state of ``fn``: (kind, name, value) triples.

    ``kind`` is ``nonlocal`` (closure cell), ``global`` (module attribute
    the code actually references) or ``default`` (argument default baked
    into the function object) -- the three channels through which state
    crosses into a pickled callable.
    """
    out: List[Tuple[str, str, Any]] = []
    try:
        cv = inspect.getclosurevars(fn)
    except TypeError:
        return out
    for name in sorted(cv.nonlocals):
        out.append(("nonlocal", name, cv.nonlocals[name]))
    for name in sorted(cv.globals):
        out.append(("global", name, cv.globals[name]))
    defaults = getattr(fn, "__defaults__", None) or ()
    for i, value in enumerate(defaults):
        out.append(("default", f"arg[{i}]", value))
    kwdefaults = getattr(fn, "__kwdefaults__", None) or {}
    for name in sorted(kwdefaults):
        out.append(("default", name, kwdefaults[name]))
    return out


def _is_runtime_state(value: Any) -> bool:
    for klass in type(value).__mro__:
        if klass.__name__ in _RUNTIME_TYPE_NAMES:
            return True
    return False


def _is_nested_callable(value: Any) -> bool:
    func = getattr(value, "__func__", value)
    if not inspect.isfunction(func):
        return False
    qualname = getattr(func, "__qualname__", "")
    return "<lambda>" in qualname or "<locals>" in qualname


def _is_mutable_data(value: Any) -> bool:
    """Tiles, ndarrays, matrix containers, and plain mutable containers."""
    if isinstance(value, type) or inspect.ismodule(value):
        return False  # classes and modules resolve by name per process
    if isinstance(value, (dict, list, set, bytearray)):
        return True
    if callable(getattr(value, "clone", None)) or callable(
        getattr(value, "tobytes", None)
    ):
        return not isinstance(value, (bytes, str))
    return any(
        callable(getattr(value, attr, None))
        for attr in ("tile_at", "set_tile", "block", "set_block")
    )


def _probe_pickle(value: Any) -> Optional[str]:
    """None when ``value`` pickles; otherwise a short reason string."""
    if int(getattr(value, "nbytes", 0) or 0) > _PICKLE_PROBE_LIMIT:
        return None  # large array-backed data: picklable by construction
    if inspect.isgenerator(value) or inspect.isframe(value):
        return "generators/frames never pickle"
    if isinstance(value, (io.IOBase, memoryview)):
        return f"{type(value).__name__} objects never pickle"
    try:
        pickle.dumps(value)
    except Exception as e:  # noqa: BLE001 -- any failure means unpicklable
        return f"{type(e).__name__}: {e}"
    return None


def _mutated_free_vars(fn: Any) -> List[str]:
    """Free variables ``fn`` (or a nested function inside it) assigns to.

    ``STORE_DEREF``/``DELETE_DEREF`` targeting ``co_freevars`` is a
    ``nonlocal`` write escaping the callable -- body-local cells
    (``co_cellvars``) are created fresh per call and stay safe.
    """
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    if code is None:
        return []
    free = set(code.co_freevars)
    hits: List[str] = []

    def scan(co: Any) -> None:
        for ins in dis.get_instructions(co):
            if ins.opname in ("STORE_DEREF", "DELETE_DEREF"):
                if ins.argval in free and ins.argval not in hits:
                    hits.append(ins.argval)
        for const in co.co_consts:
            if inspect.iscode(const):
                scan(const)

    scan(code)
    return hits


def _mutated_globals(fn: Any) -> List[str]:
    """Module globals ``fn`` (or a nested function) assigns or deletes."""
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    if code is None:
        return []
    hits: List[str] = []

    def scan(co: Any) -> None:
        for ins in dis.get_instructions(co):
            if ins.opname in ("STORE_GLOBAL", "DELETE_GLOBAL"):
                if ins.argval not in hits:
                    hits.append(ins.argval)
        for const in co.co_consts:
            if inspect.iscode(const):
                scan(const)

    scan(code)
    return hits


# ------------------------------------------------------------- the rules


def _describe(kind: str, name: str, value: Any) -> str:
    return f"{kind} {name!r} ({type(value).__name__})"


def analyze_callable(site: CallableSite, ctx: LintContext) -> Iterator[Finding]:
    """SHD findings for one callable site (waivers applied by caller)."""
    fn, bound_self = _unwrap(site.fn)
    is_map = site.role in ("keymap", "priomap", "devicemap", "cost")

    if bound_self is not None and _is_runtime_state(bound_self):
        yield ctx.finding(
            "SHD002", site.location,
            f"bound method of live runtime object "
            f"({type(bound_self).__name__}); per-process runtime state "
            "cannot be closed over",
        )
    if fn is None:
        return

    for kind, name, value in _captures(fn):
        if inspect.ismodule(value) or isinstance(value, type):
            # Modules and classes re-resolve by qualified name in a
            # child process; referencing them is always shard-safe.
            continue
        what = _describe(kind, name, value)
        if _is_runtime_state(value):
            yield ctx.finding(
                "SHD002", site.location,
                f"captures live runtime object: {what}",
            )
            continue
        if callable(value) and not isinstance(value, type):
            method_self = getattr(value, "__self__", None)
            if method_self is not None and _is_runtime_state(method_self):
                yield ctx.finding(
                    "SHD002", site.location,
                    f"captures bound method of live runtime object: {what} "
                    f"bound to {type(method_self).__name__}",
                )
            elif _is_nested_callable(value) and site.role == "body":
                yield ctx.finding(
                    "SHD003", site.location,
                    f"captures nested callable: {what} "
                    f"({getattr(getattr(value, '__func__', value), '__qualname__', '?')}) "
                    "-- lambdas and nested functions do not pickle",
                )
            continue
        if _is_mutable_data(value):
            rule = "SHD007" if is_map else "SHD006"
            yield ctx.finding(
                rule, site.location,
                f"captures mutable data: {what}; "
                + ("maps must be pure functions of the task ID"
                   if is_map else
                   "pass it through declared input terminals instead"),
            )
            continue
        reason = _probe_pickle(value)
        if reason is not None:
            yield ctx.finding(
                "SHD001", site.location,
                f"captures unpicklable state: {what} -- {reason}",
            )

    mutated = _mutated_free_vars(fn)
    if mutated:
        yield ctx.finding(
            "SHD004", site.location,
            f"assigns to closure free variable(s) {mutated}; nonlocal "
            "writes are lost across process boundaries",
        )
    for name in _mutated_globals(fn):
        yield ctx.finding(
            "SHD005", site.location,
            f"assigns to module global {name!r}; per-process module "
            "state diverges across ranks",
        )


def shardsafe_graph(
    graph: Any,
    nranks: Optional[int] = None,
    ignore: Iterable[str] = (),
    honor_waivers: bool = True,
) -> List[Finding]:
    """Run the static shard-safety pass over one graph.

    Same contract as :func:`repro.analysis.lint.lint_graph`: ``ignore``
    suppresses rules call-level, template waivers
    (``tt.lint_waive("SHD006")``, expiry-aware) are honored unless
    ``honor_waivers=False``.
    """
    ctx = LintContext(graph, nranks, honor_waivers=honor_waivers)
    ignored = set(ignore)
    out: List[Finding] = []
    for site in iter_graph_callables(graph):
        for f in analyze_callable(site, ctx):
            if f.rule.id in ignored or ctx.waived(site.tt, f.rule.id):
                continue
            out.append(f)
    return out


# ----------------------------------------------- SHD008: module path scan


def scan_shard_paths(
    sources: Sequence[Tuple[str, str]],
    ignore: Iterable[str] = (),
) -> List[Finding]:
    """SHD008 scan over ``(label, source)`` module texts.

    Flags calls to scheduling entry points (:data:`_RANKED_CALLS`) that
    pass no ``rank=`` keyword -- on a sharded engine those events land on
    shard 0 regardless of where they logically belong.  A trailing
    ``# shard-safe: unranked-ok`` comment on the call line acknowledges
    an intentionally unranked path (engine-internal bookkeeping, events
    scheduled before topology binding).
    """
    if "SHD008" in set(ignore):
        return []
    from repro.analysis.rules import get_rule

    out: List[Finding] = []
    for label, source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError as e:
            out.append(Finding(
                get_rule("SHD008"),
                f"cannot parse: {e}", location=label,
            ))
            continue
        lines = source.splitlines()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in _RANKED_CALLS:
                continue
            if any(kw.arg == "rank" for kw in node.keywords):
                continue
            line = lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
            ack = _UNRANKED_OK in line or (
                node.lineno - 2 >= 0 and _UNRANKED_OK in lines[node.lineno - 2]
            )
            if ack:
                continue
            out.append(Finding(
                get_rule("SHD008"),
                f"call to {name}() passes no rank= hint (event lands on "
                "shard 0); annotate with '# shard-safe: unranked-ok' if "
                "intentional",
                location=f"{label}:{node.lineno}",
            ))
    return out


#: Runtime modules whose send/fire paths the self-audit covers.
DEFAULT_AUDIT_MODULES = (
    "repro.sim.sharded",
    "repro.runtime.base",
    "repro.runtime.world",
    "repro.core.graph",
    "repro.comm.collectives",
)


def audit_runtime_modules(
    modules: Sequence[str] = DEFAULT_AUDIT_MODULES,
    ignore: Iterable[str] = (),
) -> List[Finding]:
    """SHD008 self-audit of this repository's own scheduling paths."""
    import importlib

    sources: List[Tuple[str, str]] = []
    for modname in modules:
        mod = importlib.import_module(modname)
        path = inspect.getsourcefile(mod)
        if path is None:
            continue
        with open(path) as fh:
            sources.append((modname, fh.read()))
    return scan_shard_paths(sources, ignore=ignore)


def suppressed_findings(
    effective: Sequence[Finding], raw: Sequence[Finding]
) -> List[Finding]:
    """Findings present in a raw (waiver-blind) run but not the effective
    run -- i.e. what the waivers suppressed.  Multiset difference keyed
    by ``(rule id, location, message)``."""
    remaining: Dict[Tuple[str, str, str], int] = {}
    for f in effective:
        key = (f.rule.id, f.location, f.message)
        remaining[key] = remaining.get(key, 0) + 1
    out: List[Finding] = []
    for f in raw:
        key = (f.rule.id, f.location, f.message)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            out.append(f)
    return out


def expired_waivers(graph: Any) -> List[Tuple[str, str]]:
    """(template name, rule id) pairs whose waiver expiry has passed."""
    out: List[Tuple[str, str]] = []
    for tt in graph.tts:
        expired = getattr(tt, "expired_waivers", None)
        if callable(expired):
            for rid in expired():
                out.append((tt.name, rid))
    return out
