"""Host-time benchmark of the TTG simulator (run from the repository root).

One workload, bare (the end-to-end metrics) or traced (the per-layer
metrics)::

    python3 perfbench/run.py --workload bspmm16 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload bspmm16 --seed 0 --seconds 25 --trace 1

Every gated workload, bare and traced, each in its own process, with a
summary table and the derived (not gated) telemetry overhead and layer
shares::

    python3 perfbench/run.py

A bare run is a closed loop with one client: iterations (set-up, timed
driver call, output checks) repeat until the next one would end after
``--seconds``.  It reports the medians of ``tasks_per_s`` and
``setup_s`` over its iterations, in seconds of a reference host (see
``HostProbe``), and the process's peak RSS.  A traced
run times one bare iteration, then one iteration with every layer
wrapped (see ``tracer.py``), checks the wrappers against the simulator's
own counters and reports per-layer counts and self times.

The last line of standard output is the result object; the lines
before it are for people (``report: {...}`` carries sample counts, the
environment fingerprint and layer shares for the summary).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = [("tasks_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

#: Upper bound on one child process of the all-workloads mode.
CHILD_TIMEOUT_S = 900

#: Mean seconds of one ``probe.host_probe`` on the reference host, taken
#: while it shares a CPU with the measuring process.  End-to-end times
#: are in seconds of that host: each iteration's host seconds are
#: scaled by this over the mean probe time during the iteration, which
#: cancels the shared host's speed swings (see NOTES.md).
PROBE_REFERENCE_S = 0.15


class HostProbe:
    """Times ``probe.host_probe`` in a helper process, all along the run.

    Each call returns the mean probe time since the previous call.  The
    helper and the measuring process are pinned to the same CPU: each
    virtual CPU of a shared host changes speed on its own, within
    seconds, so neither a probe on another CPU nor probes taken only
    before and after an iteration follow the speed the iteration saw.
    The helper takes its share of that CPU in every iteration alike.
    Its heap never changes, so the probe's time follows the host's
    speed only; in the measuring process it would also follow how much
    freed memory the workload left behind.  Leaving the context waits
    until the helper has ended and restores the CPU affinity.
    """

    def __enter__(self) -> "HostProbe":
        self._cpus = os.sched_getaffinity(0)
        # The helper inherits the affinity.
        os.sched_setaffinity(0, {min(self._cpus)})
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("p")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc: Any) -> None:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        os.sched_setaffinity(0, self._cpus)


def _pin_environment() -> None:
    # BLAS/OpenMP pools must be sized before NumPy loads: one thread, so
    # the kernels of potrf-real do not contend for the host's cores with
    # the interpreter.  git (asked for HEAD by the watchdog cells) must
    # not search above the checkout.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def _print_metric(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<34} {value:>16.6g} {unit:<8} {note}")


def _result(attempted: int, failed: int, metrics: Dict[str, float],
            units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _report_errors(errors: List[str]) -> None:
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)


def bare_run(wl: Any, seed: int, seconds: float, calls: Any, expect: Any,
             small: bool = False) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    with HostProbe() as probe:
        return _bare_loop(wl, seed, seconds, calls, expect, small, probe)


def _bare_loop(wl: Any, seed: int, seconds: float, calls: Any, expect: Any,
               small: bool, probe: HostProbe
               ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import workloads as W

    tps: List[float] = []
    setups: List[float] = []
    speeds: List[float] = []
    attempted = failed = 0
    probe()  # the helper's first probe pays its start-up
    start = time.perf_counter()
    while True:
        # Free the previous iteration before this one allocates, so the
        # peak RSS is that of one iteration.
        calls.clear()
        gc.collect()
        probe()  # the probes from here on cover this iteration
        it = W.iterate(wl, seed, calls, small, expect)
        passes = [W.setup_only(wl, seed, calls, small)
                  for _ in range(wl.setup_passes)]
        # Host speed relative to the reference host (< 1 when slower).
        speed = PROBE_REFERENCE_S / probe()
        attempted += 1
        if it.errors:
            failed += 1
            _report_errors(it.errors)
        tps.append(it.tasks / (it.timed_s * speed))
        setups.extend(t * speed for t in [it.setup_s] + passes)
        speeds.append(speed)
        del it
        elapsed = time.perf_counter() - start
        if elapsed * (attempted + 1) / attempted > seconds:
            break
    metrics = {
        "tasks_per_s": statistics.median(tps),
        "setup_s": statistics.median(setups),
        # ru_maxrss is the process's high-water mark (KiB on Linux): one
        # sample per run, which is why each run is its own process.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"tasks_per_s": len(tps), "setup_s": len(setups),
               "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        _print_metric(name, metrics[name], unit,
                      f"median of {samples[name]}" if samples[name] > 1
                      else "process high-water mark")
    print(f"  host speed vs reference: median {statistics.median(speeds):.3f}"
          f" (min {min(speeds):.3f}, max {max(speeds):.3f})")
    return (_result(attempted, failed, metrics, dict(END_TO_END)),
            {"samples": samples,
             "iterations": {"tasks_per_s": tps, "setup_s": setups,
                            "host_speed": speeds}})


def traced_run(wl: Any, seed: int, calls: Any, expect: Any,
               small: bool = False) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import traced as TR
    import tracer as T
    import workloads as W

    gc.collect()
    bare = W.iterate(wl, seed, calls, small, expect)
    tracer = T.Tracer()
    snaps: List[T.Totals] = []
    calls.on_phase = lambda: snaps.append(tracer.snapshot())
    tracer.install()
    try:
        gc.collect()
        traced = W.iterate(wl, seed, calls, small, expect)
    finally:
        tracer.restore()
        calls.on_phase = lambda: None
    begin, timed_start, timed_end = snaps
    timed = T.delta(timed_end, timed_start)
    traced.errors += TR.self_check(T.delta(timed_end, begin), traced, bare)
    failed = 0
    for it in (bare, traced):
        if it.errors:
            failed += 1
            _report_errors(it.errors)
    metrics = TR.layer_metrics(timed, T.delta(timed_start, begin), traced, bare)
    units = {name: TR.unit_of(name) for name in metrics}
    for name, value in metrics.items():
        _print_metric(name, value, units[name], "")
    shares = TR.layer_shares(timed, traced.timed_s)
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
    print("derived (not gated): top-5 layers by self-time share of the "
          "timed phase, traced")
    for layer, share in top:
        print(f"  {layer:<36} {100 * share:6.1f}%")
    design = []
    for what, layers, ok in wl.design:
        share = sum(shares.get(layer, 0.0) for layer in layers)
        verdict = "met" if ok(share) else "NOT MET"
        design.append(f"{what}: {100 * share:.1f}% {verdict}")
        print(f"derived (not gated): design check {design[-1]}")
    return (_result(2, failed, metrics, units),
            {"top_layers": top, "design": design})


def run_one(args: argparse.Namespace) -> int:
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    refs = W.load_references().get(wl.reference or wl.name, {})
    expect = refs.get(str(args.seed))
    seed = wl.input_seed(args.seed)
    calls = W.Calls()
    calls.install()
    try:
        env = W.fingerprint(ROOT, wl)
        print(f"perfbench {wl.name} seed={args.seed} (inputs from seed "
              f"{seed}) trace={args.trace}: {wl.why}")
        # Warm-up at reduced size: imports, lazy set-up and first calls.
        warm = W.iterate(wl, args.seed, calls, small=True)
        _report_errors([f"warm-up: {e}" for e in warm.errors])
        if expect is None and wl.reference:
            # No stored reference for this seed: run the reference
            # workload once (untimed) instead.
            expect = W.iterate(W.WORKLOADS[wl.reference], seed,
                               calls).virtual
        if args.trace:
            result, report = traced_run(wl, seed, calls, expect)
        else:
            result, report = bare_run(wl, seed, args.seconds, calls, expect)
    finally:
        calls.restore()
    print(f"  attempted {result['attempted']} failed {result['failed']}"
          + ("" if expect is not None else
             " (no stored reference for this seed)"))
    print("report: " + json.dumps(dict(report, env=env)))
    print(json.dumps(result))
    return 0


def _child(name: str, args: argparse.Namespace,
           trace: int) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    report = next(json.loads(line[len("report: "):]) for line in lines
                  if line.startswith("report: "))
    return json.loads(lines[-1]), report


def run_all(args: argparse.Namespace) -> int:
    import workloads as W

    rows = {}
    ok = True
    for name in W.GATED:
        for trace in (0, 1):
            out = _child(name, args, trace)
            ok = ok and out is not None and out[0]["correct"]
            rows[name, trace] = out
    print("\nsummary (seed %d, %gs per bare run)" % (args.seed, args.seconds))
    print(f"  {'workload':<14}" + "".join(
        f"{name + ' (' + unit + ')':>26}" for name, unit in END_TO_END)
        + f"{'attempted':>11}{'failed':>8}")
    for name in W.GATED:
        out = rows[name, 0]
        if out is None:
            print(f"  {name:<14} run failed")
            continue
        result, report = out
        cells = "".join(
            f"{result['metrics'][m]['value']:>18.6g} (n={report['samples'][m]:>2})"
            for m, _ in END_TO_END)
        print(f"  {name:<14}{cells}{result['attempted']:>11}"
              f"{result['failed']:>8}")
    print("derived (not gated):")
    bare, tel = rows["bspmm16", 0], rows["bspmm16-tel", 0]
    if bare is not None and tel is not None:
        ratio = (bare[0]["metrics"]["tasks_per_s"]["value"]
                 / tel[0]["metrics"]["tasks_per_s"]["value"])
        print(f"  telemetry overhead: host time per task of bspmm16-tel over "
              f"bspmm16 = {ratio:.2f}x (ROADMAP target <= 1.3x)")
    for name in W.GATED:
        out = rows[name, 1]
        if out is None:
            continue
        top = ", ".join(f"{layer} {100 * share:.1f}%"
                        for layer, share in out[1]["top_layers"])
        print(f"  {name} top-5 layers: {top}")
        for line in out[1]["design"]:
            print(f"  {name} design check {line}")
    print("  not run: whatif-mra (its MRA norm check fails on every seed; "
          "see perfbench/NOTES.md)")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; omit for all "
                        "gated workloads, bare and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time of a bare run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    if args.workload is not None and args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(W.WORKLOADS)}")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
