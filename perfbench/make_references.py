"""Regenerate ``references.json``: the virtual outputs of stored seeds.

References are keyed by run seed (``--seed``), whatever input seed the
workload derives from it.

Every run checks its simulated makespan, ``tasks_by_template`` and
``bytes_by_protocol`` bit for bit against these, for each stored seed.
Regenerate only when a change is meant to alter simulated results::

    python3 perfbench/make_references.py 0 63    # seeds 0..63
"""

from __future__ import annotations

import json
import sys

from run import ROOT, _pin_environment


def main(argv: list) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    calls = W.Calls()
    calls.install()
    refs = {}
    # A workload with a ``reference`` reproduces another one's outputs.
    for wl in [w for w in W.WORKLOADS.values() if not w.reference]:
        refs[wl.name] = {}
        for seed in range(lo, hi + 1):
            it = W.iterate(wl, wl.input_seed(seed), calls)
            refs[wl.name][str(seed)] = it.virtual
            print(f"{wl.name} seed {seed}: {len(it.errors)} check failure(s)",
                  flush=True)
    W.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
