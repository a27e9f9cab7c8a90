"""In-process timing of EkNN leave-one-out and of single dp/pcr6 calls,
before and after a change.

Times ``masscomb.eknn.evaluate_loo`` on the ``eknn-sweep`` dataset (two
unit Gaussians, 25 points per class, centres 4 apart, two features) for
the rules dempster, lns, dp and pcr6 at K = 2..10; the whole sweep of
those rules and Ks as the ``eknn-sweep`` benchmark workload runs it, one
``run_experiment("eknn-sweep")`` call; and single ``combine`` calls of dp
and pcr6 on two fixed inputs:

* ``small``: 6 ssf rows at n = 3 (``generate`` with seed 3), 64 tuples;
* ``large``: 12 sources at n = 3, alternately of 4 and 2 focal sets
  (seed 5), 262,144 tuples, nearly all of them conflicting.

Each source tree runs in its own child process, and both stay up for the
whole run.  Cell by cell, the script asks one child and then the other
for a measurement, in alternating order over ``--rounds`` rounds, so a
drift in the host's speed hits both sides of a cell alike.  A measurement
is one warm-up call, then the median of ``--repeats`` timed calls (a
small call is timed as a batch of ``SMALL_BATCH`` calls); each cell keeps
the median over its rounds.  The results go into one JSON file::

    mkdir -p .bench_build/parent
    git archive <commit> | tar -x -C .bench_build/parent
    python3 scripts/bench_eknn_loo.py --parent .bench_build/parent/src \\
        --parent-label <commit> --output BENCH_eknn_loo.json

``--parent`` is the ``src`` directory of the tree to compare with; the
change is this tree's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RULES = ("dempster", "lns", "dp", "pcr6")
KS = tuple(range(2, 11))
DATASET = {"seed": 1, "n_per_class": 25, "separation": 4.0, "dim": 2, "alpha": 0.95}
SINGLE_RULES = ("dp", "pcr6")
SINGLE_INPUTS = ("small", "large")
SMALL_BATCH = 50


def _cells(src: str) -> dict:
    """Every cell of the tree ``src``: its name, a call, and its batch."""
    sys.path.insert(0, src)
    import numpy as np
    import masscomb
    from masscomb import eknn
    from masscomb.rules import RuleConfig, combine

    ds = eknn.two_gaussian_dataset(
        DATASET["n_per_class"], DATASET["separation"], dim=DATASET["dim"], seed=DATASET["seed"]
    )
    cells = {}
    for rule in RULES:
        for k in KS:
            cfg = eknn.EknnConfig(k=k, alpha=DATASET["alpha"], rule=RuleConfig(rule=rule))
            cells[f"loo/{rule}/{k}"] = (lambda cfg=cfg: eknn.evaluate_loo(ds, cfg), 1)
    params = dict(DATASET, rules=list(RULES), ks=list(KS))
    cells["experiment/eknn-sweep"] = (lambda: masscomb.run_experiment("eknn-sweep", params), 1)
    frame = masscomb.core.FrameOfDiscernment.numbered(3)
    rng = np.random.default_rng(5)
    large = []
    for j in range(12):
        count = 4 if j % 2 == 0 else 2
        values = np.zeros(frame.powerset_size)
        values[rng.choice(np.arange(1, frame.powerset_size), size=count, replace=False)] = rng.dirichlet(
            np.ones(count)
        )
        large.append(masscomb.core.MassFunction(frame, values))
    inputs = {
        "small": masscomb.genrand.generate(masscomb.genrand.GenSpec(frame, kind="ssf", seed=3), 6),
        "large": large,
    }
    for rule in SINGLE_RULES:
        cfg = RuleConfig(rule=rule)
        for name in SINGLE_INPUTS:
            batch = SMALL_BATCH if name == "small" else 1
            cells[f"single/{rule}/{name}"] = (lambda cfg=cfg, ms=inputs[name]: combine(ms, cfg), batch)
    return cells


def serve(src: str, repeats: int) -> None:
    """Child mode: print numpy's version, then answer each cell name read
    from stdin with its median seconds per call."""
    import numpy as np

    cells = _cells(src)
    print(json.dumps(np.__version__), flush=True)
    for line in sys.stdin:
        call, batch = cells[line.strip()]
        call()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(batch):
                call()
            times.append((time.perf_counter() - start) / batch)
        print(json.dumps(statistics.median(times)), flush=True)


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="src directory of the tree to compare with")
    ap.add_argument("--parent-label", help="what the parent tree is, for the record (a commit)")
    ap.add_argument("--output", default="BENCH_eknn_loo.json")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--serve", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.serve:
        serve(args.serve, args.repeats)
        return
    if not args.parent:
        ap.error("--parent is required")
    here = Path(__file__).resolve().parent.parent / "src"
    trees = {"parent": args.parent, "change": str(here)}
    children = {
        side: subprocess.Popen(
            [sys.executable, __file__, "--serve", src, "--repeats", str(args.repeats)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for side, src in trees.items()
    }
    numpy_version = {side: json.loads(child.stdout.readline()) for side, child in children.items()}
    names = [f"loo/{rule}/{k}" for rule in RULES for k in KS] + ["experiment/eknn-sweep"]
    names += [f"single/{rule}/{name}" for rule in SINGLE_RULES for name in SINGLE_INPUTS]
    samples = {side: {name: [] for name in names} for side in trees}
    try:
        for i in range(args.rounds):
            for j, name in enumerate(names):
                for side in sorted(trees, reverse=(i + j) % 2 == 1):
                    children[side].stdin.write(name + "\n")
                    children[side].stdin.flush()
                    samples[side][name].append(json.loads(children[side].stdout.readline()))
    finally:
        for child in children.values():
            child.stdin.close()
            child.wait()

    def cell(name):
        out = {side: statistics.median(samples[side][name]) for side in trees}
        # the two sides of a round ran back to back: their ratio cancels most drift
        pairs = zip(samples["change"][name], samples["parent"][name])
        out["ratio"] = statistics.median(change / parent for change, parent in pairs)
        return out

    results = {rule: {str(k): cell(f"loo/{rule}/{k}") for k in KS} for rule in RULES}
    single = {rule: {name: cell(f"single/{rule}/{name}") for name in SINGLE_INPUTS} for rule in SINGLE_RULES}
    totals = {side: sum(results[rule][str(k)][side] for rule in RULES for k in KS) for side in trees}
    doc = {
        "benchmark": "eknn-loo",
        "what": (
            "in-process seconds of one evaluate_loo call, of one run_experiment('eknn-sweep') call"
            " over every rule and K of the dataset, and of one combine call on the single-call"
            " inputs: median of the repeats after one warm-up, then median over the rounds, the two"
            " trees asked in turn cell by cell; ratio is the median over the rounds of change/parent"
        ),
        "command": " ".join(["python3", "scripts/bench_eknn_loo.py", *sys.argv[1:]]),
        "parent": args.parent_label or args.parent,
        "dataset": dict(DATASET, rules=list(RULES), ks=list(KS)),
        "single_inputs": {
            "small": "6 ssf rows at n = 3, generate(GenSpec(numbered(3), kind='ssf', seed=3), 6)",
            "large": "12 sources at n = 3, alternately 4 and 2 focal sets, Dirichlet masses, seed 5",
        },
        "repeats": args.repeats,
        "rounds": args.rounds,
        "warmup": 1,
        "unit": "s",
        "host": {
            "cpu": _cpu(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version["change"],
        },
        "results": results,
        "experiment": {"eknn-sweep": cell("experiment/eknn-sweep")},
        "single": single,
        "totals": totals,
    }
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"parent {totals['parent']:.4f} s, change {totals['change']:.4f} s over {len(RULES) * len(KS)} cells")
    sweep = doc["experiment"]["eknn-sweep"]
    print(f"eknn-sweep: parent {sweep['parent']:.4f} s, change {sweep['change']:.4f} s, ratio {sweep['ratio']:.3f}")
    for rule in SINGLE_RULES:
        for name in SINGLE_INPUTS:
            a, b = single[rule][name]["parent"], single[rule][name]["change"]
            ratio = single[rule][name]["ratio"]
            print(f"{rule} {name}: parent {a * 1e6:.1f} us, change {b * 1e6:.1f} us, ratio {ratio:.3f}")


if __name__ == "__main__":
    main()
