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

The two trees are timed side by side, cell by cell, as
:mod:`benchpair` describes (a small call is timed as a batch of
``SMALL_BATCH`` calls).  The results go into one JSON file::

    mkdir -p .bench_build/parent
    git archive <commit> | tar -x -C .bench_build/parent
    python3 scripts/bench_eknn_loo.py --parent .bench_build/parent/src \\
        --parent-label <commit> --output BENCH_eknn_loo.json

``--parent`` is the ``src`` directory of the tree to compare with; the
change is this tree's ``src``.
"""

from __future__ import annotations

import sys

from benchpair import SIDES, Cell, main

RULES = ("dempster", "lns", "dp", "pcr6")
KS = tuple(range(2, 11))
DATASET = {"seed": 1, "n_per_class": 25, "separation": 4.0, "dim": 2, "alpha": 0.95}
SINGLE_RULES = ("dp", "pcr6")
SINGLE_INPUTS = ("small", "large")
SMALL_BATCH = 50


def _cells() -> dict:
    """Every cell of the tree on the path, by name."""
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
            cells[f"loo/{rule}/{k}"] = Cell(lambda cfg=cfg: eknn.evaluate_loo(ds, cfg))
    params = dict(DATASET, rules=list(RULES), ks=list(KS))
    cells["experiment/eknn-sweep"] = Cell(lambda: masscomb.run_experiment("eknn-sweep", params))
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
            cells[f"single/{rule}/{name}"] = Cell(lambda cfg=cfg, ms=inputs[name]: combine(ms, cfg), batch)
    return cells


NAMES = [f"loo/{rule}/{k}" for rule in RULES for k in KS] + ["experiment/eknn-sweep"]
NAMES += [f"single/{rule}/{name}" for rule in SINGLE_RULES for name in SINGLE_INPUTS]


def _report(args, cell, host) -> dict:
    results = {rule: {str(k): cell(f"loo/{rule}/{k}") for k in KS} for rule in RULES}
    single = {rule: {name: cell(f"single/{rule}/{name}") for name in SINGLE_INPUTS} for rule in SINGLE_RULES}
    totals = {side: sum(results[rule][str(k)][side] for rule in RULES for k in KS) for side in SIDES}
    doc = {
        "benchmark": "eknn-loo",
        "what": (
            "in-process seconds of one evaluate_loo call, of one run_experiment('eknn-sweep') call"
            " over every rule and K of the dataset, and of one combine call on the single-call"
            " inputs: median of the repeats after one warm-up, then median over the rounds, the two"
            " trees asked in turn cell by cell, the parent's child started first for the first"
            " (rounds + 1) // 2 rounds and the change's for the rest; ratio is the median over all"
            " rounds of change/parent"
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
        "host": host,
        "results": results,
        "experiment": {"eknn-sweep": cell("experiment/eknn-sweep")},
        "single": single,
        "totals": totals,
    }
    print(f"parent {totals['parent']:.4f} s, change {totals['change']:.4f} s over {len(RULES) * len(KS)} cells")
    sweep = doc["experiment"]["eknn-sweep"]
    print(f"eknn-sweep: parent {sweep['parent']:.4f} s, change {sweep['change']:.4f} s, ratio {sweep['ratio']:.3f}")
    for rule in SINGLE_RULES:
        for name in SINGLE_INPUTS:
            a, b = single[rule][name]["parent"], single[rule][name]["change"]
            ratio = single[rule][name]["ratio"]
            print(f"{rule} {name}: parent {a * 1e6:.1f} us, change {b * 1e6:.1f} us, ratio {ratio:.3f}")
    return doc


if __name__ == "__main__":
    main(__file__, _cells, NAMES, _report, description=__doc__.split("\n\n")[0],
         output="BENCH_eknn_loo.json", repeats=7, rounds=5)
