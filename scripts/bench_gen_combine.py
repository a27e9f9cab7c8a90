"""In-process timing of the generate → combine path, stage by stage,
before and after a change.

The inputs are those of the ``gen-combine`` benchmark workload at seed 41:
8,000 ssf rows and 2,000 consonant rows (``num_focals=5``) over 8
hypotheses, each from its own stream.  The cells:

* ``generate/ssf`` and ``generate/consonant``: one ``generate`` call each;
* ``generate/consonant-1``: ``generate`` of one consonant row (timed as a
  batch of ``SMALL_BATCH`` calls), the fixed cost of a short draw;
* ``validate/ssf`` and ``validate/consonant``: ``core._check_rows`` of a
  copy of each ``generate`` block, the validation every producer runs;
* ``split/ssf`` and ``split/consonant``: the first ``columns()`` of a fresh
  ``generate`` block, the split a rule makes on first use;
* ``lns/first``: the first ``combine`` with ``lns`` of the fresh 10k list,
  both blocks' splits included;
* ``combine/average``: ``combine`` with ``average`` of the 10k list, its
  blocks split already, as the workload's last rule finds them;
* ``batch/10k``: ``rules._batch`` of the 10k list, which resolves it into its
  two block runs, as every ``combine`` call does;
* ``pass``: the workload's whole pass: both ``generate`` calls, then a
  ``combine`` with each of its five rules.

Each fresh input is built by the cell's untimed set-up.  The two trees are
timed side by side, cell by cell, as :mod:`benchpair` describes.  The
results go into one JSON file::

    mkdir -p .bench_build/parent
    git archive <commit> | tar -x -C .bench_build/parent
    python3 scripts/bench_gen_combine.py --parent .bench_build/parent/src \\
        --parent-label <commit> --output BENCH_gen_combine.json

``--parent`` is the ``src`` directory of the tree to compare with; the
change is this tree's ``src``.
"""

from __future__ import annotations

import sys

from benchpair import Cell, main

SEED = 41
FRAME_SIZE = 8
SSF_ROWS, CONSONANT_ROWS = 8_000, 2_000
#: the rules of the gen-combine workload, in its order
RULES = ("lns", "lnsa", "conjunctive", "cautious", "average")
SMALL_BATCH = 200
NAMES = [
    "generate/ssf", "generate/consonant", "generate/consonant-1", "validate/ssf",
    "validate/consonant", "split/ssf", "split/consonant", "lns/first", "combine/average",
    "batch/10k", "pass",
]


def _cells() -> dict:
    """Every cell of the tree on the path, by name."""
    import masscomb
    from masscomb import core, rules

    frame = masscomb.FrameOfDiscernment.numbered(FRAME_SIZE)
    ssf = masscomb.GenSpec(frame, kind="ssf", seed=SEED, stream=1)
    consonant = masscomb.GenSpec(frame, kind="consonant", num_focals=5, seed=SEED, stream=2)
    configs = {rule: masscomb.RuleConfig(rule=rule) for rule in RULES}

    def fresh():
        return (masscomb.generate(ssf, SSF_ROWS) + masscomb.generate(consonant, CONSONANT_ROWS),)

    def run_pass():
        batch = masscomb.generate(ssf, SSF_ROWS) + masscomb.generate(consonant, CONSONANT_ROWS)
        for cfg in configs.values():
            masscomb.combine(batch, cfg)

    held = fresh()
    blocks = {"ssf": held[0][0]._block, "consonant": held[0][-1]._block}

    def validate(kind):
        return Cell(core._check_rows, setup=lambda: (frame, blocks[kind].values.copy(), core.MASS_TOL))

    return {
        "generate/ssf": Cell(lambda: masscomb.generate(ssf, SSF_ROWS)),
        "generate/consonant": Cell(lambda: masscomb.generate(consonant, CONSONANT_ROWS)),
        "generate/consonant-1": Cell(lambda: masscomb.generate(consonant, 1), SMALL_BATCH),
        "validate/ssf": validate("ssf"),
        "validate/consonant": validate("consonant"),
        "split/ssf": Cell(lambda block: block.columns(),
                          setup=lambda: (masscomb.generate(ssf, SSF_ROWS)[0]._block,)),
        "split/consonant": Cell(lambda block: block.columns(),
                                setup=lambda: (masscomb.generate(consonant, CONSONANT_ROWS)[0]._block,)),
        "lns/first": Cell(lambda batch: masscomb.combine(batch, configs["lns"]), setup=fresh),
        "combine/average": Cell(lambda batch: masscomb.combine(batch, configs["average"]),
                                setup=lambda: held),
        "batch/10k": Cell(rules._batch, setup=lambda: held),
        "pass": Cell(run_pass),
    }


def _report(args, cell, host) -> dict:
    results = {name: cell(name) for name in NAMES}
    doc = {
        "benchmark": "gen-combine",
        "what": (
            "in-process seconds per call of each stage of the gen-combine workload's pass, and of"
            " the pass: median of the repeats after one warm-up, then median over the rounds, the"
            " two trees asked in turn cell by cell, the parent's child started first for the first"
            " (rounds + 1) // 2 rounds and the change's for the rest; ratio is the median over all"
            " rounds of change/parent"
        ),
        "command": " ".join(["python3", "scripts/bench_gen_combine.py", *sys.argv[1:]]),
        "parent": args.parent_label or args.parent,
        "inputs": {
            "frame_size": FRAME_SIZE,
            "seed": SEED,
            "ssf": f"generate(GenSpec(frame, kind='ssf', seed={SEED}, stream=1), {SSF_ROWS})",
            "consonant": (
                f"generate(GenSpec(frame, kind='consonant', num_focals=5, seed={SEED}, stream=2),"
                f" {CONSONANT_ROWS})"
            ),
            "rules": list(RULES),
            "small_batch": SMALL_BATCH,
        },
        "repeats": args.repeats,
        "rounds": args.rounds,
        "warmup": 1,
        "unit": "s",
        "host": host,
        "results": results,
    }
    for name, out in results.items():
        print(f"{name}: parent {out['parent'] * 1e3:.3f} ms, change {out['change'] * 1e3:.3f} ms,"
              f" ratio {out['ratio']:.3f}")
    return doc


if __name__ == "__main__":
    main(__file__, _cells, NAMES, _report, description=__doc__.split("\n\n")[0],
         output="BENCH_gen_combine.json", repeats=7, rounds=15)
