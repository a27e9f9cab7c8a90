"""In-process timing of EkNN leave-one-out, before and after a change.

Times ``masscomb.eknn.evaluate_loo`` on the ``eknn-sweep`` dataset (two
unit Gaussians, 25 points per class, centres 4 apart, two features) for
the rules dempster, lns, dp and pcr6 at K = 2..10.  Each cell is one
warm-up call, then the median of ``--repeats`` timed calls.  Each source
tree runs in its own child process, one after the other, and the two
results go into one JSON file::

    mkdir -p .bench_build/parent
    git archive <commit> | tar -x -C .bench_build/parent
    python3 scripts/bench_eknn_loo.py --parent .bench_build/parent/src \
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


def measure(src: str, repeats: int) -> dict:
    """Median seconds per (rule, K) of ``evaluate_loo`` from the tree ``src``."""
    sys.path.insert(0, src)
    import numpy as np
    from masscomb import eknn
    from masscomb.rules import RuleConfig

    ds = eknn.two_gaussian_dataset(
        DATASET["n_per_class"], DATASET["separation"], dim=DATASET["dim"], seed=DATASET["seed"]
    )
    out = {"numpy": np.__version__}
    for rule in RULES:
        out[rule] = {}
        for k in KS:
            cfg = eknn.EknnConfig(k=k, alpha=DATASET["alpha"], rule=RuleConfig(rule=rule))
            eknn.evaluate_loo(ds, cfg)
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                eknn.evaluate_loo(ds, cfg)
                times.append(time.perf_counter() - start)
            out[rule][str(k)] = statistics.median(times)
    return out


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
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.repeats)))
        return
    if not args.parent:
        ap.error("--parent is required")
    here = Path(__file__).resolve().parent.parent / "src"
    sides = {}
    for name, src in (("parent", args.parent), ("change", str(here))):
        child = [sys.executable, __file__, "--measure", src, "--repeats", str(args.repeats)]
        sides[name] = json.loads(subprocess.run(child, check=True, capture_output=True, text=True).stdout)
    results = {
        rule: {str(k): {side: sides[side][rule][str(k)] for side in sides} for k in KS} for rule in RULES
    }
    totals = {side: sum(sides[side][rule][str(k)] for rule in RULES for k in KS) for side in sides}
    doc = {
        "benchmark": "eknn-loo",
        "what": "in-process seconds of one evaluate_loo call: median of the repeats after one warm-up",
        "command": " ".join(["python3", "scripts/bench_eknn_loo.py", *sys.argv[1:]]),
        "parent": args.parent_label or args.parent,
        "dataset": dict(DATASET, rules=list(RULES), ks=list(KS)),
        "repeats": args.repeats,
        "warmup": 1,
        "unit": "s",
        "host": {
            "cpu": _cpu(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sides["change"]["numpy"],
        },
        "results": results,
        "totals": totals,
    }
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"parent {totals['parent']:.4f} s, change {totals['change']:.4f} s over {len(RULES) * len(KS)} cells")


if __name__ == "__main__":
    main()
