"""Paired in-process timing of two source trees, cell by cell.

A benchmark script names its cells and says how to build them from a
source tree; :func:`main` does the rest.  Each tree runs in its own child
process (the script itself, started with ``--serve``), and both stay up for
the whole run.  Cell by cell, the script asks one child and then the other
for a measurement, in alternating order over ``--rounds`` rounds, so a
drift in the host's speed hits both sides of a cell alike.  A measurement
is one warm-up call, then the median of ``--repeats`` timed samples; a
sample times ``batch`` calls and counts their mean, after building their
arguments, untimed, with the cell's ``setup``.  Each cell reports the
median over its rounds of each side and ``ratio``, the median over the
rounds of change / parent: the two sides of a round ran back to back, so
their ratio cancels most drift.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")


@dataclass
class Cell:
    """One timed call: ``call(*setup())``, ``batch`` calls per sample."""

    call: Callable
    batch: int = 1
    setup: Callable[[], tuple] = tuple


def _sample(cell: Cell) -> float:
    args = cell.setup()
    start = time.perf_counter()
    for _ in range(cell.batch):
        cell.call(*args)
    return (time.perf_counter() - start) / cell.batch


def serve(make_cells: Callable[[], dict], src: str, repeats: int) -> None:
    """Child mode: put ``src`` first on the path, build the cells, print
    numpy's version, then answer each cell name read from stdin with its
    median seconds per call."""
    sys.path.insert(0, src)
    import numpy as np

    cells = make_cells()
    print(json.dumps(np.__version__), flush=True)
    for line in sys.stdin:
        cell = cells[line.strip()]
        cell.call(*cell.setup())
        print(json.dumps(statistics.median(_sample(cell) for _ in range(repeats))), flush=True)


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(script: str, make_cells: Callable[[], dict], names: list[str], report: Callable,
         *, description: str, output: str, repeats: int, rounds: int) -> None:
    """Parse the command line, then serve as a child or time ``names`` on
    both trees and write ``report(args, cell, host)``, a JSON document, to
    ``--output``.  ``cell(name)`` gives a cell's result; ``host`` describes
    the machine.  ``--parent`` is the ``src`` directory of the tree to
    compare with; the change is the ``src`` next to ``script``'s directory."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--parent", help="src directory of the tree to compare with")
    ap.add_argument("--parent-label", help="what the parent tree is, for the record (a commit)")
    ap.add_argument("--output", default=output)
    ap.add_argument("--repeats", type=int, default=repeats)
    ap.add_argument("--rounds", type=int, default=rounds)
    ap.add_argument("--serve", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.serve:
        serve(make_cells, args.serve, args.repeats)
        return
    if not args.parent:
        ap.error("--parent is required")
    trees = {"parent": args.parent, "change": str(Path(script).resolve().parent.parent / "src")}
    children = {
        side: subprocess.Popen(
            [sys.executable, script, "--serve", src, "--repeats", str(args.repeats)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for side, src in trees.items()
    }
    numpy_version = {side: json.loads(child.stdout.readline()) for side, child in children.items()}
    samples = {side: {name: [] for name in names} for side in SIDES}
    try:
        for i in range(args.rounds):
            for j, name in enumerate(names):
                for side in sorted(SIDES, reverse=(i + j) % 2 == 1):
                    children[side].stdin.write(name + "\n")
                    children[side].stdin.flush()
                    samples[side][name].append(json.loads(children[side].stdout.readline()))
    finally:
        for child in children.values():
            child.stdin.close()
            child.wait()

    def cell(name: str) -> dict:
        out = {side: statistics.median(samples[side][name]) for side in SIDES}
        pairs = zip(samples["change"][name], samples["parent"][name])
        out["ratio"] = statistics.median(change / parent for change, parent in pairs)
        return out

    host = {
        "cpu": _cpu(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version["change"],
    }
    doc = report(args, cell, host)
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
