"""Fuzz every public operation for numpy warnings on inputs across the
whole float range.

Draws seeded assignments over 1 to 5 hypotheses whose cells run from 1
down to 1e-300, and runs on each, with every warning raised as an error:
every transform and its inverse, ``pignistic``, ``canonical_decompose``
then ``recompose``, ``discount``, and every rule on the assignment and up
to three more.  A documented error (a ``MassCombError``) is an answer; a
warning, or any other exception, is a fault.  Prints each fault with its
input and exits 1 if there is one::

    PYTHONPATH=src python3 scripts/fuzz_warnings.py --count 2000 --seed 0
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from masscomb.core import (
    REPRESENTATION_KINDS,
    FrameOfDiscernment,
    MassFunction,
    canonical_decompose,
    discount,
    recompose,
    transform,
)
from masscomb.errors import MassCombError
from masscomb.rules import RULE_NAMES, RuleConfig, combine

#: Keeps each dp/pcr6 call small; past it a call is a documented guard error.
GUARD = 4096


def draw(rng: np.random.Generator, frame: FrameOfDiscernment) -> MassFunction:
    """An assignment on a random set of cells, each of mass uniform on
    [0, 1) or log-uniform on [1e-300, 1], before normalisation."""
    size = frame.powerset_size
    cells = rng.choice(size, int(rng.integers(1, size + 1)), replace=False)
    values = np.zeros(size)
    tiny = rng.random(len(cells)) < 0.5
    values[cells] = np.where(tiny, 10.0 ** -rng.uniform(0, 300, len(cells)), rng.random(len(cells)))
    if not values.any():
        values[cells[0]] = 1.0
    return MassFunction(frame, values / values.sum())


def operations(m: MassFunction, others: list[MassFunction], alpha: float):
    """``(name, call)`` for every operation run on ``m``."""
    for kind in REPRESENTATION_KINDS:
        yield f"transform {kind}", lambda kind=kind: transform(m, kind)
    for kind in ("commonality", "implicability"):
        yield f"transform {kind} to mass", lambda kind=kind: transform(transform(m, kind), "mass")
    yield "decompose then recompose", lambda: recompose(canonical_decompose(m))
    yield "discount", lambda: discount(m, alpha)
    for rule in RULE_NAMES:
        cfg = RuleConfig(rule=rule, enumeration_guard=GUARD)
        yield f"combine {rule}", lambda cfg=cfg: combine([m, *others], cfg)


def fuzz(count: int, seed: int) -> list[str]:
    """The faults met on ``count`` inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    faults = []
    for i in range(count):
        frame = FrameOfDiscernment.numbered(int(rng.integers(1, 6)))
        m = draw(rng, frame)
        others = [draw(rng, frame) for _ in range(int(rng.integers(0, 4)))]
        for name, call in operations(m, others, float(rng.random())):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    call()
                except MassCombError:
                    pass
                except Exception as exc:  # a warning raised as an error, or a fault
                    faults.append(
                        f"input {i} (n = {frame.n}, {1 + len(others)} sources), {name}:"
                        f" {type(exc).__name__}: {exc}; masses {m.values.tolist()}"
                    )
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2000, help="inputs to draw (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draws (default 0)")
    args = parser.parse_args(argv)
    faults = fuzz(args.count, args.seed)
    for line in faults:
        print(line)
    print(f"{len(faults)} faults on {args.count} inputs (seed {args.seed})")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
