"""Seeded random mass-function generators for synthetic experiments.

All draws come from a PCG64 stream, so a given spec reproduces the same
assignments on every platform.  Simplex masses are sampled by normalising
exponential transforms of uniform draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameOfDiscernment, MassFunction, _mass_rows
from .errors import ParameterError

GEN_KINDS = ("general", "ssf", "consonant")

_MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one family of random assignments.

    ``focal_pool`` restricts which subsets may become focal (``general``
    and ``ssf`` kinds).  ``num_focals`` is the length of the nested chain
    for ``consonant`` assignments (the whole frame is added on top).
    ``min_singleton_mass`` turns on rejection sampling: draws are repeated
    until some singleton carries more than the threshold.  ``stream``
    selects an independent substream of the same seed, so parallel
    producers can split one seed without correlating draws.
    """

    frame: FrameOfDiscernment
    kind: str = "general"
    focal_pool: tuple[int, ...] | None = None
    num_focals: int = 3
    min_singleton_mass: float | None = None
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if self.focal_pool is not None:
            pool = tuple(int(a) for a in self.focal_pool)
            object.__setattr__(self, "focal_pool", pool)
            if not pool:
                raise ParameterError("focal pool must not be empty")
            for a in pool:
                self.frame.check_index(a)
                if a == 0:
                    raise ParameterError("the empty set cannot be a focal element")
        if self.kind == "consonant" and not 1 <= self.num_focals <= self.frame.n:
            raise ParameterError(
                f"a nested chain of {self.num_focals} proper subsets does not fit"
                f" in a {self.frame.n}-element frame"
            )
        if self.min_singleton_mass is not None and not 0.0 <= self.min_singleton_mass < 1.0:
            raise ParameterError("min_singleton_mass must lie in [0, 1)")


def _simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    u = rng.random(k)
    e = -np.log(np.maximum(u, 1e-300))
    return e / e.sum()


def _draw_general(rng: np.random.Generator, spec: GenSpec, arr: np.ndarray) -> None:
    frame = spec.frame
    pool = np.asarray(
        spec.focal_pool
        if spec.focal_pool is not None
        else np.arange(1, frame.powerset_size)
    )
    count = int(rng.integers(1, len(pool) + 1))
    focals = rng.choice(pool, size=count, replace=False)
    arr[focals] = _simplex(rng, count)


def _draw_ssf(rng: np.random.Generator, spec: GenSpec, arr: np.ndarray) -> None:
    frame = spec.frame
    if spec.focal_pool is not None:
        pool = np.asarray(spec.focal_pool)
    else:
        if frame.n < 2:
            raise ParameterError(
                "a one-element frame has no proper non-empty subsets; supply a focal pool"
            )
        pool = np.arange(1, frame.full_set)
    focal = int(rng.choice(pool))
    w = float(rng.random())
    arr[frame.full_set] = w
    arr[focal] += 1.0 - w


def _draw_consonant(rng: np.random.Generator, spec: GenSpec, arr: np.ndarray) -> None:
    frame = spec.frame
    order = rng.permutation(frame.n)
    sizes = np.sort(rng.choice(np.arange(1, frame.n + 1), size=spec.num_focals, replace=False))
    focals = []
    for s in sizes:
        mask = 0
        for pos in order[: int(s)]:
            mask |= 1 << int(pos)
        focals.append(mask)
    if focals[-1] != frame.full_set:
        focals.append(frame.full_set)
    arr[focals] = _simplex(rng, len(focals))


#: Each drawer writes one draw into a zeroed row.
_DRAWERS = {"general": _draw_general, "ssf": _draw_ssf, "consonant": _draw_consonant}


def _singleton_masses(arr: np.ndarray, n: int) -> np.ndarray:
    return arr[[1 << i for i in range(n)]]


def generate(spec: GenSpec, count: int) -> list[MassFunction]:
    """Draw ``count`` assignments following ``spec``, deterministically per seed.

    The draws fill the rows of one block, which is validated once; the
    assignments share ``spec.frame`` and hold read-only views of that block.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    key = (spec.stream,) if spec.stream else ()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed, spawn_key=key)))
    draw = _DRAWERS[spec.kind]
    block = np.zeros((count, spec.frame.powerset_size))
    for arr in block:
        for attempt in range(_MAX_REJECTIONS):
            draw(rng, spec, arr)
            if spec.min_singleton_mass is None:
                break
            if _singleton_masses(arr, spec.frame.n).max() > spec.min_singleton_mass:
                break
            arr[:] = 0.0
        else:
            raise ParameterError(
                f"rejection sampling failed {_MAX_REJECTIONS} times; no draw from this"
                " recipe satisfies the singleton-mass threshold"
            )
    return _mass_rows(spec.frame, block)
