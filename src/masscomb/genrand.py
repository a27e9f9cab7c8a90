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

_MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one family of random assignments.

    ``focal_pool`` restricts which subsets may become focal (``general``
    and ``ssf`` kinds only).  ``num_focals`` is the length of the nested chain
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
            if self.kind == "consonant":
                raise ParameterError("a consonant draw picks chain sizes; it takes no focal pool")
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


def _pool(spec: GenSpec) -> np.ndarray:
    """What each draw picks from: focal subsets for ``general`` and ``ssf``,
    chain lengths for ``consonant``."""
    frame = spec.frame
    if spec.kind == "consonant":
        return np.arange(1, frame.n + 1)
    if spec.focal_pool is not None:
        return np.asarray(spec.focal_pool)
    if spec.kind == "general":
        return np.arange(1, frame.powerset_size)
    if frame.n < 2:
        raise ParameterError(
            "a one-element frame has no proper non-empty subsets; supply a focal pool"
        )
    return np.arange(1, frame.full_set)


def _draw_general(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, arr: np.ndarray) -> None:
    count = int(rng.integers(1, len(pool) + 1))
    focals = rng.choice(pool, size=count, replace=False)
    arr[focals] = _simplex(rng, count)


def _draw_ssf(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, arr: np.ndarray) -> None:
    # the same stream as rng.choice(pool), without its overhead
    focal = int(pool[rng.integers(0, len(pool))])
    w = float(rng.random())
    arr[spec.frame.full_set] = w
    arr[focal] += 1.0 - w


def _draw_consonant(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, arr: np.ndarray) -> None:
    _draw_chains(rng, spec, pool, arr[np.newaxis])


def _draw_chains(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, block: np.ndarray) -> None:
    """Fill the zeroed rows of ``block`` with consonant draws.

    Each draw permutes the hypotheses, picks ``num_focals`` distinct chain
    sizes and draws one uniform per focal set; the chain's set of size ``s``
    holds the first ``s`` hypotheses of the permutation, and the whole
    frame is added on top unless a size is ``n``.  Only those random calls
    run draw by draw; the sort, the chains and the simplex masses are
    computed for all rows at once.
    """
    n, k = spec.frame.n, spec.num_focals
    count = len(block)
    orders = np.empty((count, n), dtype=np.int64)
    sizes = np.empty((count, k), dtype=np.int64)
    u = np.empty((count, k + 1))
    topped = np.empty(count, dtype=bool)
    for i in range(count):
        orders[i] = rng.permutation(n)
        sizes[i] = rng.choice(pool, size=k, replace=False)
        topped[i] = top = sizes[i].max() < n
        rng.random(out=u[i, : k + top])
    sizes.sort(axis=1)
    chains = np.take_along_axis(np.cumsum(np.left_shift(1, orders), axis=1), sizes - 1, axis=1)
    # one block per simplex length: numpy sums 8 or more terms pairwise, so
    # a padded row would not sum in the order of a draw's own vector
    for top in (False, True):
        rows = np.flatnonzero(topped == top)
        e = -np.log(np.maximum(u[rows, : k + top], 1e-300))
        masses = e / e.sum(axis=1, keepdims=True)
        block[rows[:, np.newaxis], chains[rows]] = masses[:, :k]
        if top:
            block[rows, spec.frame.full_set] = masses[:, k]


#: Each drawer writes one draw, picking from ``_pool(spec)``, into a zeroed row.
_DRAWERS = {"general": _draw_general, "ssf": _draw_ssf, "consonant": _draw_consonant}

GEN_KINDS = tuple(_DRAWERS)

_LOW32 = np.uint64(0xFFFFFFFF)


def _singleton_masses(arr: np.ndarray, n: int) -> np.ndarray:
    return arr[[1 << i for i in range(n)]]


def _replay_ssf(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, block: np.ndarray) -> None:
    """Fill ``block`` with the rows that :func:`generate` draws one by one for
    ``ssf`` with no threshold and at least two pool entries, from raw PCG64
    words.

    An ssf draw calls ``integers(0, m)`` and then ``random()``.  The integer
    takes the low half of a fresh 64-bit word, and the next draw's integer
    the high half, which the bit generator buffers; each maps a 32-bit ``u``
    to ``(u * m) >> 32`` by Lemire's rule, rejecting ``u`` when
    ``(u * m) mod 2**32 < (2**32 - m) mod m``.  The weight is the top 53
    bits of the next word times ``2**-53``.  So a pair of draws uses three
    words.  A draw that meets a rejection runs through :func:`_draw_ssf`
    from the words before it.  The buffered half it rejects need not be
    restored: the rejection drops it and takes the low half of a fresh word
    either way.  A draw that starts on a buffered half also runs through
    :func:`_draw_ssf`.
    """
    bitgen = rng.bit_generator
    m = len(pool)
    full = spec.frame.full_set
    filled = 0
    while filled < len(block):
        if bitgen.state["has_uint32"]:
            _draw_ssf(rng, spec, pool, block[filled])
            filled += 1
            continue
        need = len(block) - filled
        pairs = (need + 1) // 2
        start = bitgen.state
        words = bitgen.random_raw(3 * pairs).reshape(pairs, 3)
        u = np.stack([words[:, 0] & _LOW32, words[:, 0] >> np.uint64(32)], axis=1).ravel()
        scaled = u[:need] * np.uint64(m)
        rejected = np.flatnonzero((scaled & _LOW32) < np.uint64((2**32 - m) % m))
        stop = int(rejected[0]) if rejected.size else need
        rows = np.arange(filled, filled + stop)
        w = (words[:, 1:].ravel()[:stop] >> np.uint64(11)).astype(float) * 2.0**-53
        block[rows, full] = w
        block[rows, pool[(scaled[:stop] >> np.uint64(32)).astype(np.intp)]] += 1.0 - w
        filled += stop
        if stop < need:
            # back to the words before the rejected draw, then draw it one by one
            bitgen.state = start
            bitgen.random_raw(3 * (stop // 2) + 2 * (stop % 2))
            _draw_ssf(rng, spec, pool, block[filled])
            filled += 1


def generate(spec: GenSpec, count: int) -> list[MassFunction]:
    """Draw ``count`` assignments following ``spec``, deterministically per seed.

    The draws fill the rows of one block, which is validated once; the
    assignments share ``spec.frame`` and hold read-only views of that block.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    key = (spec.stream,) if spec.stream else ()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed, spawn_key=key)))
    pool = _pool(spec)
    block = np.zeros((count, spec.frame.powerset_size))
    if spec.kind == "ssf" and spec.min_singleton_mass is None and len(pool) > 1:
        _replay_ssf(rng, spec, pool, block)
        return _mass_rows(spec.frame, block)
    if spec.kind == "consonant" and spec.min_singleton_mass is None:
        _draw_chains(rng, spec, pool, block)
        return _mass_rows(spec.frame, block)
    draw = _DRAWERS[spec.kind]
    for arr in block:
        for attempt in range(_MAX_REJECTIONS):
            draw(rng, spec, pool, arr)
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
