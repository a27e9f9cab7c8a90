"""Seeded random mass-function generators for synthetic experiments.

All draws come from a PCG64 stream, so a given spec reproduces the same
assignments on every platform.  Simplex masses are sampled by normalising
exponential transforms of uniform draws.

The stream is that of numpy's own calls, one draw at a time.  ssf and
consonant draws with no singleton-mass threshold, from a pool of two or
more, run through one loop: the kind's replay fills rows from raw PCG64
words, bit for bit and all at once, and a row it cannot make is drawn by
numpy's own calls, its focal cells read back from the row.  Other draws run
one by one.  A consonant row's shuffle, whose rejections decide where its
later draws start, is found by one compiled regex over a byte per 32-bit
half, so the walk over the halves runs in C.  The loop returns the focal
cells it wrote, which the block's split takes in place of a scan (see
``core._Columns.split``).
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import MAX_FRAME_SIZE, FrameOfDiscernment, MassFunction, _mass_rows
from .errors import ParameterError

_MAX_REJECTIONS = 10_000

#: Raw PCG64 words a consonant replay fetches and walks at a time.
_SLAB_WORDS = 1 << 14

_LOW32 = np.uint64(0xFFFFFFFF)


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
        for name in ("seed", "stream"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")
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
            if self.kind == "general" and len(set(pool)) < len(pool):
                a = next(a for a, seen in Counter(pool).items() if seen > 1)
                raise ParameterError(f"a general focal pool lists subset {a} more than once")
        if self.kind == "consonant" and not 1 <= self.num_focals <= self.frame.n:
            raise ParameterError(
                f"a nested chain of {self.num_focals} proper subsets does not fit"
                f" in a {self.frame.n}-element frame"
            )
        if self.min_singleton_mass is not None and not 0.0 <= self.min_singleton_mass < 1.0:
            raise ParameterError("min_singleton_mass must lie in [0, 1)")


def _simplex(u: np.ndarray) -> np.ndarray:
    """Simplex masses from the uniforms ``u``, one simplex per row."""
    e = -np.log(np.maximum(u, 1e-300))
    return e / e.sum(axis=-1, keepdims=True)


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
    arr[focals] = _simplex(rng.random(count))


def _draw_ssf(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, arr: np.ndarray) -> None:
    # the same stream as rng.choice(pool), without its overhead
    focal = int(pool[rng.integers(0, len(pool))])
    w = float(rng.random())
    arr[spec.frame.full_set] = w
    arr[focal] += 1.0 - w


def _draw_consonant(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, arr: np.ndarray):
    """One consonant draw by numpy's own calls: a permutation of the
    hypotheses, ``num_focals`` distinct chain sizes and one uniform per
    focal set.  Thresholded draws run through it, and so does any draw
    :func:`_replay_chains` cannot replay."""
    n, k = spec.frame.n, spec.num_focals
    order = rng.permutation(n)
    sizes = rng.choice(pool, size=k, replace=False)
    u = np.empty(k + 1)
    rng.random(out=u[: k + (sizes.max() < n)])
    _fill_chains(spec, order[np.newaxis], sizes[np.newaxis], u[np.newaxis], arr[np.newaxis])


def _fill_chains(spec: GenSpec, orders: np.ndarray, sizes: np.ndarray, u: np.ndarray,
                 block: np.ndarray):
    """Fill the zeroed rows of ``block`` with the consonant draws that
    ``orders``, ``sizes`` and ``u`` hold, one row each, and return the
    focal cells written: each row's chain sets but the frame, every mass
    being positive.

    The chain's set of size ``s`` holds the first ``s`` hypotheses of the
    row's order, and the whole frame is added on top unless a size is
    ``n``; the focal sets take the simplex masses of the row's first
    ``num_focals`` uniforms, plus one for the frame on top.
    """
    n, k = spec.frame.n, spec.num_focals
    sizes.sort(axis=1)
    topped = sizes[:, -1] < n
    chains = np.take_along_axis(np.cumsum(np.left_shift(1, orders, dtype=np.int64), axis=1),
                                sizes - 1, axis=1)
    # one block per simplex length: numpy sums 8 or more terms pairwise, so
    # a padded row would not sum in the order of a draw's own vector
    for top in (False, True):
        rows = np.flatnonzero(topped == top)
        if not rows.size:
            continue
        masses = _simplex(u[rows, : k + top])
        block[rows[:, np.newaxis], chains[rows]] = masses[:, :k]
        if top:
            block[rows, spec.frame.full_set] = masses[:, k]
    # nested sets ascend, so a row's chain is its cells in order
    kept = np.ones(chains.shape, dtype=bool)
    kept[:, -1] = topped
    rows, cols = np.nonzero(kept)
    return rows, chains[rows, cols]


def _top_mask(n: int) -> int:
    """The largest mask of ``permutation(n)``'s steps, at most 31 for
    ``n <= 20``; 0 for ``n = 1``, which has no step."""
    return (1 << (n - 1).bit_length()) - 1


def _shuffle_part(i: int, top: int) -> str:
    """The regex part of the shuffle step on ``[0, i]``, over halves cut to
    their low bits under ``top``: the halves it rejects, then the one it
    keeps, captured.  A step whose mask is ``i`` keeps the first."""
    mask = (1 << i.bit_length()) - 1
    if i == mask:
        return "(.)"
    rejected = "".join(f"\\x{b:02x}" for b in range(top + 1) if b & mask > i)
    kept = "".join(f"\\x{b:02x}" for b in range(top + 1) if b & mask <= i)
    return f"[{rejected}]*([{kept}])"


def _shuffle_regex(n: int) -> re.Pattern:
    """One part per step of ``permutation(n)``, ``i`` from ``n - 1`` down
    to 1, matched against a byte per half: its low bits under the largest
    step mask, ``_top_mask(n)``.  A step's two classes are disjoint, so a
    match is the shuffle's one walk, found in C; its groups are the halves
    the steps kept."""
    top = _top_mask(n)
    return re.compile("".join(_shuffle_part(i, top) for i in range(n - 1, 0, -1)).encode(), re.DOTALL)


#: One regex per frame size, compiled on the first replay of that size.
_shuffle_regex = functools.lru_cache(maxsize=MAX_FRAME_SIZE)(_shuffle_regex)


def _replay_chains(bitgen: np.random.BitGenerator, spec: GenSpec, pool: np.ndarray,
                   block: np.ndarray):
    """Fill the first rows of ``block`` with the draws of
    :func:`_draw_consonant`, from one slab of at most ``_SLAB_WORDS`` raw
    PCG64 words; return how many rows and their focal cells, leaving
    ``bitgen`` just past them.

    A draw makes three kinds of 32-bit draw, then ``num_focals`` uniforms
    (one more if the frame goes on top):

    * ``permutation(n)`` is a Fisher-Yates shuffle: for ``i`` from ``n - 1``
      down to 1 it draws until ``v & mask <= i``, where ``mask`` is the
      smallest all-ones mask at least ``i``, and swaps places ``i`` and
      ``v & mask``;
    * ``choice(pool, k, replace=False)`` is Floyd's algorithm: for ``j``
      from ``n - k`` to ``n - 1`` it picks a Lemire draw on ``[0, j]``, or
      ``j`` if that was picked already, with no draw for ``j = 0``; then it
      shuffles the picks with Lemire draws on ``[0, i]``, ``i`` from
      ``k - 1`` down to 1, an order the sort throws away;
    * a Lemire draw on ``[0, j]`` maps ``u`` to ``(u * (j + 1)) >> 32``,
      rejecting ``u`` when ``(u * (j + 1)) mod 2**32 < 2**32 mod (j + 1)``.

    A 32-bit draw takes the half the bit generator buffered, or else the
    low half of a fresh word, buffering the high half; a uniform takes a
    whole fresh word, its top 53 bits times ``2**-53``, and leaves the
    buffer alone.  So the 32-bit draws of a row run over consecutive
    halves, after a first half that may have been buffered before the
    previous row's uniforms; its byte is copied just before the row's fresh
    halves.  Row by row, :func:`_shuffle_regex` matches the shuffle's halves
    as one byte each, its end is where Floyd's draws start, and their
    values come from one byte table per bound; the swaps, the sizes and the
    uniforms are made in numpy for all rows at once.  Lemire rejections,
    less than one in 10**8 steps for ``n <= 20``, are found afterwards: the
    replay stops before the first row that meets one.
    """
    n, k = spec.frame.n, spec.num_focals
    start = bitgen.state
    # word 0 stands in for the buffered half, which is its high half; the
    # words are little-endian, so their halves are a uint32 view in order
    words = np.empty(1 + min(_SLAB_WORDS, len(block) * (n + 2 * k + 2)), dtype="<u8")
    words[0] = start["uinteger"] << 32
    words[1:] = bitgen.random_raw(len(words) - 1)
    halves = words.view("<u4")
    steps = range(n - 1, 0, -1)
    masks = np.array([(1 << i.bit_length()) - 1 for i in steps], dtype=np.uint8)
    # each half's low byte, cut to the largest step mask
    sym = bytearray(np.bitwise_and(words.view(np.uint8)[::4], _top_mask(n)))
    floyd = range(max(n - k, 1), n)
    # Floyd's step f on [0, j] reads half e + f at the shuffle's end e:
    # byte e of its bound's table, (u * (j + 1)) >> 32, at most 19, exact
    # in float64 and truncated into the bytes
    tables, scaled = [], np.empty(len(halves), dtype=np.uint8)
    for f, j in enumerate(floyd):
        np.multiply(halves, (j + 1) * 2.0**-32, out=scaled, dtype=np.float64, casting="unsafe")
        tables.append((j, scaled[f:].tobytes()))
    lemire = len(floyd) + k - 1
    match = _shuffle_regex(n).match
    # per row: the halves its steps kept, Floyd's picks as a bitmask and the
    # end of its halves
    kept, picks, ends = [], [], []
    pick, end = picks.append, ends.append
    # the position of the buffered half's byte, or -1
    word, buffered, limit = 1, 1 if start["has_uint32"] else -1, len(words)
    try:
        for _ in range(len(block)):
            p = 2 * word
            if buffered >= 0:
                # the buffered half goes just before the row's fresh halves:
                # over the high half of the previous row's last uniform word,
                # or of word 0
                p -= 1
                sym[p] = sym[buffered]
            walk = match(sym, p)
            if walk is None:
                break  # the slab ran out inside the shuffle
            e = walk.end()
            picked = int(k == n)
            for j, table in tables:
                v = table[e]
                if picked >> v & 1:
                    v = j
                picked |= 1 << v
            p = e + lemire
            word = (p + 1) // 2 + k + 1 - (picked >> (n - 1))
            if word > limit:
                break
            kept += walk.groups()
            pick(picked)
            end(p)
            buffered = p if p & 1 else -1
    except IndexError:
        pass  # the slab ran out inside Floyd's draws
    bounds = np.array([*range(floyd.start + 1, n + 1), *range(k, 1, -1)], dtype=np.uint64)
    drawn = halves[np.array(ends, dtype=np.intp)[:, np.newaxis] + np.arange(-lemire, 0)]
    rejected = np.flatnonzero((((drawn * bounds) & _LOW32) < (1 << 32) % bounds).any(axis=1))
    m = int(rejected[0]) if rejected.size else len(picks)
    bitgen.state = start
    if not m:
        return 0, None

    # the swaps, on the orders laid out place by place: row r's place v is
    # at v * m + r
    places = np.frombuffer(b"".join(kept), np.uint8).reshape(len(picks), n - 1)[:m] & masks
    orders = np.repeat(np.arange(n, dtype=np.uint8), m).reshape(n, m)
    flat = orders.ravel()
    # widened before the product: under numpy's legacy promotion a uint8
    # times a small scalar stays uint8 and wraps
    for i, at in zip(steps, np.multiply(places.T, m, dtype=np.intp) + np.arange(m)):
        held = orders[i].copy()
        orders[i] = flat[at]
        flat[at] = held
    picked = np.array(picks[:m])
    sizes = pool[np.nonzero((picked[:, np.newaxis] >> np.arange(n)) & 1)[1].reshape(m, k)]
    # the uniforms follow the halves; a row with no frame on top reads one
    # word past them, unused
    firsts = (np.array(ends[:m]) + 1) // 2
    u = (words[np.minimum(firsts[:, np.newaxis] + np.arange(k + 1), limit - 1)]
         >> np.uint64(11)) * 2.0**-53
    cells = _fill_chains(spec, orders.T, sizes, u, block[:m])

    # past the last row's uniforms, less the stand-in word 0
    last = ends[m - 1]
    bitgen.advance((last + 1) // 2 + k - (picks[m - 1] >> (n - 1)))
    if last & 1:
        # the half left buffered is the last row's last, but a row draws no
        # half for n = 1, so there it is the one the slab started with
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(halves[last if n > 1 else 1])
        bitgen.state = state
    return m, cells


#: Each drawer writes one draw, picking from ``_pool(spec)``, into a zeroed row.
_DRAWERS = {"general": _draw_general, "ssf": _draw_ssf, "consonant": _draw_consonant}

GEN_KINDS = tuple(_DRAWERS)


def _replay_ssf(bitgen: np.random.BitGenerator, spec: GenSpec, pool: np.ndarray,
                block: np.ndarray):
    """Fill the first rows of ``block`` with the draws of :func:`_draw_ssf`
    from raw PCG64 words; return how many rows and their focal cells: each
    row's focal set unless it is the frame (its mass ``1 - w`` is at least
    ``2**-53``).

    An ssf draw calls ``integers(0, m)`` and then ``random()``.  The integer
    takes the low half of a fresh 64-bit word, and the next draw's integer
    the high half, which the bit generator buffers; each maps a 32-bit ``u``
    to ``(u * m) >> 32`` by Lemire's rule, rejecting ``u`` when
    ``(u * m) mod 2**32 < 2**32 mod m``.  The weight is the top 53 bits of
    the next word times ``2**-53``.  So a pair of draws uses three words.
    The replay fills rows up to the first draw that meets a rejection, and
    makes none if the first draw would start on a half the bit generator
    buffered before it.  It leaves ``bitgen`` exactly where those draws one
    by one would, the half they buffer included: where it stops early, the
    driver goes on from there.
    """
    start = bitgen.state
    if start["has_uint32"]:
        return 0, None
    m, count = len(pool), len(block)
    words = bitgen.random_raw(3 * ((count + 1) // 2)).reshape(-1, 3)
    u = np.stack([words[:, 0] & _LOW32, words[:, 0] >> np.uint64(32)], axis=1).ravel()
    scaled = u[:count] * np.uint64(m)
    rejected = np.flatnonzero((scaled & _LOW32) < (1 << 32) % m)
    stop = int(rejected[0]) if rejected.size else count
    bitgen.state = start
    w = (words[:, 1:].ravel()[:stop] >> np.uint64(11)) * 2.0**-53
    focals = pool[(scaled[:stop] >> np.uint64(32)).astype(np.intp)]
    block[:stop, spec.frame.full_set] = w
    block[np.arange(stop), focals] += 1.0 - w
    bitgen.advance(3 * (stop // 2) + 2 * (stop % 2))
    if stop & 1:
        # an odd count of rows leaves the high half of its last integer word buffered
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(u[stop])
        bitgen.state = state
    rows = np.flatnonzero(focals != spec.frame.full_set)
    return stop, (rows, focals[rows])


#: The kinds whose draws :func:`_draw_replayed` replays from raw words.
_REPLAYS = {"ssf": _replay_ssf, "consonant": _replay_chains}


def _draw_replayed(rng: np.random.Generator, spec: GenSpec, pool: np.ndarray, block: np.ndarray,
                   draw) -> tuple[np.ndarray, np.ndarray]:
    """Fill the zeroed rows of ``block`` with the draws ``draw`` would make
    one by one: as many rows at a time as the kind's replay fills, and one
    row by ``draw`` where it fills none, that row's focal cells read back
    from it.  Returns the focal cells written, as
    :meth:`core._Columns.split` takes them."""
    replay, full = _REPLAYS[spec.kind], spec.frame.full_set
    filled, rows, sets = 0, [], []
    while filled < len(block):
        done, cells = replay(rng.bit_generator, spec, pool, block[filled:])
        if not done:
            draw(rng, spec, pool, block[filled])
            done, cells = 1, np.nonzero(block[filled : filled + 1, :full])
        rows.append(cells[0] + filled)
        sets.append(cells[1])
        filled += done
    return np.concatenate(rows), np.concatenate(sets)


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
    draw = _DRAWERS[spec.kind]
    if spec.kind in _REPLAYS and spec.min_singleton_mass is None and len(pool) > 1:
        return _mass_rows(spec.frame, block, cells=_draw_replayed(rng, spec, pool, block, draw))
    singletons = [1 << i for i in range(spec.frame.n)]
    for arr in block:
        for _ in range(_MAX_REJECTIONS):
            draw(rng, spec, pool, arr)
            if spec.min_singleton_mass is None or arr[singletons].max() > spec.min_singleton_mass:
                break
            arr[:] = 0.0
        else:
            raise ParameterError(
                f"rejection sampling failed {_MAX_REJECTIONS} times; no draw from this"
                " recipe satisfies the singleton-mass threshold"
            )
    return _mass_rows(spec.frame, block)
