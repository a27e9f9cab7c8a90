"""Combination rules for pooling evidence from multiple sources.

Classical operators (conjunctive, Dempster, disjunctive, Dubois-Prade,
PCR6, cautious, average) plus the grouped rules ``lns`` and ``lnsa`` that
stay well-behaved when the number of sources is very large: simple-support
inputs are clustered by focal element, pooled inside each group, discounted
by the group's share of the sources, and only then combined globally, so
the cost grows linearly with the source count and the empty set never
absorbs everything.

Every rule is an accumulator, a :class:`_Fusion`, that holds the state of
G independent fusions as ``(G, 2**n)`` arrays.  One driver, :func:`_fuse`,
reads the inputs as G segments of K consecutive rows, passes them chunk by
chunk to the accumulator's ``add(chunk, segment)``, and calls its
``finish()``.  ``segment`` gives the segment of each row of the chunk, or
is one int when the chunk is one segment.  Sums and products are scattered
to ``segment * 2**n + subset``, in input order, so each segment's result
is bit for bit that of a call on its rows alone.  A segment that fails
records the error such a call would raise, and the others go on.
:func:`combine` is the case G = 1; EkNN leave-one-out fuses a chunk of
samples, one segment each, in one call.

The cautious and grouped rules pool canonical weights as logs, so an input
whose weights lie beyond the float range is pooled as any other.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import core
from .core import (
    MASS_TOL,
    SEPARABILITY_TOL,
    FrameOfDiscernment,
    MassFunction,
    _check_rows,
)
from .errors import (
    ComplexityGuardError,
    DecompositionError,
    EncodingError,
    InvalidWeightVectorError,
    MassCombError,
    NotSeparableError,
    ParameterError,
    TotalConflictError,
)

if TYPE_CHECKING:
    from . import expansion

#: Weights closer to 1 than this are vacuous components and are dropped.
_VACUOUS_WEIGHT_TOL = 1e-12

#: Conflict within this margin of 1 saturates Dempster normalisation.
_SATURATION_TOL = 1e-12

_CHUNK_ROWS = 16384

#: Picks (tuples x sources) per block of the dp/pcr6 enumeration: a block
#: holds at most this many // K tuples, and pcr6's arrays for the picks of
#: its conflicting tuples at most this many cells.  On a 2-core Xeon at
#: 2.0 GHz, against 2**15: dp and pcr6 leave-one-out on the eknn-sweep data
#: (50 points, K = 2..10) took 1.27 times as long with 2**14 and 0.89 times
#: with 2**16; one call on 12 sources of 4 and 2 focal sets 1.55 and 0.61
#: times (dp), 1.21 and 0.95 times (pcr6).  A pass of eknn-sweep peaked at
#: 0.54, 0.59 and 0.73 MB under tracemalloc with 2**14, 2**15 and 2**16
#: (1.27 MB with the per-pick digit enumeration before prefix expansion).
#: 2**16 would be faster but peaks 24% higher; memory is the tighter bound.
_ENUM_CELLS = 1 << 15


@dataclass(frozen=True)
class RuleConfig:
    """Rule selector plus parameters.

    ``eta`` sharpens the precision-aware discounting of the grouped rules
    (0 disables it).  ``enumeration_guard`` caps the number of focal
    tuples the Dubois-Prade and PCR6 enumerations may visit.
    ``eta`` must be finite.
    """

    rule: str = "conjunctive"
    eta: float = 1.0
    enumeration_guard: int = 10_000_000

    def __post_init__(self):
        if self.rule not in RULE_NAMES:
            raise ParameterError(f"unknown rule {self.rule!r}; choose one of {RULE_NAMES}")
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ParameterError(f"eta must be finite and non-negative, got {self.eta!r}")
        if self.enumeration_guard < 1:
            raise ParameterError("enumeration guard must be at least 1")


@dataclass(frozen=True)
class GroupSummary:
    """One cluster of simple supports sharing a focal element.

    ``inner_weight`` is the pooled weight of the group (None under the
    approximate rule, which never computes it); ``alpha`` the reliability
    share used to discount the group.
    """

    focal: int
    count: int
    inner_weight: float | None
    alpha: float


@dataclass(frozen=True)
class FusionResult:
    """Fused assignment plus the global conflict it carries.

    ``groups`` is populated by the grouped rules only; ``step_seconds``
    records per-stage wall-clock time for those rules.
    """

    mass: MassFunction
    groups: tuple[GroupSummary, ...] | None = None
    step_seconds: dict[str, float] | None = None

    @property
    def conflict(self) -> float:
        """The fused mass on the empty set."""
        return self.mass.conflict


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class _Batch:
    """The inputs of one call as runs of block rows, in input order: ``runs``
    holds ``(block, start, stop)`` for the rows ``start:stop`` of ``block``.

    Rows built on their own, or unpickled, belong to no block; one call
    stacks them once into a fresh block.  Every rule reads its inputs from
    the runs, chunk by chunk: the product-form and grouped rules from each
    block's cached columns, the others from views of the blocks.
    """

    __slots__ = ("frame", "runs", "size")

    def __init__(self, frame, runs, size):
        self.frame, self.runs, self.size = frame, runs, size

    @classmethod
    def of(cls, block: core._Block) -> "_Batch":
        """Every row of ``block``, in order."""
        return cls(block.frame, [(block, 0, len(block.values))], len(block.values))

    def __len__(self) -> int:
        return self.size

    def chunks(self, size: int | None = None):
        """The rows in batches of ``size`` (``_CHUNK_ROWS`` by default),
        runs cut at the bounds."""
        size = size or _CHUNK_ROWS
        if self.size <= size:
            yield self
            return
        runs, room = [], size
        for block, start, stop in self.runs:
            while stop - start >= room:
                runs.append((block, start, start + room))
                yield _Batch(self.frame, runs, size)
                start += room
                runs, room = [], size
            if start < stop:
                runs.append((block, start, stop))
                room -= stop - start
        if runs:
            yield _Batch(self.frame, runs, size - room)

    def values(self, fresh: bool = False) -> np.ndarray:
        """The rows' ``(len, 2**n)`` values: a read-only view of one run,
        or else (or if ``fresh``) a new array."""
        if len(self.runs) > 1:
            return np.concatenate([block.values[a:b] for block, a, b in self.runs])
        ((block, a, b),) = self.runs
        return block.values[a:b].copy() if fresh else block.values[a:b]


def _check_frames(ms: Iterable[MassFunction], frame) -> None:
    """Refuse ``ms`` unless every one has ``frame``."""
    if any(m.frame is not frame and m.frame != frame for m in ms):
        raise EncodingError("all mass functions must share one frame")


def _batch(ms: Sequence[MassFunction] | _Batch) -> _Batch:
    """Resolve the inputs into runs of block rows.

    Reads one attribute per row.  A list that is runs of block rows each
    reaching the end of its block or of the list, as producers returned
    them or head and tail slices of that, is walked run by run, one list
    compare per run; otherwise runs are found by comparing the keys in
    numpy, and each run's block is read from its first row.  Either way,
    short runs are stacked (see ``_RUN_MIN_ROWS``).  A :class:`_Batch`
    comes back as it is.
    """
    if isinstance(ms, _Batch):
        return ms
    if not ms:
        raise ParameterError("need at least one mass function to combine")
    keys = [m._key for m in ms]
    frame, runs, i = ms[0].frame, [], 0
    while i < len(keys):
        block = ms[i]._block
        if block is None or not (block.frame is frame or block.frame == frame):
            break
        start = keys[i] - block.key
        stop = min(len(block.keys), start + len(keys) - i)
        last = i + stop - start - 1
        # the rest of the block, or of the list: its last key, then all in one C-level compare
        if keys[last] != block.keys[stop - 1] or keys[i : last + 1] != block.keys[start:stop]:
            break
        runs.append((block, start, stop))
        i = last + 1
    else:
        if len(runs) == 1 or len(keys) >= _RUN_MIN_ROWS * len(runs):
            return _Batch(frame, runs, len(keys))
    keys = np.fromiter(keys, np.int64, len(keys))
    # every row of no block (key -1) heads a run here, and every other row
    # shares the block of the row before it
    heads = np.flatnonzero(np.diff(keys, prepend=keys[0] - 2) != 1).tolist()
    _check_frames((ms[i] for i in heads), frame)
    loose = np.flatnonzero(keys < 0)
    if loose.size:
        fresh = core._Block(frame, np.array([ms[i].values for i in loose.tolist()]))
        keys[loose] = fresh.key + np.arange(len(loose))
        heads = np.flatnonzero(np.diff(keys, prepend=keys[0] - 2) != 1).tolist()
    if len(heads) > 1 and len(keys) < _RUN_MIN_ROWS * len(heads):
        # short runs: one stack and one split cost less than a slice per run
        fresh = core._Block(frame, np.array([m.values for m in ms]))
        return _Batch(frame, [(fresh, 0, len(keys))], len(keys))
    runs = []
    for i, j in zip(heads, heads[1:] + [len(keys)]):
        block = ms[i]._block or fresh
        start = int(keys[i]) - block.key
        runs.append((block, start, start + j - i))
    return _Batch(frame, runs, len(keys))


#: A list whose runs average fewer rows than this is stacked into one fresh
#: block.  On a 2-core Xeon at 2.0 GHz, with 8192 ssf rows at n = 8 and every
#: block split already, ``lns`` took 21.4 ms through runs of 32 rows and
#: 11.0 ms stacked; runs of 64 broke even, and a first call also splits
#: every block.
_RUN_MIN_ROWS = 128


def _split_rows(rows: Sequence[MassFunction] | _Batch):
    """Split one chunk of inputs by kind: vacuous, simple support, chain, other.

    Returns ``(vacuous, focal, weight, simple, rest)``: the number of fully
    ignorant rows; the canonical (focal, weight) components of the
    simple-support rows (mass on one subset besides the frame), then of the
    chain rows, as two columns whose first ``simple`` entries come from
    simple supports; and the other rows as a fresh dense ``(rows, 2**n)``
    array the caller may overwrite.  Each kind keeps input order.  A run's
    entries are slices of its block's columns (see :class:`core._Columns`),
    made on first use.
    """
    vacuous = 0
    focal, weight, chain_focal, chain_weight, dense = [], [], [], [], []
    for block, start, stop in _batch(rows).runs:
        cols = block.columns()
        (v0, s0, c0, d0), (v1, s1, c1, d1) = cols.at[[start, stop]].tolist()
        vacuous += v1 - v0
        focal.append(cols.focal[s0:s1])
        weight.append(cols.weight[s0:s1])
        chain_focal.append(cols.chain_focal[c0:c1])
        chain_weight.append(cols.chain_weight[c0:c1])
        dense.append(block.values[cols.dense[d0:d1]])
    simple = sum(map(len, focal))
    focal, weight = np.concatenate(focal + chain_focal), np.concatenate(weight + chain_weight)
    # one run's dense rows are a fresh array already
    return vacuous, focal, weight, simple, dense[0] if len(dense) == 1 else np.concatenate(dense)


def _split(chunk: _Batch, segment, dense: bool):
    """:func:`_split_rows` of one chunk, or all its rows as dense rows if
    ``dense``, with the segments of the parts.

    Returns ``(vacuous, focal, weight, simple, rest, at, rest_at)``:
    ``vacuous`` holds the segment of each vacuous row, and ``at`` and
    ``rest_at`` those of the column entries and the dense rows, or are
    ``segment`` itself when that is one int.
    """
    if dense:
        rest = chunk.values(fresh=True)
        return core._NO_FOCALS, core._NO_FOCALS, core._NO_WEIGHTS, 0, rest, segment, segment
    vac, focal, weight, simple, rest = _split_rows(chunk)
    if isinstance(segment, int):
        return np.full(vac, segment), focal, weight, simple, rest, segment, segment
    # the vacuous rows, simple supports, chain components and dense rows of each row
    kinds = np.concatenate([np.diff(block.columns().at[a : b + 1], axis=0) for block, a, b in chunk.runs])
    at = np.concatenate([np.repeat(segment, kinds[:, 1]), np.repeat(segment, kinds[:, 2])])
    return (
        np.repeat(segment, kinds[:, 0]), focal, weight, simple, rest, at, np.repeat(segment, kinds[:, 3])
    )


#: A chunk whose dense lattice passes would update fewer cells than this
#: (rows * n * 2**n) is pooled as dense rows: splitting off its simple
#: supports costs more than it saves.  For 2-10 simple supports freshly
#: made, as EkNN neighbours come, on a 2-core Xeon at 2.0 GHz, the column
#: path took 76-118% longer for the conjunctive rule at n = 2 and 4 (30-147%
#: at n = 8) and 20-62% longer for the cautious rule at n = 2 and 4; only
#: cautious at n = 8 gained (14-33%).  100 supports at n = 2 were still
#: 78% (conjunctive) and 24% (cautious) slower through the columns.  The
#: rows counted are those of one segment.
_COLUMN_MIN_CELLS = 1 << 15


def _pool(ufunc: np.ufunc, state: np.ndarray, rows: np.ndarray, segment) -> None:
    """``state[g] = ufunc(state[g], r)`` for each segment ``g`` with rows,
    ``r`` their reduction row by row in input order, as
    ``ufunc.reduce(rows, axis=0)`` makes it."""
    if isinstance(segment, int):
        state[segment] = ufunc(state[segment], ufunc.reduce(rows, axis=0, dtype=state.dtype))
    elif ufunc is np.add:
        # add.reduceat may sum pairwise; add.at adds row by row
        total = np.zeros_like(state)
        np.add.at(total, segment, rows)
        state += total
    else:
        starts = np.flatnonzero(np.diff(segment, prepend=-1))
        touched = segment[starts]
        state[touched] = ufunc(state[touched], ufunc.reduceat(rows, starts, axis=0))


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each run of ``counts[g]`` consecutive ``values``, bit for
    bit as ``.sum()`` of that run gives it."""
    if len(counts) == 1:
        return values.sum(keepdims=True)
    if counts.max() < 8:
        # numpy adds fewer than 8 terms one by one, so zeros after them change nothing
        first = np.cumsum(counts) - counts
        rows = np.repeat(np.arange(len(counts)), counts)
        padded = np.zeros((len(counts), 7))
        padded[rows, np.arange(len(values)) - first[rows]] = values
        return padded.sum(axis=1)
    ends = np.cumsum(counts).tolist()
    return np.array([values[e - c : e].sum() for e, c in zip(ends, counts.tolist())])


class _Fusion:
    """G independent fusions of one rule, fed chunk by chunk by :func:`_fuse`.

    ``add(chunk, segment)`` pools the rows of one chunk into the state of
    their segments; ``finish()`` turns the state into ``masses``, one fused
    assignment per segment, each validated as :class:`MassFunction` would.
    ``errors`` maps each segment that failed to its first error, and its
    row of ``masses`` is then a vacuous placeholder.  ``resolve`` is the
    time taken to resolve the inputs, which the grouped rules report.
    """

    def __init__(self, frame: FrameOfDiscernment, groups: int, k: int, cfg: RuleConfig, resolve: float):
        self.frame, self.k, self.cfg = frame, k, cfg
        self.size = frame.powerset_size
        self.every = np.arange(groups)
        self.errors: dict[int, MassCombError] = {}
        self.masses = None

    def fail(self, flags: np.ndarray, error, segment=None) -> None:
        """Fail each segment with a flagged entry and no error yet, with
        ``error(i)``, ``i`` its first flagged entry.  ``segment`` gives each
        entry's segment, or one for all; by default entry ``g`` is segment ``g``."""
        hits = flags.nonzero()[0]
        # not only a shortcut: dense rows leave no column entries, yet
        # _split gives their segments per row as the entries' segments
        if not hits.size:
            return
        segment = self.every if segment is None else segment
        segs, first = np.unique(np.broadcast_to(segment, flags.shape)[hits], return_index=True)
        for g, i in zip(segs.tolist(), hits[first].tolist()):
            if g not in self.errors:
                self.errors[g] = error(i)

    def dense(self, chunk: _Batch, segment) -> bool:
        """Whether the chunk's rows pool as dense rows (see ``_COLUMN_MIN_CELLS``)."""
        rows = len(chunk) if isinstance(segment, int) else self.k
        return rows * self.frame.n * self.size < _COLUMN_MIN_CELLS

    def bins(self, cells: np.ndarray, weights=None) -> np.ndarray:
        """The ``(G, 2**n)`` sums of ``weights`` (or counts) of the column
        entries at ``cells`` (``segment * 2**n + focal``), each bin in entry
        order."""
        flat = np.bincount(cells, weights, minlength=self.every.size * self.size)
        return flat.reshape(-1, self.size)

    def settle(self, masses: np.ndarray, wrap=None) -> np.ndarray:
        """Validate and renormalise each row in place as :class:`MassFunction`
        does.  A row that fails fails its segment with the error of its own
        check, ``row`` its segment, passed through ``wrap`` if given; failed
        rows become vacuous."""
        vacuous = np.zeros(self.size)
        vacuous[-1] = 1.0
        masses[list(self.errors)] = vacuous
        done = 0
        while True:
            try:
                _check_rows(self.frame, masses[done:], MASS_TOL)
                return masses
            except ParameterError as exc:
                # the rows before the first that fails pass on their own
                g = done + exc.row
                _check_rows(self.frame, masses[done:g], MASS_TOL)
                exc.row, masses[g], done = g, vacuous, g + 1
                self.errors[g] = wrap(exc) if wrap else exc

    def result(self, g: int = 0) -> FusionResult:
        """Segment ``g``'s fusion, or its error raised."""
        if g in self.errors:
            # a copy: the error kept here is not reachable from its own traceback
            raise copy.copy(self.errors[g])
        return FusionResult(core._trusted(self.frame, self.masses[g]))


def _segments(rows: _Batch, k: int):
    """Yield ``(chunk, segment)`` over the segments of ``k`` consecutive rows.

    Each segment is cut as a call on its rows alone would cut it.  Whole
    segments share chunks of at most ``_CHUNK_ROWS`` rows, and ``segment``
    gives each row's segment; a longer segment, or the only one, comes
    alone in chunks of ``_CHUNK_ROWS``, and ``segment`` is its index.
    """
    if k > _CHUNK_ROWS or k == len(rows):
        for g, part in enumerate(rows.chunks(k)):
            for chunk in part.chunks():
                yield chunk, g
        return
    first = 0
    for chunk in rows.chunks(_CHUNK_ROWS // k * k):
        count = len(chunk) // k
        yield chunk, np.repeat(np.arange(first, first + count), k)
        first += count


def _fuse(kind: type[_Fusion], ms, cfg: RuleConfig, k: int | None = None) -> _Fusion:
    """Fuse each segment of ``k`` consecutive rows of ``ms`` on its own with the
    rule ``kind`` (all rows as one segment by default); see the module docstring."""
    # failed segments carry on with meaningless numbers; checks, not warnings, find them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        started = time.perf_counter()
        rows = _batch(ms)
        k = k or len(rows)
        fusion = kind(rows.frame, len(rows) // k, k, cfg, time.perf_counter() - started)
        for chunk, segment in _segments(rows, k):
            fusion.add(chunk, segment)
        fusion.finish()
    return fusion


# ---------------------------------------------------------------------------
# Product-form rules
# ---------------------------------------------------------------------------


class _Conjunctive(_Fusion):
    """Commonalities multiply: a log-weight sum for the column entries and
    a commonality product for the dense rows."""

    def __init__(self, *args):
        super().__init__(*args)
        self.q = np.ones((self.every.size, self.size))
        self.logw = None

    def add(self, chunk, segment):
        _, focal, weight, _, rest, at, rest_at = _split(chunk, segment, self.dense(chunk, segment))
        if focal.size:
            if self.logw is None:
                self.logw = np.zeros_like(self.q)
            # a weight of 0 logs to -inf and gives exact zeros
            self.logw += self.bins(at * self.size + focal, np.log(weight))
        if len(rest):
            core._zeta_superset(rest, self.frame.n)
            _pool(np.multiply, self.q, rest, rest_at)

    def finish(self):
        if self.logw is not None:
            self.q *= core._conjoined_commonality(self.logw, self.frame.n)
        core._moebius_superset(self.q, self.frame.n)
        self.masses = self.settle(self.q)


class _Dempster(_Conjunctive):
    def finish(self):
        super().finish()
        arr = self.masses
        kappa = arr[:, 0].copy()
        self.fail(
            kappa >= 1.0 - _SATURATION_TOL,
            lambda g: TotalConflictError(
                f"conjunctive conflict {float(kappa[g])} leaves nothing to renormalise"
            ),
        )
        arr[:, 0] = 0.0
        arr /= arr.sum(axis=1, keepdims=True)
        self.masses = self.settle(arr)


class _Disjunctive(_Fusion):
    def __init__(self, *args):
        super().__init__(*args)
        self.arr = np.ones((self.every.size, self.size))

    def add(self, chunk, segment):
        v = chunk.values(fresh=True)
        core._zeta_subset(v, self.frame.n)
        _pool(np.multiply, self.arr, v, segment)

    def finish(self):
        core._moebius_subset(self.arr, self.frame.n)
        self.masses = self.settle(self.arr)


class _Average(_Fusion):
    """Sums each subset's masses row by row in input order, then divides.

    numpy sums a block's axis 0 row by row, and ``np.bincount`` adds its
    entries in order, so a run of vacuous rows, simple supports and chains
    is summed from its block's columns: each row's cells below the frame
    and its frame cell, behind the running total.  Skipping a zero cell
    adds ``+ 0.0`` to no sum, exact as validated masses are never ``-0.0``.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.acc = np.zeros((self.every.size, self.size))

    def add(self, chunk, segment):
        if not isinstance(segment, int):
            _pool(np.add, self.acc, chunk.values(), segment)
            return
        total = None
        for block, a, b in chunk.runs:
            v = block.values
            # a block whose cells are unknown, or with dense rows, is summed
            # dense: that one pass is what a scan for its cells would cost
            cols = block.columns() if block._columns is not None or block._cells is not None else None
            if cols is not None and not len(cols.dense):
                (s0, c0), (s1, c1) = cols.at[[a, b], 1:3].tolist()
                nonzero = cols._nonzero[a:b]
                rows = np.repeat(np.arange(a, b), nonzero)  # row-major
                sets = np.empty(len(rows), dtype=np.intp)
                simple = np.repeat(nonzero == 1, nonzero)
                sets[simple], sets[~simple] = cols.focal[s0:s1], cols.chain_focal[c0:c1]
                cells = np.concatenate([np.arange(self.size), sets, np.full(b - a, self.size - 1)])
                start = np.zeros(self.size) if total is None else total
                total = np.bincount(cells, np.concatenate([start, v[rows, sets], v[a:b, -1]]))
            elif total is None:
                total = v[a:b].sum(axis=0)
            else:
                # behind the running total, in the order of the whole chunk's sum
                total = np.add.reduce(np.concatenate([total[np.newaxis], v[a:b]]))
        self.acc[segment] += total

    def finish(self):
        self.masses = self.settle(self.acc / self.k)


def combine_conjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Unnormalised conjunctive pooling: commonalities multiply.

    Associative and commutative; conflict accumulates on the empty set.
    Assumes every source is reliable.  Simple supports are pooled as
    (focal, weight) columns, the other inputs as dense commonality rows.
    """
    return _fuse(_Conjunctive, ms, cfg or RuleConfig()).result()


def combine_disjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Disjunctive pooling: implicabilities multiply.

    Assumes at least one source is reliable; ignorance absorbs.
    """
    return _fuse(_Disjunctive, ms, cfg or RuleConfig()).result()


def combine_dempster(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Conjunctive pooling followed by conflict renormalisation.

    Raises :class:`TotalConflictError` once the conflict is within machine
    precision of 1, rather than normalising noise.  Divides by the sum of
    the non-empty masses, not by ``1 - conflict``, which is mostly
    rounding error once the conflict nears 1.
    """
    return _fuse(_Dempster, ms, cfg or RuleConfig()).result()


def combine_average(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Elementwise arithmetic mean of the assignments."""
    return _fuse(_Average, ms, cfg or RuleConfig()).result()


# ---------------------------------------------------------------------------
# Enumeration rules (no lattice shortcut exists: partial conflicts matter)
# ---------------------------------------------------------------------------


class _Enumeration(_Fusion):
    """Keeps the rows of every segment within the guard and counts the
    focal tuples of each as a float product of its focal counts.  The
    product is exact while below 2**53 and never falls below 2**53 once
    past it, so the guard decides exactly for any guard below 2**53.
    A rule gives the values its tuples carry (``fields``, see
    :func:`expansion.expand`) and adds each block of tuples to its result
    (``scatter``)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.kept = []
        self.tuples = np.ones(self.every.size)
        # a guard past the float range compares as 2**1023
        self.guard = float(min(self.cfg.enumeration_guard, 2**1023))

    def check(self, values, segment):
        """The rule's checks on one chunk's rows, before the guard."""

    def add(self, chunk, segment):
        values = chunk.values()
        self.check(values, segment)
        if self.k == 1:
            self.kept.append((values, segment, None))
            return
        if isinstance(segment, int) and self.tuples[segment] > self.guard:
            return  # past the guard already: keep nothing more
        sizes = np.count_nonzero(values, axis=1)
        if isinstance(segment, int):
            self.tuples[segment] *= sizes.prod(dtype=float)
        else:
            # the chunk holds whole segments of k rows
            self.tuples[segment[:: self.k]] *= sizes.reshape(-1, self.k).prod(axis=1, dtype=float)
        self.kept.append((values, segment, sizes))

    def finish(self):
        out = np.zeros((self.every.size, self.size))
        for block in self.blocks():
            self.scatter(block, out)
        self.masses = self.settle(out)

    def blocks(self):
        """Fail the segments past the guard, then yield the focal-tuple
        blocks of every segment that has not failed (see
        :func:`expansion.expand`), with their segments."""
        # imported here, not at the top: with no bytecode written, every
        # process that imports masscomb would compile it (2.5 ms, 0.8 MB
        # peak), most of them never running dp or pcr6
        from . import expansion

        if self.k > 1:
            self.fail(
                self.tuples > self.guard,
                lambda g: ComplexityGuardError(
                    f"more than {self.cfg.enumeration_guard} focal tuples, beyond the"
                    " enumeration guard; the grouped 'lns' rule handles large source counts"
                ),
            )
        if len(self.errors) == self.every.size:
            return
        if len(self.kept) == 1:
            ((values, _, sizes),) = self.kept
        else:
            values = np.concatenate([v for v, _, _ in self.kept])
            sizes = np.concatenate([s for _, _, s in self.kept])
        ids = None
        if self.errors:
            live = np.ones(self.every.size, dtype=bool)
            live[list(self.errors)] = False
            owner = np.concatenate([np.broadcast_to(g, len(v)) for v, g, _ in self.kept])
            values, sizes = values[live[owner]], sizes[live[owner]]
            ids = np.flatnonzero(live)
        for block in expansion.expand(values, sizes, self.k, self.fields, _ENUM_CELLS):
            if ids is not None:
                block.segment = ids[block.segment]
            yield block


class _DuboisPrade(_Enumeration):
    def finish(self):
        if self.k == 1:
            # one source is its own result
            self.masses = np.concatenate([v for v, _, _ in self.kept])
            return
        super().finish()

    def fields(self, subsets, masses):
        # one OR carries the union of the picks other than the frame (n
        # bits), a bit for a pick of the frame, and the complement of the
        # intersection (n bits)
        from . import expansion

        n, full = self.frame.n, self.frame.full_set
        bits = subsets.astype(expansion.bits_dtype(2 * n + 1))
        bits[bits == full] = 1 << n
        bits |= (full ^ subsets).astype(bits.dtype) << (n + 1)
        return [(np.multiply, masses), (np.bitwise_or, bits)]

    def scatter(self, block: expansion.Tuples, out: np.ndarray) -> None:
        """Add each tuple of ``block`` to ``out``; its temporaries go with it."""
        n, full = self.frame.n, self.frame.full_set
        p, bits = block.values
        inter = (bits >> (n + 1)) ^ full
        committed = bits & full
        # no common pick and no committed one: the frame if picked, else the empty set
        fallback = (bits >> n & 1) * full
        target = np.where(inter, inter, np.where(committed, committed, fallback))
        np.add.at(out.reshape(-1), block.cells(target, self.size), p)


class _Pcr6(_Enumeration):
    def __init__(self, *args):
        super().__init__(*args)
        if self.k < 2:
            self.fail(np.ones(self.every.size, dtype=bool),
                      lambda g: ParameterError("pcr6 needs at least two sources"))
        self.seen = np.zeros(self.every.size, dtype=np.intp)

    def check(self, values, segment):
        conflict = values[:, 0]
        if isinstance(segment, int):
            source = self.seen[segment] + np.arange(len(values))
            self.seen[segment] += len(values)
        else:
            # the chunk holds whole segments of k rows
            source = np.arange(len(values)) % self.k
        self.fail(
            conflict > 0.0,
            lambda i: ParameterError(
                "pcr6 needs inputs with no mass on the empty set;"
                f" source {int(source[i])} has {float(conflict[i])!r}"
            ),
            segment,
        )

    def fields(self, subsets, masses):
        return [(np.multiply, masses), (np.bitwise_and, subsets)]

    def scatter(self, block: expansion.Tuples, out: np.ndarray) -> None:
        """Add each tuple of ``block`` to ``out``; its temporaries go with it."""
        p, inter = block.values
        # an agreeing tuple puts p on its intersection
        cells = block.cells(inter, self.size)
        clash = inter == 0
        at = clash.nonzero()[0]
        if not at.size:
            np.add.at(out.reshape(-1), cells, p)
            return
        # a conflicting tuple gives each pick its share, in source order
        subsets, share = block.picks(at)
        # the sum of the picks' masses, source by source as the tuple loop adds them
        total = share[:, 0].copy()
        for j in range(1, self.k):
            total += share[:, j]
        share *= p[at, np.newaxis]
        share /= total[:, np.newaxis]
        # the cell of a conflicting tuple is its row's offset
        targets = subsets + cells[at, np.newaxis]
        if len(at) < len(p):
            # one entry per agreeing tuple and k per conflicting one, in tuple order
            mine = np.repeat(clash, np.where(clash, self.k, 1))
            agree, lone = ~clash, ~mine
            entries = np.empty(len(mine), dtype=np.intp)
            entries[mine], entries[lone] = targets.reshape(-1), cells[agree]
            targets = entries
            weights = np.empty(len(mine))
            weights[mine], weights[lone] = share.reshape(-1), p[agree]
            share = weights
        np.add.at(out.reshape(-1), targets.reshape(-1), share.reshape(-1))


def combine_dp(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Mixed conjunctive/disjunctive pooling: a conflicting tuple's mass moves
    to the union of its committed picks.

    Picks of the whole frame state no opinion, never cause the conflict,
    and are left out of the union (with two sources this changes nothing:
    a conflicting pair cannot involve the whole frame).  Commutative.
    Bit-identical to a tuple-by-tuple loop in ``itertools.product`` order.
    """
    return _fuse(_DuboisPrade, ms, cfg or RuleConfig()).result()


def combine_pcr6(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """PCR6 pooling: each fully conflicting tuple is split back among its
    contributors in proportion to the mass they put in.

    Needs at least two sources, none with mass on the empty set (its share
    of a conflict would have nowhere to go); raises :class:`ParameterError`
    otherwise.  The empty set always ends up with zero.  Bit-identical to a
    tuple-by-tuple loop in ``itertools.product`` order.
    """
    return _fuse(_Pcr6, ms, cfg or RuleConfig()).result()


# ---------------------------------------------------------------------------
# Cautious rule
# ---------------------------------------------------------------------------


class _Cautious(_Fusion):
    """The subset-wise minimum of the canonical log weights, recombined."""

    def __init__(self, *args):
        super().__init__(*args)
        self.minw = np.full((self.every.size, self.size), np.inf)

    def add(self, chunk, segment):
        vacuous, focal, weight, _, rest, at, rest_at = _split(chunk, segment, self.dense(chunk, segment))
        def dogmatic(i):
            return DecompositionError("cautious pooling requires non-dogmatic inputs")

        self.fail(weight <= 0.0, dogmatic, at)
        self.fail(rest[:, self.frame.full_set] <= 0.0, dogmatic, rest_at)
        if vacuous.size or focal.size:
            if not isinstance(at, int):
                touched = np.unique(np.concatenate([vacuous, at]))
            else:
                touched = at
            # a vacuous row or simple support has weight 1 (log 0) elsewhere
            self.minw[touched] = np.minimum(self.minw[touched], 0.0)
            np.minimum.at(self.minw.reshape(-1), at * self.size + focal, np.log(weight))
        if len(rest):
            _pool(np.minimum, self.minw, core._log_weights(rest, self.frame), rest_at)

    def finish(self):
        # recompose(WeightVector(frame, exp(minw))) for every segment
        arr = core._recompose_rows(self.frame, self.minw, self.fail)
        self.masses = self.settle(arr, wrap=lambda exc: InvalidWeightVectorError(str(exc)))


def combine_cautious(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Cautious pooling for non-distinct sources: take the subset-wise
    minimum of the canonical-decomposition weights and recombine.

    Idempotent; requires every input to be non-dogmatic.  A simple support
    ``A^w`` has weight ``w`` on ``A`` and 1 elsewhere, so simple supports
    enter as (focal, weight) columns; only the other inputs are decomposed.
    """
    return _fuse(_Cautious, ms, cfg or RuleConfig()).result()


# ---------------------------------------------------------------------------
# Grouped rules for large numbers of sources
# ---------------------------------------------------------------------------


class _Grouped(_Fusion):
    """Every input broken into simple-support components, pooled per subset:
    ``counts`` of components, the sum ``logw`` of their log weights (the
    exact rule only) and the ``vacuous`` inputs, then groups discounted by
    their shares and combined conjunctively."""

    approximate = False

    def __init__(self, frame, groups, k, cfg, resolve):
        super().__init__(frame, groups, k, cfg, resolve)
        self.counts = np.zeros((groups, self.size), dtype=np.int64)
        self.logw = np.zeros((groups, self.size))
        self.vacuous = np.zeros(groups, dtype=np.int64)
        self.seconds = {"decompose": resolve, "inner_combine": 0.0}

    def add(self, chunk, segment):
        frame, full = self.frame, self.frame.full_set
        t0 = time.perf_counter()
        vacuous, focal, weight, simple, rest, at, rest_at = _split(chunk, segment, dense=False)
        if simple < len(weight):
            # chain components vacuous to rounding go, as they do from the lattice
            keep = weight < 1.0 - _VACUOUS_WEIGHT_TOL
            keep[:simple] = True
            focal, weight = focal[keep], weight[keep]
            if not isinstance(at, int):
                at = at[keep]
        def empty(i):
            return ParameterError("a component focused on the empty set cannot be grouped")

        self.fail(focal == 0, empty, at)
        comp_mask = logw = None
        if len(rest):
            self.fail(
                rest[:, full] <= 0.0,
                lambda i: DecompositionError(
                    "dogmatic non-simple inputs cannot be decomposed for grouping"
                ),
                rest_at,
            )
            logw = core._log_weights(rest, frame)
            # inverse components (weights above 1), then empty-set components
            over = logw > math.log1p(SEPARABILITY_TOL)

            def inverse(i):
                col = int(np.argmax(over[i]))
                return NotSeparableError(
                    f"input is not separable: weight {float(np.exp(logw[i, col])):.6g}"
                    f" above 1 on subset {frame.format_subset(col)}",
                    subset=col,
                )

            self.fail(over.any(axis=1), inverse, rest_at)
            comp_mask = logw < math.log1p(-_VACUOUS_WEIGHT_TOL)
            self.fail(comp_mask[:, 0], empty, rest_at)
        self.seconds["decompose"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        self.vacuous += np.bincount(vacuous, minlength=self.every.size)
        # a weight of 0 logs to -inf, so its group's product comes out exactly 0
        cells = at * self.size + focal
        self.counts += self.bins(cells)
        if not self.approximate:
            self.logw += self.bins(cells, np.log(weight))
        if comp_mask is not None:
            _pool(np.add, self.counts, comp_mask, rest_at)
            if not self.approximate:
                _pool(np.add, self.logw, np.where(comp_mask, logw, 0.0), rest_at)
        self.seconds["inner_combine"] += time.perf_counter() - t0

    def finish(self):
        frame, cfg = self.frame, self.cfg
        t0 = time.perf_counter()
        self.pooled = None
        if not self.approximate:
            self.pooled = np.exp(self.logw)
            self.pooled[self.counts == 0] = 1.0
        # the groups, segment by segment, subsets ascending; each group's
        # reliability share is its count weighted by precision,
        # beta(A)**eta * count with beta(A) = n / |A|, over the segment's sum
        cells = np.flatnonzero(self.counts)
        seg, sub = cells >> frame.n, cells & frame.full_set
        number = np.bincount(seg, minlength=self.every.size)
        scaled = (frame.n / frame.cardinalities[sub]) ** cfg.eta * self.counts.reshape(-1)[cells]
        total = _segment_sums(scaled, number)
        self.fail(~np.isfinite(total), lambda g: ParameterError(
            f"eta {cfg.eta!r} is too large for {frame.n} hypotheses:"
            " (n / |A|)**eta * count overflows"))
        share = scaled / total[seg]
        self.shares = np.zeros((self.every.size, self.size))
        self.shares.reshape(-1)[cells] = share
        if self.approximate:
            weights = 1.0 - share
        else:
            weights = 1.0 - share + share * self.pooled.reshape(-1)[cells]
        self.seconds["discount"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        # the conjunction of each segment's groups: vacuous without any
        logw = np.zeros((self.every.size, self.size))
        logw.reshape(-1)[cells] = np.log(weights)
        masses = core._conjoined_commonality(logw, frame.n)
        core._moebius_superset(masses, frame.n)
        # a group alone is its simple support, as core._simple_supports builds it
        one = np.flatnonzero(number[seg] == 1)
        if one.size:
            masses[seg[one]] = core._support_block(
                frame, sub[one], weights[one], lambda flags, error: self.fail(flags, error, seg[one])
            )
        self.masses = self.settle(masses)
        self.seconds["global_combine"] = time.perf_counter() - t0

    def result(self, g: int = 0) -> FusionResult:
        res = super().result(g)
        groups = _group_summaries(
            self.counts[g],
            None if self.pooled is None else self.pooled[g],
            self.shares[g],
            int(self.vacuous[g]),
            self.frame,
        )
        return FusionResult(res.mass, tuple(groups), self.seconds)


class _GroupedApproximate(_Grouped):
    approximate = True


def _group_summaries(
    counts: np.ndarray,
    pooled: np.ndarray | None,
    shares: np.ndarray,
    vacuous: int,
    frame: FrameOfDiscernment,
) -> list[GroupSummary]:
    """One summary per group; fully ignorant inputs form the whole-frame group.

    ``pooled`` is None under the approximate rule, which reports no inner weights.
    """
    summaries = [
        GroupSummary(
            int(a),
            int(counts[a]),
            None if pooled is None else float(pooled[a]),
            float(shares[a]),
        )
        for a in np.flatnonzero(counts)
    ]
    if vacuous:
        summaries.append(
            GroupSummary(frame.full_set, vacuous, None if pooled is None else 1.0, 0.0)
        )
    return summaries


def combine_lns(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Grouped conjunctive pooling for large numbers of sources.

    Inputs must be simple supports or separable assignments (these are
    decomposed first).  Components are clustered by focal element, pooled
    conjunctively inside each group, discounted by the group's reliability
    share, and the resulting handful of simple supports is combined
    conjunctively, the mass on the empty set being the conflict.  Fully
    ignorant inputs never change the result.
    """
    return _fuse(_Grouped, ms, cfg or RuleConfig(rule="lns")).result()


def combine_lnsa(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Large-group approximation of :func:`combine_lns`.

    Skips the inner weight products: each group enters the global stage as
    a simple support whose focal mass equals the group's reliability
    share.  Equivalent to the exact rule once groups are large, cheaper to
    evaluate, and different from it when groups are small.
    """
    return _fuse(_GroupedApproximate, ms, cfg or RuleConfig(rule="lnsa")).result()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_FUSIONS: dict[str, type[_Fusion]] = {
    "conjunctive": _Conjunctive,
    "dempster": _Dempster,
    "disjunctive": _Disjunctive,
    "dp": _DuboisPrade,
    "pcr6": _Pcr6,
    "cautious": _Cautious,
    "average": _Average,
    "lns": _Grouped,
    "lnsa": _GroupedApproximate,
}

RULE_NAMES = tuple(_FUSIONS)


def combine(ms: Sequence[MassFunction], cfg: RuleConfig) -> FusionResult:
    """Apply the rule selected by ``cfg.rule``."""
    return _fuse(_FUSIONS[cfg.rule], ms, cfg).result()

