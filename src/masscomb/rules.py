"""Combination rules for pooling evidence from multiple sources.

Classical operators (conjunctive, Dempster, disjunctive, Dubois-Prade,
PCR6, cautious, average) plus the grouped rules ``lns`` and ``lnsa`` that
stay well-behaved when the number of sources is very large: simple-support
inputs are clustered by focal element, pooled inside each group, discounted
by the group's share of the sources, and only then combined globally, so
the cost grows linearly with the source count and the empty set never
absorbs everything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    SEPARABILITY_TOL,
    FrameOfDiscernment,
    MassFunction,
    WeightVector,
    recompose,
)
from .errors import (
    ComplexityGuardError,
    DecompositionError,
    EncodingError,
    NotSeparableError,
    ParameterError,
    TotalConflictError,
)

#: Weights closer to 1 than this are vacuous components and are dropped.
_VACUOUS_WEIGHT_TOL = 1e-12

#: Conflict within this margin of 1 saturates Dempster normalisation.
_SATURATION_TOL = 1e-12

_CHUNK_ROWS = 16384

#: Picks (tuples x sources) per block of the dp/pcr6 enumeration.
_ENUM_CELLS = 1 << 16


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

    def __len__(self) -> int:
        return self.size

    def chunks(self):
        """The rows in batches of ``_CHUNK_ROWS``, runs cut at the bounds."""
        if self.size <= _CHUNK_ROWS:
            yield self
            return
        runs, room = [], _CHUNK_ROWS
        for block, start, stop in self.runs:
            while stop - start >= room:
                runs.append((block, start, start + room))
                yield _Batch(self.frame, runs, _CHUNK_ROWS)
                start += room
                runs, room = [], _CHUNK_ROWS
            if start < stop:
                runs.append((block, start, stop))
                room -= stop - start
        if runs:
            yield _Batch(self.frame, runs, _CHUNK_ROWS - room)

    def values(self, fresh: bool = False) -> np.ndarray:
        """The rows' ``(len, 2**n)`` values: a read-only view of one run,
        or else (or if ``fresh``) a new array."""
        if len(self.runs) > 1:
            return np.concatenate([block.values[a:b] for block, a, b in self.runs])
        ((block, a, b),) = self.runs
        return block.values[a:b].copy() if fresh else block.values[a:b]


def _batch(ms: Sequence[MassFunction] | _Batch) -> _Batch:
    """Resolve the inputs into runs of block rows.

    Reads one attribute per row.  Rows of one block in order, as a producer
    returned them or a slice of that, are one run with no further work;
    otherwise runs are found by comparing the keys in numpy, and each run's
    block is read from its first row, unless the runs are short (see
    ``_RUN_MIN_ROWS``).  A :class:`_Batch` comes back as it is.
    """
    if isinstance(ms, _Batch):
        return ms
    if not ms:
        raise ParameterError("need at least one mass function to combine")
    keys = [m._key for m in ms]
    block = ms[0]._block
    if block is not None:
        start = keys[0] - block.key
        if keys == block.keys[start : start + len(keys)]:
            return _Batch(block.frame, [(block, start, start + len(keys))], len(keys))
    frame = ms[0].frame
    keys = np.array(keys)
    # every row of no block (key -1) heads a run here, and every other row
    # shares the block of the row before it
    heads = np.flatnonzero(np.diff(keys, prepend=keys[0] - 2) != 1).tolist()
    if any(ms[i].frame is not frame and ms[i].frame != frame for i in heads):
        raise EncodingError("all mass functions must share one frame")
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
        if stop - start == len(block.values):
            (v0, s0, c0, d0), (v1, s1, c1, d1) = (0, 0, 0, 0), cols.total
        else:
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


#: A chunk whose dense lattice passes would update fewer cells than this
#: (rows * n * 2**n) is pooled as dense rows: splitting off its simple
#: supports costs more than it saves.  For 2-10 simple supports freshly
#: made, as EkNN neighbours come, on a 2-core Xeon at 2.0 GHz, the column
#: path took 76-118% longer for the conjunctive rule at n = 2 and 4 (30-147%
#: at n = 8) and 20-62% longer for the cautious rule at n = 2 and 4; only
#: cautious at n = 8 gained (14-33%).  100 supports at n = 2 were still
#: 78% (conjunctive) and 24% (cautious) slower through the columns.
_COLUMN_MIN_CELLS = 1 << 15


def _column_chunks(rows: _Batch, frame: FrameOfDiscernment):
    """:func:`_split_rows` of every chunk; a small chunk stays dense rows."""
    for chunk in rows.chunks():
        if len(chunk) * frame.n * frame.powerset_size < _COLUMN_MIN_CELLS:
            yield 0, core._NO_FOCALS, core._NO_WEIGHTS, 0, chunk.values(fresh=True)
        else:
            yield _split_rows(chunk)


def _from_commonality(frame: FrameOfDiscernment, q: np.ndarray) -> FusionResult:
    """The conjunctive result whose commonality is ``q`` (overwritten)."""
    core._moebius_superset(q, frame.n)
    return FusionResult(MassFunction(frame, q))


# ---------------------------------------------------------------------------
# Product-form rules
# ---------------------------------------------------------------------------


def combine_conjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Unnormalised conjunctive pooling: commonalities multiply.

    Associative and commutative; conflict accumulates on the empty set.
    Assumes every source is reliable.  Simple supports are pooled as
    (focal, weight) columns, the other inputs as dense commonality rows.
    """
    rows = _batch(ms)
    frame = rows.frame
    size = frame.powerset_size
    q = np.ones(size)
    logw = None
    for _, focal, weight, _, rest in _column_chunks(rows, frame):
        if focal.size:
            if logw is None:
                logw = np.zeros(size)
            # a weight of 0 logs to -inf and gives exact zeros
            with np.errstate(divide="ignore"):
                logw += np.bincount(focal, weights=np.log(weight), minlength=size)
        if len(rest):
            core._zeta_superset(rest, frame.n)
            q *= rest.prod(axis=0)
    if logw is not None:
        q *= core._conjoined_commonality(logw, frame.n)
    return _from_commonality(frame, q)


def combine_disjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Disjunctive pooling: implicabilities multiply.

    Assumes at least one source is reliable; ignorance absorbs.
    """
    rows = _batch(ms)
    frame = rows.frame
    arr = np.ones(frame.powerset_size)
    for chunk in rows.chunks():
        v = chunk.values(fresh=True)
        core._zeta_subset(v, frame.n)
        arr *= v.prod(axis=0)
    core._moebius_subset(arr, frame.n)
    return FusionResult(MassFunction(frame, arr))


def combine_dempster(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Conjunctive pooling followed by conflict renormalisation.

    Raises :class:`TotalConflictError` once the conflict is within machine
    precision of 1, rather than normalising noise.  Divides by the sum of
    the non-empty masses, not by ``1 - conflict``, which is mostly
    rounding error once the conflict nears 1.
    """
    conj = combine_conjunctive(ms, cfg)
    kappa = conj.conflict
    if kappa >= 1.0 - _SATURATION_TOL:
        raise TotalConflictError(
            f"conjunctive conflict {kappa} leaves nothing to renormalise"
        )
    arr = conj.mass.values.copy()
    arr[0] = 0.0
    arr /= arr.sum()
    return FusionResult(MassFunction(conj.mass.frame, arr))


def combine_average(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Elementwise arithmetic mean of the assignments."""
    rows = _batch(ms)
    acc = np.zeros(rows.frame.powerset_size)
    for chunk in rows.chunks():
        (block, a, b), *rest = chunk.runs
        total = block.values[a:b].sum(axis=0)
        # numpy sums axis 0 row by row, so a later run summed behind the
        # running total adds in the order of the whole chunk's sum
        for block, a, b in rest:
            total = np.add.reduce(np.concatenate([total[np.newaxis], block.values[a:b]]))
        acc += total
    return FusionResult(MassFunction(rows.frame, acc / len(rows)))


# ---------------------------------------------------------------------------
# Enumeration rules (no lattice shortcut exists: partial conflicts matter)
# ---------------------------------------------------------------------------


def _focal_tuples(ms: Sequence[MassFunction] | _Batch, guard: int):
    """Yield every focal tuple of ``ms`` in ``itertools.product`` order.

    A tuple picks one focal element of each source; the last source varies
    fastest.  Blocks of at most ``_ENUM_CELLS // len(ms)`` tuples come as
    ``(subsets, masses)``, two ``(K, B)`` arrays with one row per source and
    one column per tuple, so memory stays bounded however high the guard
    is set.
    """
    rows = _batch(ms)
    blocks = []
    total = 1
    for chunk in rows.chunks():
        blocks.append(chunk.values())
        sizes = (blocks[-1] != 0.0).sum(axis=1)
        # stop once past the guard: the product over many sources has more
        # digits than Python will format
        for size in sizes[sizes > 1].tolist():
            total *= size
            if total > guard:
                raise ComplexityGuardError(
                    f"more than {guard} focal tuples, beyond the enumeration guard;"
                    " the grouped 'lns' rule handles large source counts"
                )
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    nonzero = values != 0.0
    sizes = nonzero.sum(axis=1)
    # every focal (source, subset) cell, source by source, subsets ascending
    cells = np.flatnonzero(nonzero)
    focal_subsets = cells & (values.shape[1] - 1)
    focal_masses = values.ravel()[cells]
    first = (np.cumsum(sizes) - sizes)[:, None]
    strides = (total // np.cumprod(sizes))[:, None]
    sizes = sizes[:, None]
    block = max(1, _ENUM_CELLS // len(rows))
    for start in range(0, total, block):
        picks = np.arange(start, min(start + block, total)) // strides % sizes + first
        yield focal_subsets[picks], focal_masses[picks]


def _running(op: np.ufunc, masses: np.ndarray) -> np.ndarray:
    """``op`` over each column, source by source from the first, as the
    tuple loop did (``op.reduce`` may sum pairwise)."""
    acc = masses[0].copy()
    for row in masses[1:]:
        op(acc, row, out=acc)
    return acc


def combine_dp(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Mixed conjunctive/disjunctive pooling: a conflicting tuple's mass moves
    to the union of its committed picks.

    Picks of the whole frame state no opinion, never cause the conflict,
    and are left out of the union (with two sources this changes nothing:
    a conflicting pair cannot involve the whole frame).  Commutative.
    Bit-identical to a tuple-by-tuple loop in ``itertools.product`` order.
    """
    cfg = cfg or RuleConfig()
    rows = _batch(ms)
    if len(rows) == 1:
        return FusionResult(ms[0])
    frame = rows.frame
    full = frame.full_set
    out = np.zeros(frame.powerset_size)
    for subsets, masses in _focal_tuples(rows, cfg.enumeration_guard):
        inter = np.bitwise_and.reduce(subsets, axis=0)
        union = np.bitwise_or.reduce(subsets, axis=0)
        committed = np.bitwise_or.reduce(np.where(subsets == full, 0, subsets), axis=0)
        # add.at applies its updates in order, as the tuple loop did
        np.add.at(
            out,
            np.where(inter, inter, np.where(committed, committed, union)),
            _running(np.multiply, masses),
        )
    return FusionResult(MassFunction(frame, out))


def combine_pcr6(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """PCR6 pooling: each fully conflicting tuple is split back among its
    contributors in proportion to the mass they put in.

    Needs at least two sources, none with mass on the empty set (its share
    of a conflict would have nowhere to go); raises :class:`ParameterError`
    otherwise.  The empty set always ends up with zero.  Bit-identical to a
    tuple-by-tuple loop in ``itertools.product`` order.
    """
    cfg = cfg or RuleConfig()
    rows = _batch(ms)
    if len(rows) < 2:
        raise ParameterError("pcr6 needs at least two sources")
    start = 0
    for chunk in rows.chunks():
        conflict = chunk.values()[:, 0]
        if conflict.max() > 0.0:
            i = int(np.argmax(conflict > 0.0))
            raise ParameterError(
                "pcr6 needs inputs with no mass on the empty set;"
                f" source {start + i} has {float(conflict[i])!r}"
            )
        start += len(chunk)
    frame = rows.frame
    out = np.zeros(frame.powerset_size)
    for subsets, masses in _focal_tuples(rows, cfg.enumeration_guard):
        inter = np.bitwise_and.reduce(subsets, axis=0)
        p = _running(np.multiply, masses)
        total = _running(np.add, masses)
        # an agreeing tuple puts p on its intersection, then adds zeros there
        targets = np.where(inter, inter, subsets)
        weights = np.where(inter, 0.0, masses * p / total)
        weights[0] = np.where(inter, p, weights[0])
        # tuple by tuple, each tuple's updates in source order
        np.add.at(out, targets.T.ravel(), weights.T.ravel())
    return FusionResult(MassFunction(frame, out))


# ---------------------------------------------------------------------------
# Cautious rule
# ---------------------------------------------------------------------------


def combine_cautious(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Cautious pooling for non-distinct sources: take the subset-wise
    minimum of the canonical-decomposition weights and recombine.

    Idempotent; requires every input to be non-dogmatic.  A simple support
    ``A^w`` has weight ``w`` on ``A`` and 1 elsewhere, so simple supports
    enter as (focal, weight) columns; only the other inputs are decomposed.
    """
    rows = _batch(ms)
    frame = rows.frame
    full = frame.full_set
    minw = np.full(frame.powerset_size, np.inf)
    for vacuous, focal, weight, _, rest in _column_chunks(rows, frame):
        if weight.min(initial=1.0) <= 0.0 or rest[:, full].min(initial=1.0) <= 0.0:
            raise DecompositionError("cautious pooling requires non-dogmatic inputs")
        if vacuous or focal.size:
            np.minimum(minw, 1.0, out=minw)
            np.minimum.at(minw, focal, weight)
        if len(rest):
            np.minimum(minw, core._batched_weights(rest, frame).min(axis=0), out=minw)
    return FusionResult(recompose(WeightVector(frame, minw)))


# ---------------------------------------------------------------------------
# Grouped rules for large numbers of sources
# ---------------------------------------------------------------------------


def _component_accumulators(rows: _Batch, need_products: bool):
    """Break every input into simple-support components and pool them per subset.

    Returns ``(counts, pooled, vacuous, seconds)`` where ``counts[A]`` is
    the number of components focused on subset ``A``, ``pooled[A]`` their
    weight product (ones where absent, exactly 0 where a component has
    weight 0, None when not requested), ``vacuous`` the number of fully
    ignorant inputs, and ``seconds`` the time split between the
    decomposition and pooling stages.
    """
    frame = rows.frame
    size = frame.powerset_size
    full = frame.full_set
    counts = np.zeros(size, dtype=np.int64)
    vacuous = 0
    seconds = {"decompose": 0.0, "inner_combine": 0.0}
    logw = np.zeros(size)
    for chunk in rows.chunks():
        t0 = time.perf_counter()
        vac, focal_idx, weight_arr, simple, rest = _split_rows(chunk)
        if simple < len(weight_arr):
            # chain components vacuous to rounding go, as they do from the lattice
            keep = weight_arr < 1.0 - _VACUOUS_WEIGHT_TOL
            keep[:simple] = True
            focal_idx, weight_arr = focal_idx[keep], weight_arr[keep]
        if (focal_idx == 0).any():
            raise ParameterError("a component focused on the empty set cannot be grouped")
        comp_mask = wmat = None
        if len(rest):
            if float(rest[:, full].min()) <= 0.0:
                raise DecompositionError(
                    "dogmatic non-simple inputs cannot be decomposed for grouping"
                )
            wmat = core._batched_weights(rest, frame)
            _check_groupable(wmat, frame)
            comp_mask = wmat < 1.0 - _VACUOUS_WEIGHT_TOL
            comp_mask[:, full] = False
        seconds["decompose"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        vacuous += vac
        # a weight of 0 logs to -inf, so its group's product comes out exactly 0
        with np.errstate(divide="ignore"):
            counts += np.bincount(focal_idx, minlength=size)
            if need_products:
                logw += np.bincount(focal_idx, weights=np.log(weight_arr), minlength=size)
            if comp_mask is not None:
                counts += comp_mask.sum(axis=0)
                if need_products:
                    logw += np.where(comp_mask, np.log(wmat), 0.0).sum(axis=0)
        seconds["inner_combine"] += time.perf_counter() - t0

    pooled = None
    if need_products:
        pooled = np.exp(logw)
        pooled[counts == 0] = 1.0
    return counts, pooled, vacuous, seconds


def _check_groupable(weights: np.ndarray, frame: FrameOfDiscernment) -> None:
    """Reject inverse components (weights above 1) and empty-set components."""
    over = weights > 1.0 + SEPARABILITY_TOL
    if over.any():
        col = int(np.argwhere(over)[0][1])
        raise NotSeparableError(
            f"input is not separable: weight {float(weights[over][0]):.6g}"
            f" above 1 on subset {frame.format_subset(col)}",
            subset=col,
        )
    if (weights[:, 0] < 1.0 - _VACUOUS_WEIGHT_TOL).any():
        raise ParameterError("a component focused on the empty set cannot be grouped")


def _group_shares(counts: np.ndarray, frame: FrameOfDiscernment, cfg: RuleConfig) -> np.ndarray:
    """Reliability share of every group: count weighted by precision.

    ``share[A] = beta(A)**eta * counts[A] / sum over groups`` with
    ``beta(A) = n / |A|``; the whole-frame group always gets share 0 so
    ignorance stays neutral.
    """
    shares = np.zeros(frame.powerset_size)
    active = np.flatnonzero(counts)
    if active.size == 0:
        return shares
    beta = frame.n / frame.cardinalities[active]
    scaled = beta**cfg.eta * counts[active]
    shares[active] = scaled / float(scaled.sum())
    return shares


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


def _combine_grouped(ms: Sequence[MassFunction], cfg: RuleConfig, approximate: bool) -> FusionResult:
    t0 = time.perf_counter()
    rows = _batch(ms)
    resolve = time.perf_counter() - t0
    frame = rows.frame
    counts, pooled, vacuous, seconds = _component_accumulators(rows, need_products=not approximate)
    seconds["decompose"] += resolve

    t0 = time.perf_counter()
    shares = _group_shares(counts, frame, cfg)
    active = np.flatnonzero(counts)
    if approximate:
        group_weights = 1.0 - shares[active]
    else:
        group_weights = 1.0 - shares[active] + shares[active] * pooled[active]
    seconds["discount"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if len(active) <= 1:
        # the conjunction is the identity on one normal simple support
        ssfs = core._simple_supports(frame, active, group_weights)
        mass = ssfs[0] if ssfs else MassFunction.vacuous(frame)
    else:
        logw = np.zeros(frame.powerset_size)
        with np.errstate(divide="ignore"):
            logw[active] = np.log(group_weights)
        mass = _from_commonality(frame, core._conjoined_commonality(logw, frame.n)).mass
    seconds["global_combine"] = time.perf_counter() - t0

    return FusionResult(
        mass=mass,
        groups=tuple(_group_summaries(counts, pooled, shares, vacuous, frame)),
        step_seconds=seconds,
    )


def combine_lns(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Grouped conjunctive pooling for large numbers of sources.

    Inputs must be simple supports or separable assignments (these are
    decomposed first).  Components are clustered by focal element, pooled
    conjunctively inside each group, discounted by the group's reliability
    share, and the resulting handful of simple supports is combined
    conjunctively, the mass on the empty set being the conflict.  Fully
    ignorant inputs never change the result.
    """
    cfg = cfg or RuleConfig(rule="lns")
    return _combine_grouped(ms, cfg, approximate=False)


def combine_lnsa(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Large-group approximation of :func:`combine_lns`.

    Skips the inner weight products: each group enters the global stage as
    a simple support whose focal mass equals the group's reliability
    share.  Equivalent to the exact rule once groups are large, cheaper to
    evaluate, and different from it when groups are small.
    """
    cfg = cfg or RuleConfig(rule="lnsa")
    return _combine_grouped(ms, cfg, approximate=True)


# ---------------------------------------------------------------------------
# Conflict-based reliability estimation (comparison baseline)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _jaccard_matrix(frame: FrameOfDiscernment) -> np.ndarray:
    """Subset-similarity matrix ``|A ∩ B| / |A ∪ B|`` with the empty pair set to 1."""
    if frame.n > 10:
        raise ParameterError(
            "the pairwise-distance reliability estimator materialises a"
            f" {frame.powerset_size}x{frame.powerset_size} matrix; frames above"
            " 10 elements are not supported"
        )
    idx = np.arange(frame.powerset_size)
    card = frame.cardinalities
    inter = card[idx[:, None] & idx[None, :]].astype(float)
    union = card[idx[:, None] | idx[None, :]].astype(float)
    d = np.ones_like(inter)
    nz = union > 0
    d[nz] = inter[nz] / union[nz]
    d.setflags(write=False)
    return d


def evidential_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-weighted quadratic distance between two assignments, in [0, 1]."""
    if m1.frame != m2.frame:
        raise EncodingError("distance requires a shared frame")
    d = _jaccard_matrix(m1.frame)
    diff = m1.values - m2.values
    val = 0.5 * float(diff @ d @ diff)
    return math.sqrt(max(val, 0.0))


def martin_reliability(ms: Sequence[MassFunction], lam: float = 1.0) -> np.ndarray:
    """Per-source reliability from mean pairwise conflict.

    Source ``j`` gets ``(1 - conf_j**lam)**(1/lam)`` where ``conf_j`` is
    the mean evidential distance from ``j`` to every other source.
    Callers discount each source by its factor before combining.
    """
    _batch(ms)  # one frame
    if len(ms) < 2:
        raise ParameterError("reliability estimation needs at least two sources")
    if not lam > 0.0:
        raise ParameterError(f"lambda must be positive, got {lam!r}")
    s = len(ms)
    dist = np.zeros((s, s))
    for i in range(s):
        for j in range(i + 1, s):
            dist[i, j] = dist[j, i] = evidential_distance(ms[i], ms[j])
    conf = dist.sum(axis=1) / (s - 1)
    return np.clip(1.0 - conf**lam, 0.0, None) ** (1.0 / lam)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_COMBINERS: dict[str, Callable[..., FusionResult]] = {
    "conjunctive": combine_conjunctive,
    "dempster": combine_dempster,
    "disjunctive": combine_disjunctive,
    "dp": combine_dp,
    "pcr6": combine_pcr6,
    "cautious": combine_cautious,
    "average": combine_average,
    "lns": combine_lns,
    "lnsa": combine_lnsa,
}

RULE_NAMES = tuple(_COMBINERS)


def combine(ms: Sequence[MassFunction], cfg: RuleConfig) -> FusionResult:
    """Apply the rule selected by ``cfg.rule``."""
    return _COMBINERS[cfg.rule](ms, cfg)
