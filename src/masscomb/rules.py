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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    FrameOfDiscernment,
    MassFunction,
    SimpleSupport,
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

RULE_NAMES = (
    "conjunctive",
    "dempster",
    "disjunctive",
    "dp",
    "pcr6",
    "cautious",
    "average",
    "lns",
    "lnsa",
)

#: Rules usable for the final stage of the grouped combination.
GLOBAL_RULE_NAMES = tuple(r for r in RULE_NAMES if r not in ("lns", "lnsa"))

#: Components with a weight above ``1 + SEPARABILITY_TOL`` are inverse
#: simple supports and cannot be grouped.
SEPARABILITY_TOL = 1e-9

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
    (0 disables it).  ``global_rule`` picks the operator used for the final
    stage of ``lns``/``lnsa``.  ``lam`` shapes the conflict-based
    reliability estimator.  ``enumeration_guard`` caps the number of focal
    tuples the Dubois-Prade and PCR6 enumerations may visit.
    ``vacuous_in_denominator`` counts fully ignorant sources when
    normalising group shares (off by default).  ``eta`` and ``lam`` must
    be finite.
    """

    rule: str = "conjunctive"
    eta: float = 1.0
    global_rule: str = "conjunctive"
    lam: float = 1.0
    enumeration_guard: int = 10_000_000
    vacuous_in_denominator: bool = False

    def __post_init__(self):
        if self.rule not in RULE_NAMES:
            raise ParameterError(f"unknown rule {self.rule!r}; choose one of {RULE_NAMES}")
        if self.global_rule not in GLOBAL_RULE_NAMES:
            raise ParameterError(
                f"unknown global rule {self.global_rule!r}; choose one of {GLOBAL_RULE_NAMES}"
            )
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ParameterError(f"eta must be finite and non-negative, got {self.eta!r}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(f"lambda must be finite and positive, got {self.lam!r}")
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
    conflict: float
    groups: tuple[GroupSummary, ...] | None = None
    step_seconds: dict[str, float] | None = None


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _common_frame(ms: Sequence[MassFunction]) -> FrameOfDiscernment:
    if not ms:
        raise ParameterError("need at least one mass function to combine")
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame is not frame and m.frame != frame:
            raise EncodingError("all mass functions must share one frame")
    return frame


def _chunks(items: Sequence, size: int | None = None):
    size = size or _CHUNK_ROWS
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _pooled_product(
    ms: Sequence[MassFunction], n: int, zeta: Callable[[np.ndarray, int], None]
) -> np.ndarray:
    """Elementwise product of a transform of every input, chunk by chunk."""
    acc = np.ones(1 << n)
    for block in _chunks(ms):
        v = np.stack([m.values for m in block])
        zeta(v, n)
        acc *= v.prod(axis=0)
    return acc


# ---------------------------------------------------------------------------
# Product-form rules
# ---------------------------------------------------------------------------


def combine_conjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Unnormalised conjunctive pooling: commonalities multiply.

    Associative and commutative; conflict accumulates on the empty set.
    Assumes every source is reliable.
    """
    frame = _common_frame(ms)
    arr = _pooled_product(ms, frame.n, core._zeta_superset)
    core._moebius_superset(arr, frame.n)
    mass = MassFunction(frame, arr)
    return FusionResult(mass=mass, conflict=mass.conflict)


def combine_disjunctive(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Disjunctive pooling: implicabilities multiply.

    Assumes at least one source is reliable; ignorance absorbs.
    """
    frame = _common_frame(ms)
    arr = _pooled_product(ms, frame.n, core._zeta_subset)
    core._moebius_subset(arr, frame.n)
    mass = MassFunction(frame, arr)
    return FusionResult(mass=mass, conflict=mass.conflict)


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
    mass = MassFunction(conj.mass.frame, arr)
    return FusionResult(mass=mass, conflict=0.0)


def combine_average(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Elementwise arithmetic mean of the assignments."""
    frame = _common_frame(ms)
    acc = np.zeros(frame.powerset_size)
    for block in _chunks(ms):
        acc += np.stack([m.values for m in block]).sum(axis=0)
    mass = MassFunction(frame, acc / len(ms))
    return FusionResult(mass=mass, conflict=mass.conflict)


# ---------------------------------------------------------------------------
# Enumeration rules (no lattice shortcut exists: partial conflicts matter)
# ---------------------------------------------------------------------------


def _focal_tuples(ms: Sequence[MassFunction], guard: int):
    """Yield every focal tuple of ``ms`` in ``itertools.product`` order.

    A tuple picks one focal element of each source; the last source varies
    fastest.  Blocks of at most ``_ENUM_CELLS // len(ms)`` tuples come as
    ``(subsets, masses)``, two ``(K, B)`` arrays with one row per source and
    one column per tuple, so memory stays bounded however high the guard
    is set.
    """
    values = np.stack([m.values for m in ms])
    nonzero = values != 0.0
    sizes = nonzero.sum(axis=1)
    total = math.prod(sizes.tolist())
    if total > guard:
        raise ComplexityGuardError(
            f"{total} focal tuples exceed the enumeration guard ({guard});"
            " the grouped 'lns' rule handles large source counts"
        )
    # every focal (source, subset) cell, source by source, subsets ascending
    cells = np.flatnonzero(nonzero)
    focal_subsets = cells & (values.shape[1] - 1)
    focal_masses = values.ravel()[cells]
    first = (np.cumsum(sizes) - sizes)[:, None]
    strides = (total // np.cumprod(sizes))[:, None]
    sizes = sizes[:, None]
    block = max(1, _ENUM_CELLS // len(ms))
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
    frame = _common_frame(ms)
    if len(ms) == 1:
        return FusionResult(mass=ms[0], conflict=ms[0].conflict)
    full = frame.full_set
    out = np.zeros(frame.powerset_size)
    for subsets, masses in _focal_tuples(ms, cfg.enumeration_guard):
        inter = np.bitwise_and.reduce(subsets, axis=0)
        union = np.bitwise_or.reduce(subsets, axis=0)
        committed = np.bitwise_or.reduce(np.where(subsets == full, 0, subsets), axis=0)
        # add.at applies its updates in order, as the tuple loop did
        np.add.at(
            out,
            np.where(inter, inter, np.where(committed, committed, union)),
            _running(np.multiply, masses),
        )
    mass = MassFunction(frame, out)
    return FusionResult(mass=mass, conflict=mass.conflict)


def combine_pcr6(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """PCR6 pooling: each fully conflicting tuple is split back among its
    contributors in proportion to the mass they put in.

    Needs at least two sources, none with mass on the empty set (its share
    of a conflict would have nowhere to go); raises :class:`ParameterError`
    otherwise.  The empty set always ends up with zero.  Bit-identical to a
    tuple-by-tuple loop in ``itertools.product`` order.
    """
    cfg = cfg or RuleConfig()
    frame = _common_frame(ms)
    if len(ms) < 2:
        raise ParameterError("pcr6 needs at least two sources")
    for i, m in enumerate(ms):
        if m.conflict > 0.0:
            raise ParameterError(
                f"pcr6 needs inputs with no mass on the empty set; source {i} has {m.conflict!r}"
            )
    out = np.zeros(frame.powerset_size)
    for subsets, masses in _focal_tuples(ms, cfg.enumeration_guard):
        inter = np.bitwise_and.reduce(subsets, axis=0)
        p = _running(np.multiply, masses)
        total = _running(np.add, masses)
        # an agreeing tuple puts p on its intersection, then adds zeros there
        targets = np.where(inter, inter, subsets)
        weights = np.where(inter, 0.0, masses * p / total)
        weights[0] = np.where(inter, p, weights[0])
        # tuple by tuple, each tuple's updates in source order
        np.add.at(out, targets.T.ravel(), weights.T.ravel())
    mass = MassFunction(frame, out)
    return FusionResult(mass=mass, conflict=mass.conflict)


# ---------------------------------------------------------------------------
# Cautious rule
# ---------------------------------------------------------------------------


def _batched_weights(values: np.ndarray, frame: FrameOfDiscernment) -> np.ndarray:
    """Canonical-decomposition weights for every row of a (rows, 2**n) matrix.

    Rows must be non-dogmatic.  Works in the log-commonality domain; the
    frame column is forced to 1.
    """
    n = frame.n
    v = values.copy()
    core._zeta_superset(v, n)
    np.log(np.maximum(v, core._LOG_FLOOR, out=v), out=v)
    core._moebius_superset(v, n)
    np.negative(v, out=v)
    np.exp(v, out=v)
    v[:, frame.full_set] = 1.0
    return v


def combine_cautious(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Cautious pooling for non-distinct sources: take the subset-wise
    minimum of the canonical-decomposition weights and recombine.

    Idempotent; requires every input to be non-dogmatic.
    """
    frame = _common_frame(ms)
    full = frame.full_set
    minw = np.full(frame.powerset_size, np.inf)
    for block in _chunks(ms):
        v = np.stack([m.values for m in block])
        if float(v[:, full].min()) <= 0.0:
            raise DecompositionError("cautious pooling requires non-dogmatic inputs")
        w = _batched_weights(v, frame)
        np.minimum(minw, w.min(axis=0), out=minw)
    mass = recompose(WeightVector(frame, minw))
    return FusionResult(mass=mass, conflict=mass.conflict)


# ---------------------------------------------------------------------------
# Grouped rules for large numbers of sources
# ---------------------------------------------------------------------------


def _component_accumulators(ms: Sequence[MassFunction], frame: FrameOfDiscernment, need_products: bool):
    """Break every input into simple-support components and pool them per subset.

    Returns ``(counts, pooled, vacuous, seconds)`` where ``counts[A]`` is
    the number of components focused on subset ``A``, ``pooled[A]`` their
    weight product (ones where absent, exactly 0 where a component has
    weight 0, None when not requested), ``vacuous`` the number of fully
    ignorant inputs, and ``seconds`` the time split between the
    decomposition and pooling stages.
    """
    size = frame.powerset_size
    full = frame.full_set
    counts = np.zeros(size, dtype=np.int64)
    vacuous = 0
    seconds = {"decompose": 0.0, "inner_combine": 0.0}
    logw = np.zeros(size)
    for block in _chunks(ms):
        t0 = time.perf_counter()
        v = np.stack([m.values for m in block])
        proper = v[:, :full]
        nonzero = np.count_nonzero(proper, axis=1)
        vac_rows = nonzero == 0
        ssf_rows = nonzero == 1
        rest_rows = nonzero > 1
        focal_idx = weight_arr = comp_mask = wmat = None
        if ssf_rows.any():
            focal_idx = np.argmax(proper[ssf_rows], axis=1)
            if (focal_idx == 0).any():
                raise ParameterError(
                    "a component focused on the empty set cannot be grouped"
                )
            weight_arr = v[ssf_rows, full]
        if rest_rows.any():
            sub = v[rest_rows]
            if float(sub[:, full].min()) <= 0.0:
                raise DecompositionError(
                    "dogmatic non-simple inputs cannot be decomposed for grouping"
                )
            wmat = _batched_weights(sub, frame)
            _check_groupable(wmat, frame)
            comp_mask = wmat < 1.0 - _VACUOUS_WEIGHT_TOL
            comp_mask[:, full] = False
        seconds["decompose"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        vacuous += int(vac_rows.sum())
        # a weight of 0 logs to -inf, so its group's product comes out exactly 0
        with np.errstate(divide="ignore"):
            if focal_idx is not None:
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


def _group_shares(
    counts: np.ndarray, vacuous: int, frame: FrameOfDiscernment, cfg: RuleConfig
) -> np.ndarray:
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
    denom = float(scaled.sum())
    if cfg.vacuous_in_denominator:
        denom += float(vacuous)
    shares[active] = scaled / denom
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


def lns_group(
    ssfs: Sequence[SimpleSupport], cfg: RuleConfig | None = None
) -> list[GroupSummary]:
    """Cluster simple supports by focal element and score each group.

    Every group reports its size, the product of its weights, and its
    reliability share.  Fully ignorant inputs form the whole-frame group,
    whose share is always zero.  Equals the ``groups`` of
    :func:`combine_lns` on the same supports.
    """
    cfg = cfg or RuleConfig(rule="lns")
    ms = [s.to_mass() for s in ssfs]
    frame = _common_frame(ms)
    counts, pooled, vacuous, _ = _component_accumulators(ms, frame, need_products=True)
    shares = _group_shares(counts, vacuous, frame, cfg)
    return _group_summaries(counts, pooled, shares, vacuous, frame)


def _combine_grouped(ms: Sequence[MassFunction], cfg: RuleConfig, approximate: bool) -> FusionResult:
    frame = _common_frame(ms)
    counts, pooled, vacuous, seconds = _component_accumulators(
        ms, frame, need_products=not approximate
    )

    t0 = time.perf_counter()
    shares = _group_shares(counts, vacuous, frame, cfg)
    active = np.flatnonzero(counts)
    if approximate:
        group_weights = 1.0 - shares[active]
    else:
        group_weights = 1.0 - shares[active] + shares[active] * pooled[active]
    seconds["discount"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ssfs = core._simple_supports(frame, active, group_weights)
    if len(ssfs) > 1:
        sub = replace(cfg, rule=cfg.global_rule)
        fused = _COMBINERS[cfg.global_rule](ssfs, sub)
    else:
        # every global rule is the identity on one normal simple support
        mass = ssfs[0] if ssfs else MassFunction.vacuous(frame)
        fused = FusionResult(mass=mass, conflict=0.0)
    seconds["global_combine"] = time.perf_counter() - t0

    return FusionResult(
        mass=fused.mass,
        conflict=fused.conflict,
        groups=tuple(_group_summaries(counts, pooled, shares, vacuous, frame)),
        step_seconds=seconds,
    )


def combine_lns(ms: Sequence[MassFunction], cfg: RuleConfig | None = None) -> FusionResult:
    """Grouped conjunctive pooling for large numbers of sources.

    Inputs must be simple supports or separable assignments (these are
    decomposed first).  Components are clustered by focal element, pooled
    conjunctively inside each group, discounted by the group's reliability
    share, and the resulting handful of simple supports is combined with
    ``cfg.global_rule``.  Fully ignorant inputs never change the result.
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
    _common_frame(ms)
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


def combine(ms: Sequence[MassFunction], cfg: RuleConfig) -> FusionResult:
    """Apply the rule selected by ``cfg.rule``."""
    return _COMBINERS[cfg.rule](ms, cfg)
