"""Shared fixtures and independent oracles.

The rule oracles evaluate the defining sums directly (focal-tuple
enumeration, naive subset/superset sums) so they share no code path with the
lattice implementations they check.  The dense oracles keep the lattice
paths that the column forms of the conjunctive and cautious rules replaced.
The producer oracles build one assignment at a time, as the producers did
before they filled one block, the decomposition oracle decomposes one
assignment on its own, and the leave-one-out oracle classifies one sample
at a time, so a batched result must equal them bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from masscomb import genrand
from masscomb.core import (
    MASS_TOL,
    FrameOfDiscernment,
    MassFunction,
    SimpleSupport,
    WeightVector,
    _Columns,
    _moebius_superset,
    _zeta_superset,
    as_simple_support,
    pignistic,
)
from masscomb.eknn import _support_weights, classify, resolve_gamma
from masscomb.errors import (
    DecompositionError,
    EncodingError,
    InvalidWeightVectorError,
    MassCombError,
    ParameterError,
)
from masscomb.io import FILE_MASS_TOL
from masscomb.rules import combine


@pytest.fixture
def frame2() -> FrameOfDiscernment:
    return FrameOfDiscernment.numbered(2)


@pytest.fixture
def frame3() -> FrameOfDiscernment:
    return FrameOfDiscernment.numbered(3)


#: A valid assignment on ``FrameOfDiscernment.numbered(4)``, masses by
#: subset index, whose canonical log weights run from -459 to 914: the
#: weight of {theta4} overflows a float.
WIDE_WEIGHTS_N4 = [
    0.0858193811263148, 1.392466418308441e-200, 0.32710034233329915, 0.0,
    0.0, 0.0, 0.02496036688437025, 0.0,
    0.043696358203261454, 0.12697201724558344, 0.3608909830040714, 0.0,
    0.030560551203099588, 0.0, 0.0, 1.392466418308441e-200,
]

#: A twin whose weight on the empty set, of log -886, underflows to 0,
#: while no weight overflows (the largest log weight is 593).
TINY_WEIGHT_N4 = [
    0.0, 0.0, 0.17, 0.2, 0.0, 0.11, 0.01, 1e-130,
    0.11, 0.17, 0.09, 0.0, 0.14, 1e-130, 0.0, 1e-130,
]


def random_mass(
    rng: np.random.Generator,
    frame: FrameOfDiscernment,
    max_focals: int | None = None,
    allow_empty: bool = False,
    min_frame_mass: float | None = None,
) -> MassFunction:
    """Random assignment with a bounded focal count, built directly."""
    lo = 0 if allow_empty else 1
    pool = np.arange(lo, frame.powerset_size)
    cap = min(len(pool), max_focals or len(pool))
    count = int(rng.integers(1, cap + 1))
    focals = rng.choice(pool, size=count, replace=False)
    arr = np.zeros(frame.powerset_size)
    arr[focals] = rng.dirichlet(np.ones(count))
    if min_frame_mass is not None:
        arr *= 1.0 - min_frame_mass
        arr[frame.full_set] += min_frame_mass
    return MassFunction(frame, arr)


def approx_equal(a: MassFunction, b: MassFunction, tol: float = 1e-12) -> bool:
    """Whether ``a`` and ``b`` share a frame and no mass differs by more than ``tol``."""
    return a.frame == b.frame and bool(np.max(np.abs(a.values - b.values)) <= tol)


def opposed_halves(frame: FrameOfDiscernment, count: int, k: float) -> list[MassFunction]:
    """``count // 2`` simple supports on {θ1}, then as many on {θ2}, all of
    one weight ``w`` chosen so that their conjunctive conflict is about
    ``1 - 10**-k``: with ``W = w**(count // 2)``, the conflict is ``(1 - W)**2``."""
    small = 10.0**-k / (1.0 + math.sqrt(1.0 - 10.0**-k))  # W = 1 - sqrt(1 - 10**-k)
    w = small ** (1.0 / (count // 2))
    a, b = (SimpleSupport(frame, focal, w).to_mass() for focal in (1, 2))
    return [a] * (count // 2) + [b] * (count // 2)


def opposed_halves_dempster(ms: list[MassFunction]) -> np.ndarray:
    """Dempster's result on :func:`opposed_halves` in closed form, from the
    weight as stored: ``m(θ1) = m(θ2) = (1 - W)/(2 - W)``, ``m(Θ) = W/(2 - W)``,
    evaluated in 60 decimal digits."""
    frame = ms[0].frame
    with localcontext() as ctx:
        ctx.prec = 60
        big = Decimal(float(ms[0].values[frame.full_set])) ** (len(ms) // 2)
        out = np.zeros(frame.powerset_size)
        out[1] = out[2] = float((1 - big) / (2 - big))
        out[frame.full_set] = float(big / (2 - big))
    return out


# ---------------------------------------------------------------------------
# Oracles: direct evaluation of the defining sums
# ---------------------------------------------------------------------------


def naive_commonality(m: MassFunction) -> np.ndarray:
    size = m.frame.powerset_size
    out = np.zeros(size)
    for a in range(size):
        out[a] = sum(m.values[b] for b in range(size) if b & a == a)
    return out


def naive_belief(m: MassFunction) -> np.ndarray:
    size = m.frame.powerset_size
    out = np.zeros(size)
    for a in range(size):
        out[a] = sum(m.values[b] for b in range(1, size) if b & a == b)
    return out


def naive_plausibility(m: MassFunction) -> np.ndarray:
    size = m.frame.powerset_size
    out = np.zeros(size)
    for a in range(size):
        out[a] = sum(m.values[b] for b in range(size) if b & a)
    return out


def _focal_lists(ms: list[MassFunction]) -> list[list[tuple[int, float]]]:
    return [[(int(a), float(m.values[a])) for a in m.focal_elements()] for m in ms]


def brute_conjunctive(ms: list[MassFunction]) -> np.ndarray:
    """Focal-tuple enumeration of the conjunctive double sum."""
    frame = ms[0].frame
    out = np.zeros(frame.powerset_size)
    for combo in itertools.product(*_focal_lists(ms)):
        inter = frame.full_set
        p = 1.0
        for subset, mass in combo:
            inter &= subset
            p *= mass
        out[inter] += p
    return out


def brute_disjunctive(ms: list[MassFunction]) -> np.ndarray:
    frame = ms[0].frame
    out = np.zeros(frame.powerset_size)
    for combo in itertools.product(*_focal_lists(ms)):
        union = 0
        p = 1.0
        for subset, mass in combo:
            union |= subset
            p *= mass
        out[union] += p
    return out


def brute_dp(ms: list[MassFunction]) -> np.ndarray:
    """Tuple-by-tuple Dubois-Prade: conflicting mass goes to the union of
    the picks that are not the whole frame (or of all picks if none is)."""
    frame = ms[0].frame
    full = frame.full_set
    out = np.zeros(frame.powerset_size)
    for combo in itertools.product(*_focal_lists(ms)):
        inter = full
        union = 0
        committed = 0
        p = 1.0
        for subset, mass in combo:
            inter &= subset
            union |= subset
            if subset != full:
                committed |= subset
            p *= mass
        out[inter if inter else (committed or union)] += p
    return out


def brute_pcr6(ms: list[MassFunction]) -> np.ndarray:
    """Tuple-by-tuple PCR6: a conflicting tuple's mass goes back to its
    picks in proportion to the mass each put in."""
    frame = ms[0].frame
    out = np.zeros(frame.powerset_size)
    for combo in itertools.product(*_focal_lists(ms)):
        inter = frame.full_set
        p = 1.0
        total = 0.0
        for subset, mass in combo:
            inter &= subset
            p *= mass
            total += mass
        if inter:
            out[inter] += p
        else:
            for subset, mass in combo:
                out[subset] += mass * p / total
    return out


# ---------------------------------------------------------------------------
# Oracles: the dense lattice paths that the column forms replaced
# ---------------------------------------------------------------------------


def _dense_chunks(ms, size=16384):
    for start in range(0, len(ms), size):
        yield np.stack([m.values for m in ms[start : start + size]])


def dense_conjunctive(ms: list[MassFunction]) -> np.ndarray:
    """Every input's commonality row, multiplied, then the Moebius pass."""
    n = ms[0].frame.n
    acc = np.ones(1 << n)
    for v in _dense_chunks(ms):
        _zeta_superset(v, n)
        acc *= v.prod(axis=0)
    _moebius_superset(acc, n)
    return MassFunction(ms[0].frame, acc).values


def dense_cautious(ms: list[MassFunction]) -> np.ndarray:
    """Every input decomposed as a dense row, the subset-wise minimum of the
    weights, then the recombination from ``total - superset sum`` of the
    log weights."""
    frame = ms[0].frame
    n = frame.n
    minw = np.full(frame.powerset_size, np.inf)
    for v in _dense_chunks(ms):
        if float(v[:, frame.full_set].min()) <= 0.0:
            raise DecompositionError("cautious pooling requires non-dogmatic inputs")
        _zeta_superset(v, n)
        np.log(np.maximum(v, 1e-300, out=v), out=v)
        _moebius_superset(v, n)
        w = np.exp(-v)
        w[:, frame.full_set] = 1.0
        np.minimum(minw, w.min(axis=0), out=minw)
    logw = np.log(WeightVector(frame, minw).weights)
    sup = logw.copy()
    _zeta_superset(sup, n)
    arr = np.exp(float(logw.sum()) - sup)
    _moebius_superset(arr, n)
    if not np.isfinite(arr).all() or float(arr.min()) < -1e-9:
        raise InvalidWeightVectorError("weight vector recombines to an invalid mass")
    try:
        return MassFunction(frame, arr).values
    except ParameterError as exc:
        raise InvalidWeightVectorError(str(exc)) from None


# ---------------------------------------------------------------------------
# Oracles: closed forms over (focal, weight) components
# ---------------------------------------------------------------------------


def _popcount(a: int) -> int:
    return bin(a).count("1")


def support_components(ms: list[MassFunction], chunk: int = 8192):
    """Every input as canonical (focal, weight) components.

    Inputs must be vacuous, simple supports, or consonant with the whole
    frame as their largest focal set.  A simple support is its focal set
    and its frame mass.  A consonant input with focal sets ``F1 ⊂ ... ⊂
    Fk`` (ordered by size) and ``Q_i = m(F_i) + ... + m(F_k)``, summed in
    Python floats from the largest set down, has weight ``Q_{i+1} / Q_i``
    on ``F_i``.  Returns ``(focal, weight, chained)``, ``chained`` marking
    the components of consonant inputs.
    """
    full = ms[0].frame.full_set
    focal, weight, chained = [], [], []
    for start in range(0, len(ms), chunk):
        block = np.array([m.values for m in ms[start : start + chunk]])
        proper = block[:, :full] != 0.0
        count = proper.sum(axis=1)
        simple = count == 1
        focal.append(np.argmax(proper[simple], axis=1))
        weight.append(block[simple, full])
        chained.append(np.zeros(int(simple.sum()), dtype=bool))
        comps = []
        for row in block[count > 1]:
            chain = sorted(np.flatnonzero(row).tolist(), key=_popcount)
            assert chain[-1] == full, "a consonant input must end on the frame"
            assert all(a & b == a for a, b in zip(chain, chain[1:])), "focal sets not nested"
            q = [0.0] * len(chain)
            tail = 0.0
            for i in range(len(chain) - 1, -1, -1):
                tail += float(row[chain[i]])
                q[i] = tail
            comps += [(chain[i], q[i + 1] / q[i]) for i in range(len(chain) - 1)]
        if comps:
            focal.append(np.array([a for a, _ in comps]))
            weight.append(np.array([w for _, w in comps]))
            chained.append(np.ones(len(comps), dtype=bool))
    return (
        np.concatenate(focal).astype(np.int64),
        np.concatenate(weight),
        np.concatenate(chained),
    )


def conjoined_supports(weights: np.ndarray, n: int) -> np.ndarray:
    """Mass of the conjunction of the simple supports ``A^weights[A]``.

    ``q(X)`` is the product of ``weights[A]`` over the ``A`` that do not
    contain ``X``; the masses follow from the signed subset matrix
    ``m(A) = sum over B ⊇ A of (-1)**|B - A| q(B)``.
    """
    idx = np.arange(1 << n)
    contains = (idx[:, None] & idx[None, :]) == idx[:, None]  # X ⊆ A
    q = np.where(contains, 1.0, weights[None, :]).prod(axis=1)
    sign = np.array([-1.0 if _popcount(a) % 2 else 1.0 for a in range(1 << n)])
    return (contains * sign[:, None] * sign[None, :]) @ q


def per_focal_products(focal: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
    """The product of the weights of every focal set, 1 where it has none."""
    prod = np.ones(1 << n)
    np.multiply.at(prod, focal, weight)
    return prod


def per_focal_minima(focal: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
    """The smallest weight of every focal set, 1 where it has none."""
    low = np.ones(1 << n)
    np.minimum.at(low, focal, weight)
    return low


def grouped_supports(focal, weight, chained, n: int, eta: float, approximate: bool):
    """``lns`` (or ``lnsa``) from component columns: components of consonant
    inputs within 1e-12 of weight 1 are dropped, the rest grouped by focal
    set, each group pooled, discounted by its share ``(n / |A|)**eta *
    count`` of the total and conjoined.  Returns ``(mass, counts)``."""
    keep = ~chained | (weight < 1.0 - 1e-12)
    focal, weight = focal[keep], weight[keep]
    counts = np.bincount(focal, minlength=1 << n)
    active = np.flatnonzero(counts)
    scaled = np.array([(n / _popcount(int(a))) ** eta for a in active]) * counts[active]
    share = scaled / scaled.sum()
    pooled = per_focal_products(focal, weight, n)[active]
    weights = np.ones(1 << n)
    weights[active] = 1.0 - share if approximate else 1.0 - share + share * pooled
    return conjoined_supports(weights, n), counts


def loop_pignistic(m: MassFunction) -> np.ndarray:
    """Pignistic probability with one boolean mask over all subsets per
    hypothesis."""
    empty = float(m.values[0])
    card = m.frame.cardinalities
    shares = np.zeros(m.frame.powerset_size)
    shares[1:] = m.values[1:] / card[1:]
    idx = np.arange(m.frame.powerset_size)
    betp = np.empty(m.frame.n)
    for i in range(m.frame.n):
        betp[i] = shares[(idx >> i) & 1 == 1].sum()
    betp /= 1.0 - empty
    return betp


def single_row_decompose(m: MassFunction) -> np.ndarray:
    """Canonical weights of one assignment from its own commonality vector,
    with simple supports short-circuited to their own weight."""
    full = m.frame.full_set
    if float(m.values[full]) <= 0.0:
        raise DecompositionError("canonical decomposition is undefined for dogmatic assignments")
    ssf = as_simple_support(m)
    if ssf is not None:
        weights = np.ones(m.frame.powerset_size)
        if ssf.focal != full:
            weights[ssf.focal] = ssf.weight
        return weights
    q = m.values.copy()
    _zeta_superset(q, m.frame.n)
    if float(q.min()) <= 0.0:
        raise DecompositionError("non-positive commonality encountered")
    logq = np.log(np.maximum(q, 1e-300))
    _moebius_superset(logq, m.frame.n)
    weights = np.exp(-logq)
    weights[full] = 1.0
    return weights


# ---------------------------------------------------------------------------
# Oracles: the per-object producers that the batched ones replaced
# ---------------------------------------------------------------------------


def row_by_row(frame: FrameOfDiscernment, values, tol: float) -> np.ndarray:
    """One assignment validated and renormalised on its own, with the
    arithmetic of the per-object constructor: shape, finite, minimum,
    ``np.clip``, a scalar sum, then the division."""
    arr = np.array(values, dtype=float)
    if arr.shape != (frame.powerset_size,):
        raise EncodingError(
            f"expected {frame.powerset_size} masses for a {frame.n}-element frame,"
            f" got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ParameterError("mass values must be finite")
    lo = float(arr.min())
    if lo < -tol:
        raise ParameterError(f"negative mass {lo:.3e} at subset index {int(arr.argmin())}")
    np.clip(arr, 0.0, None, out=arr)
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise ParameterError(f"masses sum to {total!r}, expected 1")
    arr /= total
    return arr


def check_rows_oracle(frame: FrameOfDiscernment, block: np.ndarray, tol: float) -> None:
    """The batched check in four passes, as it was before the sign-bit
    test: a minimum, the clip in place, the row sums, and a division of
    every row whenever any row is off 1."""
    if block.shape[1:] != (frame.powerset_size,):
        raise EncodingError(
            f"expected {frame.powerset_size} masses for a {frame.n}-element frame,"
            f" got shape {block.shape[1:]}"
        )
    if block.min(initial=0.0) >= -tol:
        np.maximum(block, 0.0, out=block)
        total = np.add.reduce(block, axis=1)
        deviation = np.abs(total - 1.0).max(initial=0.0)
        if deviation <= tol:
            if deviation:
                block /= total[:, np.newaxis]
            return
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.maximum(block, 0.0).sum(axis=1)
    finite = np.isfinite(block).all(axis=1)
    lo = block.min(axis=1)
    low = lo < -tol
    i = int(np.argmax(~finite | low | ~(np.abs(total - 1.0) <= tol)))
    if not finite[i]:
        raise ParameterError("mass values must be finite", row=i)
    if low[i]:
        raise ParameterError(
            f"negative mass {lo[i]:.3e} at subset index {int(block[i].argmin())}", row=i
        )
    raise ParameterError(f"masses sum to {float(total[i])!r}, expected 1", row=i)


def row_by_row_average(ms: list[MassFunction], chunk: int) -> np.ndarray:
    """The mean of ``ms`` as numpy sums a stack's axis 0, row by row, in
    chunks of ``chunk`` rows whose sums are then added in order, validated
    as a fused result is."""
    total = np.zeros(ms[0].frame.powerset_size)
    for start in range(0, len(ms), chunk):
        total += np.add.reduce(np.stack([m.values for m in ms[start : start + chunk]]), axis=0)
    mean = (total / len(ms))[np.newaxis]
    check_rows_oracle(ms[0].frame, mean, MASS_TOL)
    return mean[0]


def per_neighbour_classify(x, ds, cfg, *, exclude=None):
    """EkNN with one ``SimpleSupport(...).to_mass()`` per neighbour.

    Returns ``(klass, fused, betp)``.
    """
    x = np.asarray(x, dtype=float)
    gamma = resolve_gamma(ds, cfg)
    dist = np.sqrt(((ds.points - x) ** 2).sum(axis=1))
    if exclude is not None:
        dist[exclude] = np.inf
    order = np.argsort(dist, kind="stable")[: cfg.k]
    weights = _support_weights(dist[order], ds.labels[order], cfg.alpha, gamma)
    supports = [
        SimpleSupport(ds.frame, 1 << int(ds.labels[i]), float(w)).to_mass()
        for i, w in zip(order, weights)
    ]
    fused = combine(supports, cfg.rule)
    betp = pignistic(fused.mass).values
    return int(np.argmax(betp)), fused, betp


def per_sample_loo(ds, cfg):
    """Leave-one-out as one ``classify(points[i], exclude=i)`` per sample.

    Returns ``(predictions, kappa, errors)`` as :func:`masscomb.eknn.evaluate_loo`
    reports them: class -1 and conflict NaN where a sample failed, and
    ``(i, message)`` for each failure.
    """
    gamma = resolve_gamma(ds, cfg)
    predictions = np.full(ds.n_samples, -1, dtype=np.int64)
    kappa = np.full(ds.n_samples, np.nan)
    errors = []
    for i in range(ds.n_samples):
        try:
            result = classify(ds.points[i], ds, replace(cfg, gamma=gamma), exclude=i)
        except MassCombError as exc:
            errors.append((i, str(exc)))
            continue
        predictions[i] = result.klass
        kappa[i] = result.fused.conflict
    return predictions, kappa, tuple(errors)


def _oracle_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    u = rng.random(k)
    e = -np.log(np.maximum(u, 1e-300))
    return e / e.sum()


def _oracle_draw_general(rng, spec, arr) -> None:
    frame = spec.frame
    pool = np.asarray(
        spec.focal_pool
        if spec.focal_pool is not None
        else np.arange(1, frame.powerset_size)
    )
    count = int(rng.integers(1, len(pool) + 1))
    focals = rng.choice(pool, size=count, replace=False)
    arr[focals] = _oracle_simplex(rng, count)


def _oracle_draw_ssf(rng, spec, arr) -> None:
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


def _oracle_draw_consonant(rng, spec, arr) -> None:
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
    arr[focals] = _oracle_simplex(rng, len(focals))


def per_draw_chains(rng: np.random.Generator, spec: genrand.GenSpec, count: int) -> np.ndarray:
    """``count`` consonant rows drawn from ``rng`` one at a time by the
    original recipe, as the rows of one ``(count, 2**n)`` block."""
    block = np.zeros((count, spec.frame.powerset_size))
    for arr in block:
        _oracle_draw_consonant(rng, spec, arr)
    return block


_ORACLE_DRAWERS = {
    "general": _oracle_draw_general,
    "ssf": _oracle_draw_ssf,
    "consonant": _oracle_draw_consonant,
}


_SPLIT_FIELDS = ("focal", "weight", "chain_focal", "chain_weight", "dense", "_nonzero", "_chains", "at")


def assert_same_split(got: _Columns, values: np.ndarray) -> None:
    """``got`` equals the split of ``values`` by scan in every field, ``at``
    included, byte for byte: the check on a producer's focal cells."""
    want = _Columns.split(values, values.shape[1] - 1)
    for field in _SPLIT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


def assert_block_split(rows: list[MassFunction]) -> None:
    """The block of ``generate``'s ``rows`` splits as a scan of its values
    would; a one-row result has no block."""
    block = rows[0]._block
    if block is not None:
        assert_same_split(block.columns(), block.values)


def per_draw_generate(spec: genrand.GenSpec, count: int) -> list[MassFunction]:
    """``generate`` with a fresh row and its own ``MassFunction`` per draw,
    drawn by the original one-draw-at-a-time recipes (``rng.choice`` for
    every pick, chains built bit by bit), so it pins the PCG64 stream."""
    key = (spec.stream,) if spec.stream else ()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed, spawn_key=key)))
    draw = _ORACLE_DRAWERS[spec.kind]
    out = []
    for _ in range(count):
        for _ in range(genrand._MAX_REJECTIONS):
            arr = np.zeros(spec.frame.powerset_size)
            draw(rng, spec, arr)
            singles = arr[[1 << i for i in range(spec.frame.n)]]
            if spec.min_singleton_mass is None or singles.max() > spec.min_singleton_mass:
                break
        else:
            raise ParameterError("rejection sampling failed")
        out.append(MassFunction(spec.frame, arr))
    return out


def per_row_read_csv(path, labels=None) -> list[MassFunction]:
    """A well-formed dense CSV read one ``MassFunction`` per row."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    n = len(rows[0]).bit_length() - 1
    frame = FrameOfDiscernment(tuple(labels) if labels else FrameOfDiscernment.numbered(n).labels)
    return [
        MassFunction(frame, np.array([float(tok) for tok in row]), tol=FILE_MASS_TOL)
        for row in rows[1:]
    ]


def per_row_read_json(path) -> list[MassFunction]:
    """A well-formed sparse JSON document read one ``MassFunction`` per entry."""
    with open(path) as fh:
        doc = json.load(fh)
    frame = FrameOfDiscernment(tuple(doc["frame"]))
    out = []
    for entry in doc["bbas"]:
        values = np.zeros(frame.powerset_size)
        for members, mass in zip(entry["focal elements"], entry["masses"]):
            values[frame.subset_index(members)] = float(mass)
        out.append(MassFunction(frame, values, tol=FILE_MASS_TOL))
    return out


def csv_module_write(path, bbas) -> None:
    """The dense CSV writer as it was: :mod:`csv` over every cell's ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = bbas[0].frame.n
        writer.writerow([format(i, f"0{n}b") for i in range(1 << n)])
        for m in bbas:
            writer.writerow([repr(v) for v in m.values.tolist()])


def per_row_json_doc(bbas) -> dict:
    """The sparse JSON document built one assignment and one focal set at a time."""
    frame = bbas[0].frame
    return {
        "frame": list(frame.labels),
        "bbas": [
            {
                "focal elements": [list(frame.subset_labels(int(a))) for a in m.focal_elements()],
                "masses": [float(m.values[a]) for a in m.focal_elements()],
            }
            for m in bbas
        ],
    }
