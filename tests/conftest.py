"""Shared fixtures and independent oracles.

The rule oracles evaluate the defining sums directly (focal-tuple
enumeration, naive subset/superset sums) so they share no code path with the
lattice implementations they check.  The dense oracles keep the lattice
paths that the column forms of the conjunctive and cautious rules replaced.
The producer oracles build one assignment at a time, as the producers did
before they filled one block, and the decomposition oracle decomposes one
assignment on its own, so a batched result must equal them bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np
import pytest

from masscomb import genrand
from masscomb.core import (
    FrameOfDiscernment,
    MassFunction,
    WeightVector,
    _moebius_superset,
    _zeta_superset,
    as_simple_support,
    pignistic,
)
from masscomb.eknn import neighbor_bba, resolve_gamma
from masscomb.errors import (
    DecompositionError,
    EncodingError,
    InvalidWeightVectorError,
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


def per_neighbour_classify(x, ds, cfg, *, exclude=None):
    """EkNN with one ``neighbor_bba(...).to_mass()`` per neighbour.

    Returns ``(klass, fused, betp)``.
    """
    x = np.asarray(x, dtype=float)
    gamma = resolve_gamma(ds, cfg)
    dist = np.sqrt(((ds.points - x) ** 2).sum(axis=1))
    if exclude is not None:
        dist[exclude] = np.inf
    order = np.argsort(dist, kind="stable")[: cfg.k]
    supports = [
        neighbor_bba(ds.frame, float(dist[i]), int(ds.labels[i]), cfg, gamma).to_mass()
        for i in order
    ]
    fused = combine(supports, cfg.rule)
    betp = pignistic(fused.mass).values
    return int(np.argmax(betp)), fused, betp


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


_ORACLE_DRAWERS = {
    "general": _oracle_draw_general,
    "ssf": _oracle_draw_ssf,
    "consonant": _oracle_draw_consonant,
}


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
