"""Shared fixtures and independent oracles.

The oracles evaluate the defining sums directly (focal-tuple enumeration,
naive subset/superset sums) so they share no code path with the lattice
implementations they check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from masscomb.core import FrameOfDiscernment, MassFunction


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
