"""Segmented fusion: G independent fusions in one call, each segment bit for
bit one ``combine`` call on its rows, failing alone with that call's error."""

import numpy as np
import pytest

from masscomb import rules
from masscomb.core import FrameOfDiscernment, MassFunction, _mass_rows, _pignistic_rows, pignistic
from masscomb.errors import (
    ComplexityGuardError,
    DecompositionError,
    MassCombError,
    ParameterError,
    TotalConflictError,
)
from masscomb.rules import RULE_NAMES, RuleConfig, combine

#: Focal tuples the enumeration rules may visit: a segment of one
#: two-focal source among one-focal ones passes, one of two-focal sources
#: only does not.
_GUARD = 4

#: The failures each rule's chunks plant, which must show.
_PLANTED = {
    "dempster": {TotalConflictError},
    "dp": {ComplexityGuardError},
    "pcr6": {ComplexityGuardError, ParameterError},
    "cautious": {DecompositionError},
    "lns": {DecompositionError},
    "lnsa": {DecompositionError},
}


def _row(rng, frame, kind):
    size, full = frame.powerset_size, frame.full_set
    arr = np.zeros(size)
    if kind == "vacuous":
        arr[full] = 1.0
    elif kind == "simple":
        w = 0.05 + 0.9 * rng.random()
        arr[int(rng.integers(1, full))] = 1.0 - w
        arr[full] = w
    elif kind == "categorical":
        arr[int(rng.integers(1, full))] = 1.0
    elif kind == "chain":
        order = rng.permutation(frame.n)
        cells = np.cumsum(1 << order)
        arr[cells] = rng.dirichlet(np.ones(len(cells)))
    elif kind == "general":
        cells = rng.choice(np.arange(1, full), size=min(2, full - 1), replace=False)
        arr[cells] = 0.6 * rng.dirichlet(np.ones(len(cells)))
        arr[full] = 1.0 - arr.sum()
    elif kind == "dogmatic":
        # mass on two proper subsets, none on the frame
        arr[[1, 2]] = 0.5
    elif kind == "empty":
        arr[0], arr[full] = 0.1, 0.9
    return arr


def _segment(rng, frame, rule, k, poison):
    """The rows of one segment, with the failure ``poison`` planted or not."""
    if rule in ("dp", "pcr6"):
        # one-focal rows keep the tuple count within the guard
        kinds = ["simple"] + [str(x) for x in rng.choice(["categorical", "vacuous"], k - 1)]
    else:
        kinds = [str(x) for x in rng.choice(["simple", "vacuous", "chain", "general", "simple"], k)]
    if poison and k > 1:
        if rule in ("conjunctive", "dempster"):
            kinds[:2] = ["categorical", "categorical"]
        elif rule == "dp" or (rule == "pcr6" and rng.random() < 0.5):
            kinds = ["simple"] * k
        elif rule in ("pcr6", "disjunctive", "average"):
            kinds[-1] = "empty"
        else:
            kinds[int(rng.integers(k))] = "dogmatic"
    rows = [_row(rng, frame, kind) for kind in kinds]
    if poison and rule in ("conjunctive", "dempster") and k > 1:
        # two contradictory categorical supports
        rows[0][:], rows[1][:] = 0.0, 0.0
        rows[0][1], rows[1][2] = 1.0, 1.0
    return rows


def _fused(rule, frame, rows, k):
    cfg = RuleConfig(rule=rule, enumeration_guard=_GUARD)
    return rules._fuse(rules._FUSIONS[rule], rows, cfg, k), cfg


@pytest.mark.parametrize("rule", RULE_NAMES)
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "k, columns, chunk",
    [
        (1, False, None),
        (3, False, None),
        (3, True, None),
        (4, True, 9),  # two whole segments to a chunk
        (6, False, 4),  # each segment cut into chunks
        (6, True, 4),
    ],
)
def test_each_segment_is_one_combine_call(monkeypatch, rule, n, k, columns, chunk):
    frame = FrameOfDiscernment.numbered(n)
    cells = k * n * frame.powerset_size
    # the segment's K rows fall on either side of the column threshold
    monkeypatch.setattr(rules, "_COLUMN_MIN_CELLS", cells if columns else cells + 1)
    if chunk is not None:
        monkeypatch.setattr(rules, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng([n, k, chunk or 0, RULE_NAMES.index(rule)])
    groups = 40
    poisoned = rng.random(groups) < 0.3
    block = np.array([r for g in range(groups) for r in _segment(rng, frame, rule, k, poisoned[g])])
    rows = _mass_rows(frame, block)
    fusion, cfg = _fused(rule, frame, rows, k)
    betp, undefined = _pignistic_rows(frame, fusion.masses)
    failed, failing = [], []
    for g in range(groups):
        try:
            want = combine(rows[g * k : (g + 1) * k], cfg)
        except MassCombError as exc:
            got = fusion.errors[g]
            assert type(got) is type(exc) and str(got) == str(exc), g
            with pytest.raises(type(exc)):
                fusion.result(g)
            failed.append(type(exc))
            failing.append(g)
            continue
        assert g not in fusion.errors
        got = fusion.result(g)
        assert np.array_equal(fusion.masses[g], want.mass.values), g
        assert got.conflict == want.conflict
        assert got.groups == want.groups
        try:
            assert np.array_equal(betp[g], pignistic(want.mass).values)
        except TotalConflictError:
            assert undefined[g]
            failed.append("pignistic")
        else:
            assert not undefined[g]
    # each failing segment fails alone
    assert sorted(fusion.errors) == failing
    if k > 1:
        assert _PLANTED.get(rule, set()) <= set(failed)
        assert len(failing) < groups
    if rule == "conjunctive" and k > 1:
        assert "pignistic" in failed


@pytest.mark.parametrize("rule", ["conjunctive", "dempster", "cautious", "lns", "lnsa", "average"])
@pytest.mark.parametrize("k", [500, 600])
def test_segments_on_both_sides_of_the_column_threshold(rule, k):
    # at n = 4, 500 rows update 32,000 cells and 600 rows 38,400: the
    # threshold of 32,768 falls between them
    frame = FrameOfDiscernment.numbered(4)
    assert (500 * 4 * 16 < rules._COLUMN_MIN_CELLS) and (600 * 4 * 16 >= rules._COLUMN_MIN_CELLS)
    rng = np.random.default_rng(k)
    block = np.array([_row(rng, frame, "simple" if i % 7 else "chain") for i in range(3 * k)])
    block[k + 5] = _row(rng, frame, "dogmatic")
    rows = _mass_rows(frame, block)
    fusion, cfg = _fused(rule, frame, rows, k)
    for g in range(3):
        try:
            want = combine(rows[g * k : (g + 1) * k], cfg)
        except MassCombError as exc:
            assert str(fusion.errors[g]) == str(exc) and type(fusion.errors[g]) is type(exc)
            continue
        assert np.array_equal(fusion.masses[g], want.mass.values)


def test_batched_pignistic_equals_one_call_per_row():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 9):
        frame = FrameOfDiscernment.numbered(n)
        raw = rng.dirichlet(np.ones(frame.powerset_size), size=20)
        raw[3] = 0.0
        raw[3, 0] = 1.0
        ms = [MassFunction(frame, row) for row in raw]
        betp, undefined = _pignistic_rows(frame, np.array([m.values for m in ms]))
        for m, b, u in zip(ms, betp, undefined):
            if u:
                with pytest.raises(TotalConflictError):
                    pignistic(m)
            else:
                assert np.array_equal(b, pignistic(m).values)
        assert undefined.tolist() == [i == 3 for i in range(20)]
