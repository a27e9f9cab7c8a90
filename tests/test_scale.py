"""Every rule at the paper's scale: one batch of 100k sources over 8
hypotheses, simple supports with consonant rows mixed in, so that it spans
7 chunks.  The results are checked against closed forms over the
(focal, weight) components of the inputs (see ``conftest.py``), which share
no code with the rules' lattice passes and columns.
"""

import numpy as np
import pytest

from masscomb import rules
from masscomb.core import FrameOfDiscernment
from masscomb.errors import ComplexityGuardError, TotalConflictError
from masscomb.genrand import GenSpec, generate
from masscomb.rules import RuleConfig, combine

from conftest import (
    conjoined_supports,
    grouped_supports,
    per_focal_minima,
    per_focal_products,
    support_components,
)

N = 8
SOURCES = 100_000
#: Consonant rows: half with 5 proper nested sets under the frame, half
#: with a chain of every size, whose last set is the frame itself.
CONSONANT = 10_000


@pytest.fixture(scope="module")
def batch():
    frame = FrameOfDiscernment.numbered(N)
    ms = generate(GenSpec(frame, kind="ssf", seed=1, stream=1), SOURCES - CONSONANT)
    half = CONSONANT // 2
    ms += generate(GenSpec(frame, kind="consonant", num_focals=5, seed=1, stream=2), half)
    ms += generate(GenSpec(frame, kind="consonant", num_focals=N, seed=1, stream=3), half)
    order = np.random.default_rng(1).permutation(SOURCES)
    return [ms[i] for i in order]


@pytest.fixture(scope="module")
def components(batch):
    return support_components(batch)


def _max_diff(got, want) -> float:
    return float(np.max(np.abs(got - want)))


def test_batch_spans_seven_chunks(batch, components):
    assert rules._CHUNK_ROWS == 16384
    assert 6 * rules._CHUNK_ROWS < len(batch) <= 7 * rules._CHUNK_ROWS
    chained = components[2]
    # a chain of 5 drawn sizes has 4 or 5 proper sets, one of every size 7
    assert CONSONANT // 2 * (4 + N - 1) <= int(chained.sum()) <= CONSONANT // 2 * (5 + N - 1)


def test_conjunctive_is_the_product_per_focal_set(batch, components):
    focal, weight, _ = components
    got = combine(batch, RuleConfig(rule="conjunctive"))
    want = conjoined_supports(per_focal_products(focal, weight, N), N)
    assert _max_diff(got.mass.values, want) <= 1e-12
    assert got.conflict >= 1.0 - 1e-12


def test_dempster_saturates(batch):
    with pytest.raises(TotalConflictError):
        combine(batch, RuleConfig(rule="dempster"))


@pytest.mark.parametrize("rule", ["lns", "lnsa"])
def test_grouped_rules_match_grouped_products(batch, components, rule):
    cfg = RuleConfig(rule=rule)
    got = combine(batch, cfg)
    want, counts = grouped_supports(*components, N, cfg.eta, approximate=rule == "lnsa")
    assert {g.focal: g.count for g in got.groups} == {
        int(a): int(counts[a]) for a in np.flatnonzero(counts)
    }
    assert _max_diff(got.mass.values, want) <= 1e-12
    assert 0.0 < got.conflict < 0.5


def test_cautious_is_the_minimum_per_focal_set(batch, components):
    focal, weight, _ = components
    got = combine(batch, RuleConfig(rule="cautious"))
    want = conjoined_supports(per_focal_minima(focal, weight, N), N)
    assert _max_diff(got.mass.values, want) <= 1e-12


def test_average_is_the_mean(batch):
    got = combine(batch, RuleConfig(rule="average"))
    want = np.zeros(1 << N)
    for start in range(0, len(batch), 8192):
        want += np.array([m.values for m in batch[start : start + 8192]]).sum(axis=0)
    assert _max_diff(got.mass.values, want / len(batch)) <= 1e-12


@pytest.mark.parametrize("rule", ["dp", "pcr6"])
def test_enumeration_rules_refuse(batch, rule):
    with pytest.raises(ComplexityGuardError):
        combine(batch, RuleConfig(rule=rule))
