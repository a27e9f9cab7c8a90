"""Combination rules: worked examples, oracle equivalence, and algebraic properties."""

import functools
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masscomb.rules as rules_mod
from masscomb import core

from masscomb.core import FrameOfDiscernment, MassFunction, SimpleSupport, _mass_rows, _simple_supports
from masscomb.genrand import GenSpec, generate
from masscomb.errors import (
    ComplexityGuardError,
    DecompositionError,
    EncodingError,
    InvalidWeightVectorError,
    MassCombError,
    NotSeparableError,
    ParameterError,
    TotalConflictError,
)
from masscomb.rules import (
    RULE_NAMES,
    RuleConfig,
    combine,
    combine_average,
    combine_cautious,
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    combine_dp,
    combine_lns,
    combine_lnsa,
    combine_pcr6,
)

from conftest import (
    TINY_WEIGHT_N4,
    WIDE_WEIGHTS_N4,
    approx_equal,
    brute_conjunctive,
    brute_disjunctive,
    brute_dp,
    brute_pcr6,
    dense_cautious,
    dense_conjunctive,
    opposed_halves,
    opposed_halves_dempster,
    random_mass,
    row_by_row_average,
    single_row_decompose,
)


def lns_groups(ssfs, cfg=None):
    """The groups :func:`combine_lns` forms from simple supports."""
    return list(combine_lns([s.to_mass() for s in ssfs], cfg).groups)


@pytest.fixture
def pair(frame2):
    return [
        MassFunction(frame2, [0, 0.5, 0.2, 0.3]),
        MassFunction(frame2, [0, 0.1, 0.6, 0.3]),
    ]


def six_sources(frame3):
    ws = (0.88, 0.84, 0.85, 0.89, 0.86)
    ms = [SimpleSupport(frame3, 1, w).to_mass() for w in ws]
    ms.append(SimpleSupport(frame3, 2, 0.05).to_mass())
    return ms


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


class TestConjunctive:
    def test_pair_example(self, pair):
        res = combine_conjunctive(pair)
        assert np.max(np.abs(res.mass.values - [0.32, 0.23, 0.36, 0.09])) <= 1e-12
        assert math.isclose(res.conflict, 0.32, abs_tol=1e-12)

    def test_vacuous_neutral(self, frame3):
        rng = np.random.default_rng(0)
        m = random_mass(rng, frame3)
        res = combine_conjunctive([m, MassFunction.vacuous(frame3)])
        assert approx_equal(res.mass, m, tol=1e-12)

    def test_associative(self, frame2):
        rng = np.random.default_rng(1)
        ms = [random_mass(rng, frame2) for _ in range(3)]
        once = combine_conjunctive(ms).mass
        nested = combine_conjunctive([combine_conjunctive(ms[:2]).mass, ms[2]]).mass
        assert approx_equal(once, nested, tol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            combine_conjunctive([])

    def test_frame_mismatch(self, frame2, frame3):
        with pytest.raises(EncodingError):
            combine_conjunctive([MassFunction.vacuous(frame2), MassFunction.vacuous(frame3)])

    def test_equal_frames_need_not_be_one_object(self, frame2):
        twin = FrameOfDiscernment.numbered(2)
        assert twin == frame2 and twin is not frame2
        got = combine_conjunctive([SimpleSupport(frame2, 1, 0.4).to_mass(),
                                   SimpleSupport(twin, 1, 0.5).to_mass()])
        assert math.isclose(got.mass[1], 1 - 0.4 * 0.5, abs_tol=1e-15)


class TestDempster:
    def test_pair_example(self, pair):
        res = combine_dempster(pair)
        expect = np.array([0, 0.23, 0.36, 0.09]) / 0.68
        expect[0] = 0
        assert np.max(np.abs(res.mass.values - expect)) <= 1e-12
        assert res.conflict == 0.0

    def test_total_conflict(self, frame2):
        a = MassFunction.categorical(frame2, 1)
        b = MassFunction.categorical(frame2, 2)
        with pytest.raises(TotalConflictError):
            combine_dempster([a, b])

    def test_near_saturation_normalises_to_closed_form(self, frame2):
        # conflict (1 - e)**2 is about 1 - 7e-9: 1 - conflict is mostly rounding error
        k = 28
        e = 0.5**k
        ms = [SimpleSupport(frame2, 1, 0.5).to_mass()] * k
        ms += [SimpleSupport(frame2, 2, 0.5).to_mass()] * k
        res = combine_dempster(ms)
        expect = np.array([0.0, 1 - e, 1 - e, e]) / (2 - e)
        assert np.max(np.abs(res.mass.values - expect)) <= 1e-12


class TestNearSaturation:
    """Conflict from 1 - 1e-3 to 1 - 1e-12, the band just short of the guard,
    at the source counts of the paper's experiments."""

    @pytest.mark.parametrize("count", [1_000, 10_000, 100_000])
    @pytest.mark.parametrize("n", [2, 8])
    def test_dempster_follows_the_closed_form(self, n, count):
        frame = FrameOfDiscernment.numbered(n)
        eps = np.finfo(float).eps
        for k in range(3, 13):
            ms = opposed_halves(frame, count, k)
            want = opposed_halves_dempster(ms)
            got = combine_dempster(ms).mass.values
            assert np.max(np.abs(got - want)) <= 1e-12, k
            # the smallest mass, m(Θ) about 10**-k / 4, comes from a sum of
            # count logs: its relative error may grow as count * eps
            small = want[frame.full_set]
            rel = abs(got[frame.full_set] - small) / small
            assert rel <= count * eps * abs(math.log(small)), (k, rel)


class TestDisjunctive:
    def test_pair_example(self, pair):
        res = combine_disjunctive(pair)
        assert np.max(np.abs(res.mass.values - [0, 0.05, 0.12, 0.83])) <= 1e-12
        assert res.conflict == 0.0

    def test_vacuous_absorbs(self, frame2):
        rng = np.random.default_rng(2)
        m = random_mass(rng, frame2)
        res = combine_disjunctive([m, MassFunction.vacuous(frame2)])
        assert res.mass.is_vacuous
        both = combine_disjunctive([MassFunction.vacuous(frame2)] * 2)
        assert both.mass.is_vacuous


class TestDP:
    def test_pair_example(self, pair):
        res = combine_dp(pair)
        assert np.max(np.abs(res.mass.values - [0, 0.23, 0.36, 0.41])) <= 1e-12
        assert res.conflict == 0.0

    def test_single_input_identity(self, frame2):
        rng = np.random.default_rng(3)
        m = random_mass(rng, frame2)
        assert approx_equal(combine_dp([m]).mass, m, tol=0)

    def test_guard(self, frame3):
        rng = np.random.default_rng(4)
        ms = [random_mass(rng, frame3) for _ in range(4)]
        with pytest.raises(ComplexityGuardError):
            combine_dp(ms, RuleConfig(rule="dp", enumeration_guard=2))


class TestPCR6:
    def test_pair_example(self, pair):
        res = combine_pcr6(pair)
        expect = [0, 0.23 + 0.3 * 0.5 / 1.1 + 0.02 * 0.1 / 0.3,
                  0.36 + 0.3 * 0.6 / 1.1 + 0.02 * 0.2 / 0.3, 0.09]
        assert np.max(np.abs(res.mass.values - expect)) <= 1e-12
        assert np.max(np.abs(res.mass.values - [0, 0.3730303, 0.5369697, 0.09])) <= 1e-7

    def test_no_conflict_equals_conjunctive(self, frame3):
        # strongly consistent sources: every focal contains theta1
        ms = [
            MassFunction.from_dict(frame3, {1: 0.4, 3: 0.3, 7: 0.3}),
            MassFunction.from_dict(frame3, {5: 0.5, 7: 0.5}),
        ]
        a = combine_pcr6(ms).mass
        b = combine_conjunctive(ms).mass
        assert approx_equal(a, b, tol=1e-12)

    def test_needs_two_sources(self, frame2):
        with pytest.raises(ParameterError):
            combine_pcr6([MassFunction.vacuous(frame2)])

    def test_empty_set_mass_rejected(self, frame2):
        # its share of a conflict would have nowhere to go and the result
        # would sum to 0.7525
        ms = [MassFunction(frame2, [0, 0, 0.6, 0.4]), MassFunction(frame2, [0.5, 0.5, 0, 0])]
        with pytest.raises(ParameterError, match="source 1"):
            combine_pcr6(ms)

    def test_pairwise_matches_hand_formula(self, frame2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m1 = random_mass(rng, frame2)
            m2 = random_mass(rng, frame2)
            out = np.array(brute_conjunctive([m1, m2]))
            kappa_terms = [
                (int(a), int(b), float(m1.values[a] * m2.values[b]))
                for a in m1.focal_elements()
                for b in m2.focal_elements()
                if int(a) & int(b) == 0
            ]
            expect = out.copy()
            expect[0] = 0.0
            for a, b, p in kappa_terms:
                d = m1.values[a] + m2.values[b]
                if a:
                    expect[a] += m1.values[a] * p / d
                if b:
                    expect[b] += m2.values[b] * p / d
            got = combine_pcr6([m1, m2]).mass.values
            assert np.max(np.abs(got - expect)) <= 1e-12


class TestCautious:
    def test_shared_focal_takes_min(self, frame2):
        a = SimpleSupport(frame2, 1, 0.88).to_mass()
        b = SimpleSupport(frame2, 1, 0.84).to_mass()
        res = combine_cautious([a, b])
        assert approx_equal(res.mass, SimpleSupport(frame2, 1, 0.84).to_mass(), tol=1e-12)

    def test_idempotent(self, frame3):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_mass(rng, frame3, min_frame_mass=0.05)
            assert approx_equal(combine_cautious([m, m]).mass, m, tol=1e-9)

    def test_dogmatic_rejected(self, frame2):
        with pytest.raises(DecompositionError):
            combine_cautious([MassFunction.categorical(frame2, 1)] * 2)

    @pytest.mark.parametrize("values", [WIDE_WEIGHTS_N4, TINY_WEIGHT_N4], ids=["overflow", "underflow"])
    def test_idempotent_past_the_float_range_of_the_weights(self, values):
        # log weights from -459 to 914, and from -886 to 593: one weight of
        # each overflows or underflows a float
        m = MassFunction(FrameOfDiscernment.numbered(4), values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = combine([m, m], RuleConfig(rule="cautious"))
        assert np.abs(res.mass.values - m.values).max() <= 1e-9


class TestAverage:
    def test_pair_example(self, pair):
        res = combine_average(pair)
        assert np.max(np.abs(res.mass.values - [0, 0.3, 0.4, 0.3])) <= 1e-12

    def test_identical_inputs(self, frame3):
        rng = np.random.default_rng(7)
        m = random_mass(rng, frame3)
        assert approx_equal(combine_average([m] * 5).mass, m, tol=1e-12)


def _average_lists(n: int, seed: int) -> dict[str, list[MassFunction]]:
    """Lists of producer rows: whole blocks of every kind in producer order,
    head and tail slices joined across blocks, and loose rows among them."""
    frame = FrameOfDiscernment.numbered(n)
    rng = np.random.default_rng(seed)
    ssf = generate(GenSpec(frame, kind="ssf", seed=seed, stream=1), 300)
    chains = generate(GenSpec(frame, kind="consonant", num_focals=min(3, n), seed=seed, stream=2), 200)
    vacuous = generate(GenSpec(frame, kind="ssf", focal_pool=(frame.full_set,), seed=seed), 30)
    categorical = _simple_supports(frame, rng.integers(1, frame.full_set, size=40), np.zeros(40))
    general = generate(GenSpec(frame, kind="general", seed=seed, stream=3), 50)
    loose = [MassFunction(frame, m.values) for m in (ssf[7], chains[3], general[0])]
    # one block of simple supports, chains and vacuous rows in turn, as a reader makes it
    mixed = _mass_rows(frame, np.array([m.values for trio in zip(ssf, chains, vacuous) for m in trio]))
    return {
        "whole": ssf + chains + vacuous + categorical + general,
        "columns only": vacuous + ssf + categorical + chains,
        "slices": ssf[170:] + chains[:150] + categorical[9:] + general[:20] + chains[150:],
        "loose": loose[:1] + ssf[:200] + loose[1:] + chains + loose,
        "one mid-slice": ssf[40:260],
        "mixed": mixed[5:] + ssf[:100] + mixed[:5],
    }


class TestAverageRowByRow:
    """``average`` sums each subset's masses row by row in input order,
    from columns or dense rows alike."""

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_stacked_sum(self, n, seed):
        fresh, again = _average_lists(n, seed), _average_lists(n, seed)
        for name, ms in fresh.items():
            want = row_by_row_average(ms, rules_mod._CHUNK_ROWS).tobytes()
            assert combine_average(ms).mass.values.tobytes() == want, name
            # after another rule has split every block
            rules_mod._split_rows(again[name])
            assert combine_average(again[name]).mass.values.tobytes() == want, name

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_past_the_chunk_size(self, monkeypatch, chunk):
        ms = _average_lists(8, 4)["whole"]
        rules_mod._split_rows(ms[:200])
        monkeypatch.setattr(rules_mod, "_CHUNK_ROWS", chunk)
        assert combine_average(ms).mass.values.tobytes() == row_by_row_average(ms, chunk).tobytes()

    def test_numpy_sums_axis_0_row_by_row(self):
        # the order every average rests on: numpy's axis-0 sum of a C-ordered
        # stack adds row by row, and bincount adds its entries in order
        rng = np.random.default_rng(11)
        x = rng.random((1000, 16)) * 10.0 ** rng.integers(-8, 8, size=(1000, 1))
        acc = x[0].copy()
        for row in x[1:]:
            acc += row
        assert np.add.reduce(x, axis=0).tobytes() == acc.tobytes()
        assert np.add.reduce(x[::-1], axis=0).tobytes() != acc.tobytes()  # the order shows
        cells = rng.integers(0, 16, size=x.size)
        bins = np.zeros(16)
        for cell, value in zip(cells.tolist(), x.ravel().tolist()):
            bins[cell] += value
        assert np.bincount(cells, x.ravel(), minlength=16).tobytes() == bins.tobytes()


# ---------------------------------------------------------------------------
# Six-source showcase (published reference values)
# ---------------------------------------------------------------------------


SIX_SOURCE_TABLE = {
    "conjunctive": [0.49313, 0.02595, 0.45687, 0, 0, 0, 0, 0.02405],
    "dempster": [0, 0.05120, 0.90136, 0, 0, 0, 0, 0.04744],
    "disjunctive": [0, 0, 0, 0.00004, 0, 0, 0, 0.99996],
    "dp": [0, 0.02595, 0.45687, 0.49313, 0, 0, 0, 0.02405],
    "pcr6": [0, 0.04783, 0.56639, 0, 0, 0, 0, 0.38578],
    "cautious": [0.15200, 0.00800, 0.79800, 0, 0, 0, 0, 0.04200],
    "average": [0, 0.11333, 0.15833, 0, 0, 0, 0, 0.72833],
    "lns": [0.06849, 0.36408, 0.08984, 0, 0, 0, 0, 0.47759],
}


@pytest.mark.parametrize("rule", sorted(SIX_SOURCE_TABLE))
def test_six_source_reference_values(frame3, rule):
    res = combine(six_sources(frame3), RuleConfig(rule=rule))
    assert np.max(np.abs(res.mass.values - SIX_SOURCE_TABLE[rule])) <= 1e-5


def test_six_source_pignistic_ordering(frame3):
    from masscomb.core import pignistic

    res = combine_lns(six_sources(frame3))
    bp = pignistic(res.mass).values
    assert bp[0] > bp[1]  # the majority singleton wins the decision


# ---------------------------------------------------------------------------
# Grouped rules
# ---------------------------------------------------------------------------


class TestRuleConfig:
    @pytest.mark.parametrize(
        "params",
        [
            {"rule": "bogus"},
            {"rule": "LNS"},
            {"eta": -1.0},
            {"eta": math.inf},
            {"eta": math.nan},
            {"eta": -math.inf},
            {"rule": ""},
            {"enumeration_guard": -1},
            {"enumeration_guard": 0},
        ],
    )
    def test_bad_parameters_rejected(self, params):
        with pytest.raises(ParameterError):
            RuleConfig(**params)

    def test_no_lambda_field(self):
        # the rules take no conflict-based reliability shape
        with pytest.raises(TypeError):
            RuleConfig(lam=1.0)

    def test_no_global_rule_field(self):
        # the global stage of lns/lnsa is always the conjunction
        with pytest.raises(TypeError):
            RuleConfig(global_rule="dp")

    def test_no_vacuous_denominator_field(self):
        # fully ignorant inputs never change an lns result, so they take no share
        with pytest.raises(TypeError):
            RuleConfig(vacuous_in_denominator=True)


class TestGrouping:
    def test_six_source_groups(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, w) for w in (0.88, 0.84, 0.85, 0.89, 0.86)]
        ssfs.append(SimpleSupport(frame3, 2, 0.05))
        groups = {g.focal: g for g in lns_groups(ssfs)}
        assert groups[1].count == 5
        assert math.isclose(groups[1].inner_weight, 0.88 * 0.84 * 0.85 * 0.89 * 0.86, abs_tol=1e-12)
        assert math.isclose(groups[1].alpha, 5 / 6, abs_tol=1e-12)
        assert groups[2].count == 1
        assert math.isclose(groups[2].inner_weight, 0.05, abs_tol=1e-15)
        assert math.isclose(groups[2].alpha, 1 / 6, abs_tol=1e-12)

    def test_all_vacuous(self, frame3):
        groups = lns_groups([SimpleSupport(frame3, frame3.full_set, 1.0)] * 3)
        assert len(groups) == 1
        assert groups[0].focal == frame3.full_set
        assert groups[0].alpha == 0.0
        assert groups[0].count == 3

    def test_precision_weighting(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 2 + [SimpleSupport(frame3, 6, 0.5)] * 2
        groups = {g.focal: g for g in lns_groups(ssfs, RuleConfig(rule="lns", eta=1.0))}
        assert math.isclose(groups[1].alpha, 2 / 3, abs_tol=1e-12)
        assert math.isclose(groups[6].alpha, 1 / 3, abs_tol=1e-12)

    def test_eta_zero_is_count_share(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 2 + [SimpleSupport(frame3, 6, 0.5)] * 2
        groups = {g.focal: g for g in lns_groups(ssfs, RuleConfig(rule="lns", eta=0.0))}
        assert math.isclose(groups[1].alpha, 0.5, abs_tol=1e-12)
        assert math.isclose(groups[6].alpha, 0.5, abs_tol=1e-12)

    def test_group_counts_cover_non_vacuous_inputs(self, frame3):
        rng = np.random.default_rng(8)
        ssfs = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), float(rng.random()))
            for _ in range(40)
        ] + [SimpleSupport(frame3, frame3.full_set, 1.0)] * 5
        groups = lns_groups(ssfs)
        proper = sum(g.count for g in groups if g.focal != frame3.full_set)
        assert proper == 40

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            lns_groups([])

    def test_mixed_frames_rejected(self, frame2, frame3):
        with pytest.raises(EncodingError):
            lns_groups([SimpleSupport(frame3, 1, 0.5), SimpleSupport(frame2, 1, 0.5)])
        # equal frames need not be one object
        twin = FrameOfDiscernment.numbered(3)
        groups = lns_groups([SimpleSupport(frame3, 1, 0.5), SimpleSupport(twin, 1, 0.5)])
        assert groups[0].count == 2

    def test_zero_and_unit_weights(self, frame3):
        rng = np.random.default_rng(11)
        ssfs = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), float(rng.random()))
            for _ in range(20)
        ]
        ssfs += [SimpleSupport(frame3, 3, 0.0), SimpleSupport(frame3, 5, 0.0)]
        ssfs += [SimpleSupport(frame3, frame3.full_set, 1.0), SimpleSupport(frame3, 2, 1.0)]
        rng.shuffle(ssfs)
        inner = {g.focal: g.inner_weight for g in lns_groups(ssfs)}
        assert inner[3] == inner[5] == 0.0
        assert inner[frame3.full_set] == 1.0

    def test_vacuous_inputs_take_no_share(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 3 + [SimpleSupport(frame3, frame3.full_set, 1.0)]
        groups = {g.focal: g for g in lns_groups(ssfs)}
        assert math.isclose(groups[1].alpha, 1.0, abs_tol=1e-15)
        assert groups[frame3.full_set].alpha == 0.0


class TestLns:
    def test_derived_example(self, frame2):
        ms = [SimpleSupport(frame2, 1, 0.7).to_mass()] * 4 + [SimpleSupport(frame2, 2, 0.7).to_mass()]
        res = combine_lns(ms)
        expect = [0.0364752, 0.5714448, 0.0235248, 0.3685552]
        assert np.max(np.abs(res.mass.values - expect)) <= 1e-12

    def test_vacuous_inputs_neutral(self, frame3):
        rng = np.random.default_rng(9)
        ms = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), float(rng.random())).to_mass()
            for _ in range(12)
        ]
        base = combine_lns(ms)
        padded = combine_lns(ms + [MassFunction.vacuous(frame3)] * 4)
        assert np.max(np.abs(base.mass.values - padded.mass.values)) <= 1e-12

    def test_separable_input_equivalent_to_its_components(self, frame3):
        # a separable non-simple input behaves like its component supports
        parts = [SimpleSupport(frame3, 1, 0.6), SimpleSupport(frame3, 3, 0.8)]
        product = combine_conjunctive([p.to_mass() for p in parts]).mass
        other = [SimpleSupport(frame3, 2, 0.5).to_mass()]
        via_mass = combine_lns([product] + other)
        via_parts = combine_lns([p.to_mass() for p in parts] + other)
        assert np.max(np.abs(via_mass.mass.values - via_parts.mass.values)) <= 1e-9

    def test_not_separable_rejected(self, frame2):
        bad = MassFunction(frame2, [0, 0.4, 0.2, 0.4])  # inverse component on {}
        with pytest.raises((NotSeparableError, ParameterError)):
            combine_lns([bad])

    def test_inverse_weight_names_subset(self, frame3):
        # equal mass on two overlapping pairs gives weight 1.8 on their shared singleton
        mixed = MassFunction.from_dict(frame3, {3: 0.4, 5: 0.4, 7: 0.2})
        with pytest.raises(NotSeparableError) as err:
            combine_lns([mixed])
        assert err.value.subset == 1

    def test_conjunction_of_supports_stays_separable(self, frame3):
        a = SimpleSupport(frame3, 3, 0.3).to_mass()
        b = SimpleSupport(frame3, 6, 0.3).to_mass()
        mixed = combine_conjunctive([a, b]).mass
        res = combine_lns([mixed])
        assert math.isclose(float(res.mass.values.sum()), 1.0, abs_tol=1e-9)

    def test_step_timings_present(self, frame3):
        res = combine_lns(six_sources(frame3))
        assert set(res.step_seconds) == {"decompose", "inner_combine", "discount", "global_combine"}

    def test_all_vacuous_inputs(self, frame3):
        res = combine_lns([MassFunction.vacuous(frame3)] * 4)
        assert res.mass.is_vacuous
        assert res.conflict == 0.0
        assert len(res.groups) == 1 and res.groups[0].focal == frame3.full_set

    def test_single_support_passes_through(self, frame3):
        m = SimpleSupport(frame3, 3, 0.4).to_mass()
        res = combine_lns([m])
        assert approx_equal(res.mass, m, tol=1e-12)


class TestOneGroup:
    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    def test_result_is_the_groups_own_simple_support(self, frame3, rule):
        ms = [SimpleSupport(frame3, 1, w).to_mass() for w in (0.3, 0.5, 0.8)]
        res = combine(ms, RuleConfig(rule=rule))
        (group,) = res.groups
        assert group.alpha == 1.0
        # the approximate rule enters the group with inner weight 0
        inner = 0.0 if group.inner_weight is None else group.inner_weight
        weight = 1.0 - group.alpha + group.alpha * inner
        assert np.array_equal(res.mass.values, SimpleSupport(frame3, 1, weight).to_mass().values)

    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    @pytest.mark.parametrize(
        "global_rule",
        ["average", "cautious", "conjunctive", "dempster", "disjunctive", "dp", "pcr6"],
    )
    def test_every_global_rule_is_the_identity(self, frame3, rule, global_rule):
        # sources built by any rule from supports of {theta1} form one group,
        # and one group passes the global stage as its own simple support
        pairs = [(0.3, 0.5), (0.5, 0.8), (0.8, 0.3)]
        ms = [
            combine(
                [SimpleSupport(frame3, 1, a).to_mass(), SimpleSupport(frame3, 1, b).to_mass()],
                RuleConfig(rule=global_rule),
            ).mass
            for a, b in pairs
        ]
        res = combine(ms, RuleConfig(rule=rule))
        (group,) = res.groups
        assert (group.focal, group.count, group.alpha) == (1, 3, 1.0)
        inner = 0.0 if group.inner_weight is None else group.inner_weight
        weight = 1.0 - group.alpha + group.alpha * inner
        assert np.array_equal(res.mass.values, SimpleSupport(frame3, 1, weight).to_mass().values)


    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    def test_one_group_segment_is_its_simple_support(self, frame3, rule):
        # the middle segment forms one group, its neighbours two each
        rows = [
            SimpleSupport(frame3, focal, w).to_mass()
            for focal, w in [(1, 0.3), (2, 0.6), (1, 0.4), (4, 0.7), (1, 0.2), (1, 0.9), (2, 0.5), (6, 0.8)]
        ]
        fusion = rules_mod._fuse(rules_mod._FUSIONS[rule], rows, RuleConfig(rule=rule), 2)
        assert not fusion.errors
        (group,) = fusion.result(2).groups
        inner = 0.0 if group.inner_weight is None else group.inner_weight
        weight = 1.0 - group.alpha + group.alpha * inner
        assert np.array_equal(fusion.masses[2], SimpleSupport(frame3, 1, weight).to_mass().values)
        for g in range(4):
            want = combine(rows[2 * g : 2 * g + 2], RuleConfig(rule=rule))
            assert np.array_equal(fusion.masses[g], want.mass.values)


class TestEtaOverflow:
    """A precision weight (n / |A|)**eta * count past the float range is
    refused, naming eta and the frame size; every smaller eta still fuses."""

    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    @pytest.mark.parametrize("eta", [341.0, 400.0])
    @pytest.mark.parametrize("focals", [(1, 1), (1, 2)], ids=["one-group", "two-groups"])
    def test_refused(self, rule, eta, focals):
        frame = FrameOfDiscernment.numbered(8)
        ms = [SimpleSupport(frame, a, 0.5).to_mass() for a in focals]
        with pytest.raises(ParameterError, match=f"eta {eta!r} is too large for 8 hypotheses"):
            combine(ms, RuleConfig(rule=rule, eta=eta))

    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    @pytest.mark.parametrize("focals", [(1,), (1, 1), (1, 2)])
    def test_largest_eta_that_fits(self, rule, focals):
        # 8**341 fits and 8**341 * 2 does not; 8**340 * 2 fits.  Each share
        # is 1 or 1/2 whatever eta, so the result is the one at eta = 1.
        frame = FrameOfDiscernment.numbered(8)
        ms = [SimpleSupport(frame, a, 0.5).to_mass() for a in focals]
        eta = 341.0 if len(focals) == 1 else 340.0
        got = combine(ms, RuleConfig(rule=rule, eta=eta))
        assert np.array_equal(got.mass.values, combine(ms, RuleConfig(rule=rule)).mass.values)

    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    def test_a_segment_overflows_alone(self, rule):
        frame = FrameOfDiscernment.numbered(8)
        s, t = SimpleSupport(frame, 1, 0.5).to_mass(), SimpleSupport(frame, 2, 0.3).to_mass()
        vacuous = MassFunction.vacuous(frame)
        rows = [s, vacuous, s, s, t, vacuous]
        cfg = RuleConfig(rule=rule, eta=341.0)
        fusion = rules_mod._fuse(rules_mod._FUSIONS[rule], rows, cfg, 2)
        assert list(fusion.errors) == [1]
        for g in range(3):
            try:
                want = combine(rows[2 * g : 2 * g + 2], cfg)
            except ParameterError as exc:
                assert type(fusion.errors[g]) is ParameterError and str(fusion.errors[g]) == str(exc)
                continue
            assert np.array_equal(fusion.masses[g], want.mass.values)


class TestLnsa:
    def test_groups_survive_a_pickle_round_trip(self, frame3):
        ms = six_sources(frame3) + [MassFunction.vacuous(frame3)]
        groups = combine(ms, RuleConfig(rule="lnsa")).groups
        assert all(g.inner_weight is None for g in groups)
        assert pickle.loads(pickle.dumps(groups)) == groups

    def test_derived_example(self, frame2):
        ms = [SimpleSupport(frame2, 1, 0.7).to_mass()] * 4 + [SimpleSupport(frame2, 2, 0.7).to_mass()]
        res = combine_lnsa(ms)
        assert np.max(np.abs(res.mass.values - [0.16, 0.64, 0.04, 0.16])) <= 1e-12

    def test_single_group_becomes_categorical(self, frame3):
        ms = [SimpleSupport(frame3, 1, 0.3).to_mass(), SimpleSupport(frame3, 1, 0.9).to_mass()]
        res = combine_lnsa(ms)
        assert approx_equal(res.mass, MassFunction.categorical(frame3, 1), tol=1e-12)

    def test_small_sample_differs_from_exact_but_alphas_match(self, frame3):
        ms = six_sources(frame3)
        exact = combine_lns(ms)
        approx = combine_lnsa(ms)
        assert not approx_equal(exact.mass, approx.mass, tol=1e-3)
        a1 = {g.focal: g.alpha for g in exact.groups}
        a2 = {g.focal: g.alpha for g in approx.groups}
        assert a1 == a2
        assert math.isclose(a1[1], 5 / 6, abs_tol=1e-12)

    def test_converges_to_exact_for_large_groups(self, frame3):
        rng = np.random.default_rng(11)
        ms = [SimpleSupport(frame3, 1, float(rng.random() * 0.9)).to_mass() for _ in range(250)]
        ms += [SimpleSupport(frame3, 6, float(rng.random() * 0.9)).to_mass() for _ in range(200)]
        exact = combine_lns(ms)
        approx = combine_lnsa(ms)
        assert np.max(np.abs(exact.mass.values - approx.mass.values)) <= 1e-9


class TestMajorityMonotonicity:
    def test_lnsa_closed_form(self, frame2):
        s2 = 10
        for t in (1, 2, 3, 4):
            ms = [SimpleSupport(frame2, 1, 0.7).to_mass()] * (t * s2)
            ms += [SimpleSupport(frame2, 2, 0.7).to_mass()] * s2
            res = combine_lnsa(ms)
            expect_kappa = (t / (t + 1)) * (1 / (t + 1))
            expect_m1 = (t / (t + 1)) ** 2
            assert abs(res.conflict - expect_kappa) <= 1e-15
            assert abs(res.mass.values[1] - expect_m1) <= 1e-15

    @pytest.mark.parametrize("fn", [combine_lns, combine_lnsa])
    def test_strictly_monotone_in_majority(self, frame2, fn):
        s2 = 10
        kappas, masses = [], []
        for t in (1, 2, 3, 4):
            ms = [SimpleSupport(frame2, 1, 0.7).to_mass()] * (t * s2)
            ms += [SimpleSupport(frame2, 2, 0.7).to_mass()] * s2
            res = fn(ms)
            kappas.append(res.conflict)
            masses.append(float(res.mass.values[1]))
        assert all(a > b for a, b in zip(kappas, kappas[1:]))
        assert all(a < b for a, b in zip(masses, masses[1:]))


class TestEtaMonotonicity:
    def test_alpha_shares_move_with_eta(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 3 + [SimpleSupport(frame3, 6, 0.5)] * 5
        a_small, a_big = [], []
        for eta in np.linspace(0.0, 6.0, 13):
            groups = {g.focal: g for g in lns_groups(ssfs, RuleConfig(rule="lns", eta=float(eta)))}
            a_small.append(groups[1].alpha)  # |A| = 1
            a_big.append(groups[6].alpha)  # |A| = 2
        assert all(x <= y + 1e-15 for x, y in zip(a_small, a_small[1:]))
        assert all(x >= y - 1e-15 for x, y in zip(a_big, a_big[1:]))


class TestAbsorbingElement:
    def test_conjunctive_saturates_but_lns_does_not(self, frame2):
        from masscomb.core import pignistic
        from masscomb.genrand import GenSpec, generate

        majority = generate(
            GenSpec(frame2, kind="ssf", focal_pool=(1,), min_singleton_mass=0.5, seed=21), 75
        )
        minority = generate(
            GenSpec(frame2, kind="ssf", focal_pool=(2,), min_singleton_mass=0.5, seed=22), 25
        )
        ms = majority + minority
        conj = combine_conjunctive(ms)
        assert conj.conflict >= 1 - 1e-9
        with pytest.raises(TotalConflictError):
            combine_dempster(ms)
        res = combine_lns(ms)
        assert res.conflict <= 0.9
        assert int(np.argmax(pignistic(res.mass).values)) == 0


# ---------------------------------------------------------------------------
# Oracle equivalence and conservation properties
# ---------------------------------------------------------------------------


class TestOracleEquivalence:
    def test_conjunctive_and_disjunctive_match_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            frame = FrameOfDiscernment.numbered(n)
            count = int(rng.integers(1, 6))
            ms = [random_mass(rng, frame, max_focals=4) for _ in range(count)]
            conj = combine_conjunctive(ms).mass.values
            disj = combine_disjunctive(ms).mass.values
            assert np.max(np.abs(conj - brute_conjunctive(ms))) <= 1e-12
            assert np.max(np.abs(disj - brute_disjunctive(ms))) <= 1e-12


class TestEnumerationOracle:
    """dp and pcr6 against the tuple-by-tuple loops, bit for bit."""

    @staticmethod
    def _batches(seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            n = int(rng.integers(1, 5))
            frame = FrameOfDiscernment.numbered(n)
            k = int(rng.integers(1, 8))
            kind = i % 3
            yield [
                random_mass(
                    rng,
                    frame,
                    max_focals=3,
                    allow_empty=kind == 0,
                    min_frame_mass=0.2 if kind == 1 else None,
                )
                for _ in range(k)
            ]

    @staticmethod
    def _check(ms):
        frame = ms[0].frame
        want = brute_dp(ms)
        if len(ms) > 1:
            # the rule validates, and so renormalises, what it enumerated
            want = MassFunction(frame, want).values
        assert np.array_equal(combine_dp(ms).mass.values, want)
        if len(ms) < 2 or any(m.conflict > 0 for m in ms):
            with pytest.raises(ParameterError):
                combine_pcr6(ms)
        else:
            assert np.array_equal(
                combine_pcr6(ms).mass.values, MassFunction(frame, brute_pcr6(ms)).values
            )

    def test_match_tuple_loops(self):
        for ms in self._batches(20, 150):
            self._check(ms)

    @pytest.mark.parametrize("cells", [1, 5, 17])
    def test_blocks_do_not_change_results(self, monkeypatch, cells):
        import masscomb.rules as rules_mod

        monkeypatch.setattr(rules_mod, "_ENUM_CELLS", cells)
        for ms in self._batches(21, 60):
            self._check(ms)

    def test_many_sources_of_one_pick(self, frame3):
        rng = np.random.default_rng(22)
        ms = [MassFunction.categorical(frame3, 3)] * 30
        ms += [random_mass(rng, frame3, max_focals=2, min_frame_mass=0.1) for _ in range(4)]
        self._check(ms)

    def test_block_size_does_not_follow_the_guard(self, frame3, monkeypatch):
        import masscomb.rules as rules_mod
        from masscomb import expansion

        ms = [MassFunction.from_dict(frame3, {1: 0.2, 2: 0.3, 4: 0.1, 7: 0.4})] * 9
        seen = 0
        expand = expansion.expand

        def recorded(values, sizes, k, fields, cells):
            nonlocal seen
            for block in expand(values, sizes, k, fields, cells):
                tuples = len(block.segment) * block.width
                assert all(v.shape == (tuples,) for v in block.values)
                assert k * tuples <= rules_mod._ENUM_CELLS
                seen += tuples
                yield block

        monkeypatch.setattr(expansion, "expand", recorded)
        combine_dp(ms, RuleConfig(rule="dp", enumeration_guard=10**12))
        assert seen == 4**9

    @staticmethod
    def _segment(rng, frame, case, k):
        """The k rows of one segment of ``case``."""
        size, full = frame.powerset_size, frame.full_set
        rows = np.zeros((k, size))
        for j, row in enumerate(rows):
            if case == "mixed":
                # EkNN supports: a singleton with weight below 1, or weight 1
                # (vacuous, one focal set), and now and then a general row
                kind = rng.integers(3)
                if kind == 2:
                    cells = rng.choice(np.arange(1, size), size=3, replace=False)
                    row[cells] = rng.dirichlet(np.ones(3))
                else:
                    w = 1.0 if kind else 0.1 + 0.8 * rng.random()
                    row[1 << int(rng.integers(frame.n))] = 1.0 - w
                    row[full] += w
            elif case == "agree":
                # every focal set holds the first hypothesis
                cells = rng.choice(np.arange(1, size, 2), size=int(rng.integers(1, 4)), replace=False)
                row[cells] = rng.dirichlet(np.ones(len(cells)))
            else:
                # the first two sources pick disjoint halves of the frame
                half = (1 << (frame.n // 2)) - 1
                pool = {0: np.arange(1, half + 1), 1: np.arange(1, half + 1) << (frame.n // 2)}
                pool = pool.get(j, np.arange(1, size))
                cells = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 4))), replace=False)
                row[cells] = rng.dirichlet(np.ones(len(cells)))
        return rows

    @pytest.mark.parametrize("cells", [1, 5, 17, None])
    @pytest.mark.parametrize("case", ["mixed", "agree", "conflict"])
    def test_segments_match_tuple_loops(self, monkeypatch, cells, case):
        # one chunk of segments, with their focal counts alike or not, each
        # segment against the loops on its rows alone
        import masscomb.rules as rules_mod
        from masscomb.core import _mass_rows

        if cells is not None:
            monkeypatch.setattr(rules_mod, "_ENUM_CELLS", cells)
        frame = FrameOfDiscernment.numbered(4)
        rng = np.random.default_rng([cells or 0, len(case)])
        k, groups = 4, 15
        block = np.concatenate([self._segment(rng, frame, case, k) for _ in range(groups)])
        rows = _mass_rows(frame, block)
        counts = {tuple(np.count_nonzero(block[g * k : (g + 1) * k], axis=1)) for g in range(groups)}
        assert len(counts) > 1 or case == "agree"
        for rule, brute in (("dp", brute_dp), ("pcr6", brute_pcr6)):
            fusion = rules_mod._fuse(rules_mod._FUSIONS[rule], rows, RuleConfig(rule=rule), k)
            assert not fusion.errors
            for g in range(groups):
                ms = rows[g * k : (g + 1) * k]
                want = MassFunction(frame, brute(ms)).values
                assert np.array_equal(fusion.masses[g], want), (rule, g)
                inter = [functools.reduce(lambda a, b: a & b, combo) for combo in
                         itertools.product(*[m.focal_elements() for m in ms])]
                if case == "agree":
                    assert all(inter)
                elif case == "conflict":
                    assert not any(inter)

    @pytest.mark.parametrize("fn", [combine_dp, combine_pcr6])
    def test_guard_edge(self, frame3, fn):
        ms = [
            MassFunction.from_dict(frame3, {1: 0.5, 7: 0.5}),
            MassFunction.from_dict(frame3, {2: 0.2, 3: 0.3, 7: 0.5}),
            MassFunction.from_dict(frame3, {4: 0.4, 7: 0.6}),
        ]
        fn(ms, RuleConfig(enumeration_guard=12))
        with pytest.raises(ComplexityGuardError):
            fn(ms, RuleConfig(enumeration_guard=11))

    @pytest.mark.parametrize("fn", [combine_dp, combine_pcr6])
    def test_guard_refuses_many_sources(self, frame2, fn):
        # 2**15000 focal tuples: a number too long for Python to print
        ms = [SimpleSupport(frame2, 1, 0.5).to_mass()] * 15_000
        with pytest.raises(ComplexityGuardError, match="more than 10000000 focal tuples"):
            fn(ms, RuleConfig())


#: A cell uniform in [0, 1], or 10**e with e uniform in [-300, 0].
_CELL = st.one_of(st.floats(0, 1), st.floats(-300, 0).map(lambda e: 10.0**e))


@st.composite
def _source(draw, frame, kind):
    size = frame.powerset_size
    arr = np.zeros(size)
    if kind == "vacuous":
        arr[frame.full_set] = 1.0
    elif kind == "simple":
        # mass 1, weight 0, gives a dogmatic categorical input
        arr[draw(st.integers(1, frame.full_set))] = draw(_CELL)
        arr[frame.full_set] += 1.0 - arr.sum()
    else:
        if kind == "consonant":
            order = draw(st.permutations(range(frame.n)))
            cells = list(itertools.accumulate(1 << h for h in order))
        else:
            cells = list(range(size))
        raw = draw(st.lists(_CELL, min_size=len(cells), max_size=len(cells)))
        if sum(raw) <= 1e-6:
            raw[-1] = 1.0
        arr[cells] = raw
        arr /= arr.sum()
    return MassFunction(frame, arr)


@st.composite
def _batches(draw):
    frame = FrameOfDiscernment.numbered(draw(st.integers(1, 4)))
    kinds = ("simple", "consonant", "general", "vacuous")
    batch_kind = draw(st.sampled_from(kinds + ("mixed",)))
    count = draw(st.integers(1, 40))
    return [
        draw(_source(frame, batch_kind if batch_kind != "mixed" else draw(st.sampled_from(kinds))))
        for _ in range(count)
    ]


class TestValidResultOrDocumentedError:
    @given(_batches(), st.sampled_from(RULE_NAMES))
    @settings(max_examples=400, deadline=None)
    def test_every_rule(self, ms, rule):
        cfg = RuleConfig(rule=rule, enumeration_guard=512)
        try:
            res = combine(ms, cfg)
        except (TotalConflictError, ComplexityGuardError, DecompositionError, NotSeparableError):
            return
        except ParameterError as exc:
            # only a stated input precondition, never a check on an internal result
            msg = str(exc)
            if rule == "pcr6" and len(ms) < 2:
                assert msg == "pcr6 needs at least two sources"
            elif rule == "pcr6":
                assert msg.startswith("pcr6 needs inputs with no mass on the empty set")
                assert any(m.conflict > 0 for m in ms)
            else:
                assert rule in ("lns", "lnsa"), msg
                assert msg == "a component focused on the empty set cannot be grouped"
            return
        values = res.mass.values
        assert res.mass.frame == ms[0].frame
        assert np.isfinite(values).all() and values.min() >= 0.0
        assert abs(float(values.sum()) - 1.0) <= 1e-9
        assert 0.0 <= res.conflict <= 1.0


def _mixed_batch(rng, frame, count, kinds, zero_share):
    """``count`` random rows of the given kinds; a simple support has weight
    0 (a categorical input) with probability ``zero_share``."""
    size, full = frame.powerset_size, frame.full_set
    block = np.zeros((count, size))
    for row, kind in zip(block, rng.choice(kinds, size=count)):
        if kind == "vacuous":
            row[full] = 1.0
        elif kind == "simple":
            w = 0.0 if rng.random() < zero_share else float(rng.random())
            row[full] = w
            row[int(rng.integers(0, full))] += 1.0 - w
        elif kind == "consonant":
            order = rng.permutation(frame.n)
            chain = np.cumsum(np.left_shift(1, order))
            row[chain] = rng.dirichlet(np.ones(frame.n))
        else:
            cells = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
            row[cells] = rng.dirichlet(np.ones(len(cells)))
    return [MassFunction(frame, row) for row in block]


def _dense_reference(ms, rule, result=None):
    """The dense lattice path of ``rule``; for lns/lnsa, the conjunctive
    global stage on the groups that ``result`` reports."""
    if rule == "conjunctive":
        return dense_conjunctive(ms)
    if rule == "dempster":
        arr = dense_conjunctive(ms).copy()
        if arr[0] >= 1.0 - 1e-12:
            raise TotalConflictError("saturated")
        arr[0] = 0.0
        return arr / arr.sum()
    if rule == "cautious":
        return dense_cautious(ms)
    frame = ms[0].frame
    groups = [g for g in result.groups if g.focal != frame.full_set]
    if not groups:
        return MassFunction.vacuous(frame).values
    # the approximate rule discounts each group as if its pooled weight were 0
    supports = [
        SimpleSupport(frame, g.focal, 1.0 - g.alpha + g.alpha * (g.inner_weight or 0.0)).to_mass()
        for g in groups
    ]
    return dense_conjunctive(supports)


class TestColumnPath:
    """Simple supports pooled as (focal, weight) columns agree with the dense
    lattice product of every row."""

    @given(
        n=st.integers(1, 6),
        count=st.integers(1, 300),
        kinds=st.sets(st.sampled_from(("simple", "consonant", "general", "vacuous")), min_size=1),
        zero_share=st.sampled_from((0.0, 0.01, 0.3)),
        chunk=st.sampled_from((3, 17, 16384)),
        force_columns=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        rule=st.sampled_from(("conjunctive", "dempster", "cautious", "lns", "lnsa")),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_dense_rows(
        self, n, count, kinds, zero_share, chunk, force_columns, seed, rule
    ):
        import masscomb.rules as rules_mod

        frame = FrameOfDiscernment.numbered(n)
        ms = _mixed_batch(np.random.default_rng(seed), frame, count, sorted(kinds), zero_share)
        saved = rules_mod._CHUNK_ROWS, rules_mod._COLUMN_MIN_CELLS
        rules_mod._CHUNK_ROWS = chunk
        if force_columns:
            rules_mod._COLUMN_MIN_CELLS = 0
        try:
            got = combine(ms, RuleConfig(rule=rule))
        except MassCombError as exc:
            if rule in ("lns", "lnsa"):
                return  # the grouped rules' errors are checked elsewhere
            with pytest.raises(type(exc)):
                _dense_reference(ms, rule)
            return
        finally:
            rules_mod._CHUNK_ROWS, rules_mod._COLUMN_MIN_CELLS = saved
        want = _dense_reference(ms, rule, got)
        assert np.max(np.abs(got.mass.values - want)) <= 1e-12
        assert got.conflict == got.mass.values[0]

    @pytest.fixture
    def columns(self, monkeypatch):
        import masscomb.rules as rules_mod

        monkeypatch.setattr(rules_mod, "_COLUMN_MIN_CELLS", 0)

    def test_contradictory_categoricals_conflict_exactly(self, frame2, columns):
        ms = [MassFunction.categorical(frame2, 1), MassFunction.categorical(frame2, 2)]
        res = combine_conjunctive(ms)
        assert res.conflict == 1.0
        assert np.array_equal(res.mass.values, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(TotalConflictError):
            combine_dempster(ms)

    @pytest.mark.parametrize("rule", ["conjunctive", "dempster", "cautious", "lns", "lnsa"])
    def test_all_vacuous_is_exactly_vacuous(self, frame3, columns, rule):
        res = combine([MassFunction.vacuous(frame3)] * 40, RuleConfig(rule=rule))
        assert np.array_equal(res.mass.values, MassFunction.vacuous(frame3).values)

    def test_weight_zero_zeroes_exactly_the_non_subsets(self, frame3, columns):
        ms = [SimpleSupport(frame3, 3, 0.0).to_mass()]
        ms += [SimpleSupport(frame3, a, 0.2 + 0.1 * a).to_mass() for a in range(1, 7)]
        values = combine_conjunctive(ms).mass.values
        outside = [b for b in range(8) if b & 3 != b]
        assert (values[outside] == 0.0).all()
        assert (values[[1, 2, 3]] > 0.0).all()
        from masscomb import core

        logw = np.zeros(8)
        logw[3] = -np.inf
        logw[[1, 2, 4, 5, 6]] = np.log([0.3, 0.4, 0.6, 0.7, 0.8])
        with np.errstate(divide="ignore"):
            q = core._conjoined_commonality(logw, 3)
        assert (q[outside] == 0.0).all() and (q[[0, 1, 2, 3]] > 0.0).all()

    def test_cautious_rejects_a_dogmatic_simple_support(self, frame3, columns):
        ms = [SimpleSupport(frame3, a, 0.5).to_mass() for a in range(1, 7)]
        ms.append(SimpleSupport(frame3, 2, 0.0).to_mass())
        with pytest.raises(DecompositionError):
            combine_cautious(ms)

    def test_near_saturation_normalises_to_closed_form(self, frame2, columns):
        k = 28
        e = 0.5**k
        ms = [SimpleSupport(frame2, 1, 0.5).to_mass()] * k
        ms += [SimpleSupport(frame2, 2, 0.5).to_mass()] * k
        res = combine_dempster(ms)
        expect = np.array([0.0, 1 - e, 1 - e, e]) / (2 - e)
        assert np.max(np.abs(res.mass.values - expect)) <= 1e-12

    def test_small_calls_stay_on_dense_rows(self, frame2):
        # below the crossover the result is the dense product, bit for bit
        ms = generate(GenSpec(frame2, kind="ssf", seed=3), 10)
        assert np.array_equal(combine_conjunctive(ms).mass.values, dense_conjunctive(ms))


def _chain(frame, masses: dict) -> MassFunction:
    return MassFunction.from_dict(frame, masses)


def _group_counts(result) -> dict:
    """The count of every group but the whole frame's (the vacuous inputs)."""
    full = result.mass.frame.full_set
    return {g.focal: g.count for g in result.groups if g.focal != full}


def _lattice_counts(ms) -> dict:
    """Components per focal set as the lattice finds them: every weight
    below ``1 - 1e-12`` of every input's own decomposition."""
    counts = {}
    for m in ms:
        w = single_row_decompose(m)
        for a in np.flatnonzero(w[: m.frame.full_set] < 1.0 - 1e-12):
            counts[int(a)] = counts.get(int(a), 0) + 1
    return counts


class TestChainColumns:
    """Rows whose focal sets are nested and end on the frame enter the rules
    as (focal, Q_{i+1} / Q_i) columns; they must agree with the lattice
    decomposition, and every other multi-focal row must stay on it."""

    @pytest.fixture
    def columns(self, monkeypatch):
        import masscomb.rules as rules_mod

        monkeypatch.setattr(rules_mod, "_COLUMN_MIN_CELLS", 0)

    @staticmethod
    def _consonant(rng, frame, with_empty: bool):
        order = rng.permutation(frame.n)
        sets = np.cumsum(np.left_shift(1, order))
        sets = rng.choice(sets[:-1], size=int(rng.integers(0, frame.n)), replace=False).tolist()
        sets = sorted(sets) + [frame.full_set] + ([0] if with_empty else [])
        masses = rng.dirichlet(np.ones(len(sets)))
        return _chain(frame, dict(zip(sets, masses)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_components_match_the_lattice(self, n):
        import masscomb.rules as rules_mod

        frame = FrameOfDiscernment.numbered(n)
        rng = np.random.default_rng(n)
        ms = [self._consonant(rng, frame, bool(i % 3 == 0)) for i in range(60)]
        each = []
        for m in ms:
            _, focal, weight, simple, rest = rules_mod._split_rows([m])
            assert len(rest) == 0
            w = np.ones(frame.powerset_size)
            w[focal] = weight
            assert np.max(np.abs(w - single_row_decompose(m))) <= 1e-12
            each.append((focal[simple:], weight[simple:]))
        # rows of every chain length in one chunk give each chain row's own
        # components, after the simple supports
        _, focal, weight, simple, rest = rules_mod._split_rows(ms)
        assert len(rest) == 0
        assert np.array_equal(focal[simple:], np.concatenate([f for f, _ in each]))
        assert weight[simple:].tobytes() == np.concatenate([w for _, w in each]).tobytes()

    @pytest.mark.parametrize("delta", [2e-12, 1.1e-12, 0.9e-12, 5e-13])
    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    def test_vacuous_threshold_counts_as_the_lattice(self, frame3, delta, rule):
        # w({theta1}) = 1 - delta, on either side of 1 - 1e-12
        row = _chain(frame3, {1: delta, 3: 0.5 - delta, 7: 0.5})
        ms = [row] * 3 + [SimpleSupport(frame3, 2, 0.4).to_mass()]
        got = _group_counts(combine(ms, RuleConfig(rule=rule)))
        assert got == _lattice_counts(ms)
        assert (1 in got) == (delta > 1e-12)

    def test_simple_supports_stay_unthresholded(self, frame3):
        # a simple support within 1e-12 of vacuous still joins its group
        ms = [SimpleSupport(frame3, 2, 1.0 - 5e-13).to_mass(), _chain(frame3, {1: 0.2, 3: 0.3, 7: 0.5})]
        for rule in ("lns", "lnsa"):
            assert _group_counts(combine(ms, RuleConfig(rule=rule))) == {1: 1, 2: 1, 3: 1}

    def test_empty_first_focal(self, frame3, columns):
        ms = [_chain(frame3, {0: 0.2, 1: 0.3, 7: 0.5})] * 3
        ms.append(SimpleSupport(frame3, 2, 0.4).to_mass())
        for rule in ("lns", "lnsa"):
            with pytest.raises(ParameterError, match="focused on the empty set"):
                combine(ms, RuleConfig(rule=rule))
        got = combine_conjunctive(ms).mass.values
        assert np.max(np.abs(got - dense_conjunctive(ms))) <= 1e-12
        got = combine_cautious(ms).mass.values
        assert np.max(np.abs(got - dense_cautious(ms))) <= 1e-12
        # an empty-set weight vacuous to rounding is dropped, as the lattice drops it
        ms = [_chain(frame3, {0: 1e-13, 1: 0.3, 7: 0.7 - 1e-13})] * 2
        assert _group_counts(combine_lns(ms)) == _lattice_counts(ms)

    def test_dogmatic_chains_stay_on_the_lattice(self, frame3, columns):
        import masscomb.rules as rules_mod

        ms = [_chain(frame3, {1: 0.4, 3: 0.6})] + [SimpleSupport(frame3, 2, 0.4).to_mass()] * 3
        assert len(rules_mod._split_rows(ms)[-1]) == 1
        for rule in ("lns", "lnsa", "cautious"):
            with pytest.raises(DecompositionError):
                combine(ms, RuleConfig(rule=rule))
        got = combine_conjunctive(ms).mass.values
        assert np.max(np.abs(got - dense_conjunctive(ms))) <= 1e-12

    def test_non_nested_rows_stay_on_the_lattice(self, frame3, columns):
        import masscomb.rules as rules_mod

        ms = [_chain(frame3, {1: 0.3, 2: 0.3, 7: 0.4}), _chain(frame3, {1: 0.2, 6: 0.3, 7: 0.5})]
        ms += [_chain(frame3, {1: 0.2, 3: 0.3, 7: 0.5})] + [SimpleSupport(frame3, 4, 0.5).to_mass()]
        _, focal, weight, simple, rest = rules_mod._split_rows(ms)
        assert len(rest) == 2 and list(focal[simple:]) == [1, 3]
        for fn, oracle in ((combine_conjunctive, dense_conjunctive), (combine_cautious, dense_cautious)):
            assert np.max(np.abs(fn(ms).mass.values - oracle(ms))) <= 1e-12
        with pytest.raises(NotSeparableError):
            combine_lns(ms)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_boundaries_between_chains(self, monkeypatch, columns, chunk):
        import masscomb.rules as rules_mod

        frame = FrameOfDiscernment.numbered(4)
        rng = np.random.default_rng(chunk)
        ms = [self._consonant(rng, frame, False) for _ in range(20)]
        ms += generate(GenSpec(frame, kind="ssf", seed=chunk), 9)
        ms = [ms[i] for i in rng.permutation(len(ms))]
        want = {rule: combine(ms, RuleConfig(rule=rule)) for rule in ("conjunctive", "cautious", "lns", "lnsa")}
        monkeypatch.setattr(rules_mod, "_CHUNK_ROWS", chunk)
        for rule, res in want.items():
            got = combine(ms, RuleConfig(rule=rule))
            assert np.max(np.abs(got.mass.values - res.mass.values)) <= 1e-12, rule
            if res.groups is not None:
                assert _group_counts(got) == _group_counts(res)
        assert np.max(np.abs(want["conjunctive"].mass.values - dense_conjunctive(ms))) <= 1e-12
        assert np.max(np.abs(want["cautious"].mass.values - dense_cautious(ms))) <= 1e-12
        assert _group_counts(want["lns"]) == _lattice_counts(ms)

    def test_cautious_on_chain_rows_only(self, columns):
        frame = FrameOfDiscernment.numbered(4)
        rng = np.random.default_rng(5)
        ms = [self._consonant(rng, frame, False) for _ in range(30)]
        got = combine_cautious(ms).mass.values
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - dense_cautious(ms))) <= 1e-12


class TestConservation:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_outputs_sum_to_one(self, frame3, rule):
        rng = np.random.default_rng(13)
        ms = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), 0.2 + 0.7 * float(rng.random())).to_mass()
            for _ in range(4)
        ]
        res = combine(ms, RuleConfig(rule=rule))
        assert math.isclose(float(res.mass.values.sum()), 1.0, abs_tol=1e-9)

    @pytest.mark.parametrize("rule", ["dempster", "dp", "pcr6", "average", "disjunctive"])
    def test_no_conflict_mass_on_normal_inputs(self, frame3, rule):
        rng = np.random.default_rng(14)
        ms = [random_mass(rng, frame3, max_focals=3) for _ in range(3)]
        try:
            res = combine(ms, RuleConfig(rule=rule))
        except TotalConflictError:
            return
        assert res.mass.values[0] == 0.0


class TestChunking:
    def test_chunk_boundaries_do_not_change_results(self, frame3, monkeypatch):
        import masscomb.rules as rules_mod

        from masscomb.genrand import GenSpec, generate

        rng = np.random.default_rng(16)
        ms = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), 0.1 + 0.8 * float(rng.random())).to_mass()
            for _ in range(23)
        ]
        ms += generate(GenSpec(frame3, kind="consonant", num_focals=2, seed=17), 8)
        ms += [MassFunction.vacuous(frame3)] * 2
        expected = {}
        for rule in ("conjunctive", "disjunctive", "average", "cautious", "lns", "lnsa"):
            expected[rule] = combine(ms, RuleConfig(rule=rule)).mass.values
        monkeypatch.setattr(rules_mod, "_CHUNK_ROWS", 5)
        for rule, want in expected.items():
            got = combine(ms, RuleConfig(rule=rule)).mass.values
            assert np.max(np.abs(got - want)) <= 1e-12, rule


class TestRerun:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_rerun_is_bit_identical(self, frame3, rule):
        from masscomb.genrand import GenSpec, generate

        ms = generate(GenSpec(frame3, kind="ssf", seed=18), 6)
        ms += generate(GenSpec(frame3, kind="consonant", num_focals=2, seed=19), 3)
        ms.append(MassFunction.vacuous(frame3))
        cfg = RuleConfig(rule=rule)
        first = combine(ms, cfg)
        again = combine(ms, cfg)
        assert np.array_equal(first.mass.values, again.mass.values)
        assert first.conflict == again.conflict


class TestCommutativity:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_permutation_invariance(self, frame3, rule):
        rng = np.random.default_rng(15)
        ms = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), 0.1 + 0.8 * float(rng.random())).to_mass()
            for _ in range(5)
        ]
        cfg = RuleConfig(rule=rule)
        base = combine(ms, cfg).mass.values
        for perm in itertools.islice(itertools.permutations(ms), 1, 8):
            assert np.max(np.abs(combine(list(perm), cfg).mass.values - base)) <= 1e-12


class TestSettle:
    """A fusion's ``settle`` fails each segment whose fused row is not a mass
    vector with the error a check of that row alone raises, and leaves the
    other rows as that check leaves them."""

    # a NaN, a mass of -0.1, a sum off by 1e-6; the good row is renormalised
    # (its sum is off by 5e-10) and clipped (its -1e-12)
    BAD = {
        "nan": [np.nan, 0.2, 0.3, 0.5],
        "negative": [0.0, -0.1, 0.6, 0.5],
        "sum": [0.0, 0.2, 0.3, 0.5 + 1e-6],
    }
    GOOD = [-1e-12, 0.25, 0.25, 0.5 + 5e-10]

    @pytest.mark.parametrize("good_at", range(4))
    @pytest.mark.parametrize("wrap", [None, InvalidWeightVectorError])
    def test_each_bad_segment_fails_alone(self, frame2, good_at, wrap):
        rows = list(self.BAD.values())
        rows.insert(good_at, self.GOOD)
        masses = np.array(rows)
        fusion = rules_mod._Conjunctive(frame2, 4, 1, RuleConfig(rule="conjunctive"), 0.0)
        wrapper = (lambda exc: wrap(str(exc))) if wrap else None
        out = fusion.settle(masses.copy(), wrapper)
        assert sorted(fusion.errors) == [g for g in range(4) if g != good_at]
        for g, row in enumerate(masses):
            alone = row[np.newaxis].copy()
            if g == good_at:
                core._check_rows(frame2, alone, core.MASS_TOL)
                assert out[g].tobytes() == alone[0].tobytes()
                assert out[g].tobytes() == MassFunction(frame2, row).values.tobytes()
                continue
            with pytest.raises(ParameterError) as own:
                core._check_rows(frame2, alone, core.MASS_TOL)
            error = fusion.errors[g]
            assert type(error) is (wrap or ParameterError)
            assert str(error) == str(own.value)
            if wrap is None:
                assert error.row == g
            assert out[g].tolist() == [0.0, 0.0, 0.0, 1.0]
