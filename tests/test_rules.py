"""Combination rules: worked examples, oracle equivalence, and algebraic properties."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masscomb.core import FrameOfDiscernment, MassFunction, SimpleSupport
from masscomb.errors import (
    ComplexityGuardError,
    DecompositionError,
    EncodingError,
    NotSeparableError,
    ParameterError,
    TotalConflictError,
)
from masscomb.rules import (
    GLOBAL_RULE_NAMES,
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
    evidential_distance,
    lns_group,
    martin_reliability,
)

from conftest import brute_conjunctive, brute_disjunctive, brute_dp, brute_pcr6, random_mass


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
        assert res.mass.approx_equal(m, tol=1e-12)

    def test_associative(self, frame2):
        rng = np.random.default_rng(1)
        ms = [random_mass(rng, frame2) for _ in range(3)]
        once = combine_conjunctive(ms).mass
        nested = combine_conjunctive([combine_conjunctive(ms[:2]).mass, ms[2]]).mass
        assert once.approx_equal(nested, tol=1e-12)

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
        assert combine_dp([m]).mass.approx_equal(m, tol=0)

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
        assert a.approx_equal(b, tol=1e-12)

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
        assert res.mass.approx_equal(SimpleSupport(frame2, 1, 0.84).to_mass(), tol=1e-12)

    def test_idempotent(self, frame3):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_mass(rng, frame3, min_frame_mass=0.05)
            assert combine_cautious([m, m]).mass.approx_equal(m, tol=1e-9)

    def test_dogmatic_rejected(self, frame2):
        with pytest.raises(DecompositionError):
            combine_cautious([MassFunction.categorical(frame2, 1)] * 2)


class TestAverage:
    def test_pair_example(self, pair):
        res = combine_average(pair)
        assert np.max(np.abs(res.mass.values - [0, 0.3, 0.4, 0.3])) <= 1e-12

    def test_identical_inputs(self, frame3):
        rng = np.random.default_rng(7)
        m = random_mass(rng, frame3)
        assert combine_average([m] * 5).mass.approx_equal(m, tol=1e-12)


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
            {"global_rule": "lns"},
            {"eta": -1.0},
            {"eta": math.inf},
            {"eta": math.nan},
            {"lam": 0.0},
            {"lam": math.inf},
            {"lam": math.nan},
            {"enumeration_guard": 0},
        ],
    )
    def test_bad_parameters_rejected(self, params):
        with pytest.raises(ParameterError):
            RuleConfig(**params)


class TestGrouping:
    def test_six_source_groups(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, w) for w in (0.88, 0.84, 0.85, 0.89, 0.86)]
        ssfs.append(SimpleSupport(frame3, 2, 0.05))
        groups = {g.focal: g for g in lns_group(ssfs)}
        assert groups[1].count == 5
        assert math.isclose(groups[1].inner_weight, 0.88 * 0.84 * 0.85 * 0.89 * 0.86, abs_tol=1e-12)
        assert math.isclose(groups[1].alpha, 5 / 6, abs_tol=1e-12)
        assert groups[2].count == 1
        assert math.isclose(groups[2].inner_weight, 0.05, abs_tol=1e-15)
        assert math.isclose(groups[2].alpha, 1 / 6, abs_tol=1e-12)

    def test_all_vacuous(self, frame3):
        groups = lns_group([SimpleSupport(frame3, frame3.full_set, 1.0)] * 3)
        assert len(groups) == 1
        assert groups[0].focal == frame3.full_set
        assert groups[0].alpha == 0.0
        assert groups[0].count == 3

    def test_precision_weighting(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 2 + [SimpleSupport(frame3, 6, 0.5)] * 2
        groups = {g.focal: g for g in lns_group(ssfs, RuleConfig(rule="lns", eta=1.0))}
        assert math.isclose(groups[1].alpha, 2 / 3, abs_tol=1e-12)
        assert math.isclose(groups[6].alpha, 1 / 3, abs_tol=1e-12)

    def test_eta_zero_is_count_share(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 2 + [SimpleSupport(frame3, 6, 0.5)] * 2
        groups = {g.focal: g for g in lns_group(ssfs, RuleConfig(rule="lns", eta=0.0))}
        assert math.isclose(groups[1].alpha, 0.5, abs_tol=1e-12)
        assert math.isclose(groups[6].alpha, 0.5, abs_tol=1e-12)

    def test_group_counts_cover_non_vacuous_inputs(self, frame3):
        rng = np.random.default_rng(8)
        ssfs = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), float(rng.random()))
            for _ in range(40)
        ] + [SimpleSupport(frame3, frame3.full_set, 1.0)] * 5
        groups = lns_group(ssfs)
        proper = sum(g.count for g in groups if g.focal != frame3.full_set)
        assert proper == 40

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            lns_group([])

    @pytest.mark.parametrize(
        "cfg",
        [None, RuleConfig(rule="lns", eta=2.5), RuleConfig(rule="lns", vacuous_in_denominator=True)],
    )
    def test_matches_combine_lns_groups(self, frame3, cfg):
        rng = np.random.default_rng(11)
        ssfs = [
            SimpleSupport(frame3, int(rng.integers(1, frame3.full_set)), float(rng.random()))
            for _ in range(20)
        ]
        ssfs += [SimpleSupport(frame3, 3, 0.0), SimpleSupport(frame3, 5, 0.0)]
        ssfs += [SimpleSupport(frame3, frame3.full_set, 1.0), SimpleSupport(frame3, 2, 1.0)]
        rng.shuffle(ssfs)
        groups = lns_group(ssfs, cfg)
        assert groups == list(combine_lns([s.to_mass() for s in ssfs], cfg).groups)
        inner = {g.focal: g.inner_weight for g in groups}
        assert inner[3] == inner[5] == 0.0
        assert inner[frame3.full_set] == 1.0

    def test_vacuous_denominator_switch_sensitivity(self, frame3):
        ssfs = [SimpleSupport(frame3, 1, 0.5)] * 3 + [SimpleSupport(frame3, frame3.full_set, 1.0)]
        excl = {g.focal: g for g in lns_group(ssfs, RuleConfig(rule="lns"))}
        incl = {g.focal: g for g in lns_group(
            ssfs, RuleConfig(rule="lns", vacuous_in_denominator=True)
        )}
        assert math.isclose(excl[1].alpha, 1.0, abs_tol=1e-15)
        assert math.isclose(incl[1].alpha, 3 * 3 / (3 * 3 + 1), abs_tol=1e-12)
        assert excl[frame3.full_set].alpha == incl[frame3.full_set].alpha == 0.0
        # without vacuous inputs the switch has no effect
        plain = ssfs[:3]
        a = lns_group(plain, RuleConfig(rule="lns"))
        b = lns_group(plain, RuleConfig(rule="lns", vacuous_in_denominator=True))
        assert a == b


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

    def test_global_rule_switch(self, frame3):
        ms = six_sources(frame3)
        dp_res = combine_lns(ms, RuleConfig(rule="lns", global_rule="dp"))
        conj_res = combine_lns(ms)
        # with the mixed rule the group conflict moves to the union instead
        assert dp_res.conflict == 0.0
        assert conj_res.conflict > 0.0
        assert math.isclose(
            dp_res.mass.values[3], conj_res.mass.values[0], abs_tol=1e-12
        )

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
        assert res.mass.approx_equal(m, tol=1e-12)


class TestOneGroup:
    @pytest.mark.parametrize("rule", ["lns", "lnsa"])
    @pytest.mark.parametrize("global_rule", GLOBAL_RULE_NAMES)
    def test_every_global_rule_is_the_identity(self, frame3, rule, global_rule):
        ms = [SimpleSupport(frame3, 1, w).to_mass() for w in (0.3, 0.5, 0.8)]
        want = combine(ms, RuleConfig(rule=rule)).mass.values
        got = combine(ms, RuleConfig(rule=rule, global_rule=global_rule)).mass.values
        assert np.array_equal(got, want)


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
        assert res.mass.approx_equal(MassFunction.categorical(frame3, 1), tol=1e-12)

    def test_small_sample_differs_from_exact_but_alphas_match(self, frame3):
        ms = six_sources(frame3)
        exact = combine_lns(ms)
        approx = combine_lnsa(ms)
        assert not exact.mass.approx_equal(approx.mass, tol=1e-3)
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
            groups = {g.focal: g for g in lns_group(ssfs, RuleConfig(rule="lns", eta=float(eta)))}
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

    def test_block_size_does_not_follow_the_guard(self, frame3):
        import masscomb.rules as rules_mod

        ms = [MassFunction.from_dict(frame3, {1: 0.2, 2: 0.3, 4: 0.1, 7: 0.4})] * 9
        seen = 0
        for subsets, masses in rules_mod._focal_tuples(ms, guard=10**12):
            assert subsets.shape == masses.shape
            assert subsets.size <= rules_mod._ENUM_CELLS
            seen += subsets.shape[1]
        assert seen == 4**9

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


@st.composite
def _source(draw, frame, kind):
    size = frame.powerset_size
    arr = np.zeros(size)
    if kind == "vacuous":
        arr[frame.full_set] = 1.0
    elif kind == "simple":
        # weight 0 gives a dogmatic categorical input
        arr[draw(st.integers(1, frame.full_set))] = 1.0 - draw(st.floats(0, 1))
        arr[frame.full_set] += 1.0 - arr.sum()
    else:
        if kind == "consonant":
            order = draw(st.permutations(range(frame.n)))
            cells = list(itertools.accumulate(1 << h for h in order))
        else:
            cells = list(range(size))
        raw = draw(st.lists(st.floats(0, 1), min_size=len(cells), max_size=len(cells)))
        if sum(raw) <= 1e-6:
            raw[-1] = 1.0
        arr[cells] = raw
        arr /= arr.sum()
    return MassFunction(frame, arr)


@st.composite
def _batches(draw):
    frame = FrameOfDiscernment.numbered(draw(st.integers(1, 3)))
    kinds = ("simple", "consonant", "general", "vacuous")
    batch_kind = draw(st.sampled_from(kinds + ("mixed",)))
    count = draw(st.integers(1, 40))
    return [
        draw(_source(frame, batch_kind if batch_kind != "mixed" else draw(st.sampled_from(kinds))))
        for _ in range(count)
    ]


class TestValidResultOrDocumentedError:
    @given(_batches(), st.sampled_from(RULE_NAMES), st.sampled_from(GLOBAL_RULE_NAMES))
    @settings(max_examples=400, deadline=None)
    def test_every_rule(self, ms, rule, global_rule):
        cfg = RuleConfig(rule=rule, global_rule=global_rule, enumeration_guard=512)
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


# ---------------------------------------------------------------------------
# Reliability estimation
# ---------------------------------------------------------------------------


class TestMartinReliability:
    def test_identical_sources_fully_reliable(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        alphas = martin_reliability([m, m, m])
        assert np.allclose(alphas, 1.0, atol=1e-12)

    def test_closed_form_values(self, frame2):
        # distance between categorical singletons is 1, so with two sources conf = 1
        a = MassFunction.categorical(frame2, 1)
        b = MassFunction.categorical(frame2, 2)
        assert math.isclose(evidential_distance(a, b), 1.0, abs_tol=1e-12)
        assert np.allclose(martin_reliability([a, b], lam=1.0), 0.0, atol=1e-12)

    def test_lambda_shapes_the_map(self, frame2):
        # conf = 0.5 -> alpha = 0.5 at lam = 1
        half = discount_pair_conf(frame2, 0.5)
        assert np.allclose(martin_reliability(half, lam=1.0), 0.5, atol=1e-12)
        # conf = 0.6 -> alpha = (1 - 0.36)**0.5 = 0.8 at lam = 2
        sixty = discount_pair_conf(frame2, 0.6)
        assert np.allclose(martin_reliability(sixty, lam=2.0), 0.8, atol=1e-12)

    def test_needs_two_sources(self, frame2):
        with pytest.raises(ParameterError):
            martin_reliability([MassFunction.vacuous(frame2)])

    def test_distance_is_a_bounded_metric_sample(self, frame3):
        rng = np.random.default_rng(31)
        ms = [random_mass(rng, frame3) for _ in range(6)]
        for a in ms:
            assert evidential_distance(a, a) == 0.0
            for b in ms:
                d1, d2 = evidential_distance(a, b), evidential_distance(b, a)
                assert math.isclose(d1, d2, abs_tol=1e-15)
                assert 0.0 <= d1 <= 1.0 + 1e-12

    def test_discount_then_combine_recovers_majority(self, frame3):
        ms = six_sources(frame3)
        from masscomb.core import discount, pignistic

        alphas = martin_reliability(ms, lam=1.0)
        assert alphas[5] < min(alphas[:5])  # the dissenter is the least reliable
        fused = combine_conjunctive([discount(m, float(a)) for m, a in zip(ms, alphas)])
        bp = pignistic(fused.mass).values
        assert bp[0] > bp[1]


def discount_pair_conf(frame2, target):
    """Two sources whose mutual evidential distance is exactly ``target``."""
    a = MassFunction.categorical(frame2, 1)
    b = MassFunction(frame2, [0, 1 - target, target, 0])
    # distance between m({t1})=1 and m with masses (1-x, x) on the two
    # singletons is x, so conf for both sources equals target
    assert math.isclose(evidential_distance(a, b), target, abs_tol=1e-12)
    return [a, b]
