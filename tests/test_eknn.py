"""Evidential K-nearest-neighbour classification."""

import math

import numpy as np
import pytest

from masscomb.core import FrameOfDiscernment
from masscomb.eknn import (
    EknnConfig,
    LabeledDataset,
    classify,
    evaluate_loo,
    gamma_auto,
    load_dataset_csv,
    neighbor_bba,
    resolve_gamma,
    two_gaussian_dataset,
)
from masscomb.errors import MassCombError, ParameterError, ParseError, UndefinedGammaError
from masscomb.rules import RULE_NAMES, RuleConfig

from conftest import per_neighbour_classify


@pytest.fixture
def toy():
    # two tight clusters on a line
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [0.1, 0.1], [5.0, 0.0], [5.2, 0.0], [5.1, 0.1]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    return LabeledDataset(pts, labels, FrameOfDiscernment.of("left", "right"))


class TestGamma:
    def test_two_point_class(self):
        pts = np.array([[0.0], [2.0], [10.0], [11.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 1, 1]), FrameOfDiscernment.of("a", "b"))
        g = gamma_auto(ds)
        assert math.isclose(g[0], 0.5, abs_tol=1e-12)
        assert math.isclose(g[1], 1.0, abs_tol=1e-12)

    def test_collinear_triple(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0], [12.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 0, 1, 1]), FrameOfDiscernment.of("a", "b"))
        g = gamma_auto(ds)
        assert math.isclose(g[0], 0.75, abs_tol=1e-12)  # mean pair distance 4/3

    def test_singleton_class_undefined(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 1]), FrameOfDiscernment.of("a", "b"))
        with pytest.raises(UndefinedGammaError):
            gamma_auto(ds)

    def test_coincident_class_undefined(self):
        pts = np.array([[1.0], [1.0], [0.0], [2.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 1, 1]), FrameOfDiscernment.of("a", "b"))
        with pytest.raises(UndefinedGammaError):
            gamma_auto(ds)

    def test_explicit_gamma_accepted(self, toy):
        cfg = EknnConfig(k=1, gamma=[2.0, 3.0])
        assert np.allclose(resolve_gamma(toy, cfg), [2.0, 3.0])
        with pytest.raises(ParameterError):
            resolve_gamma(toy, EknnConfig(k=1, gamma=[2.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, toy, bad):
        with pytest.raises(ParameterError):
            resolve_gamma(toy, EknnConfig(k=1, gamma=[bad, 1.0]))
        with pytest.raises(ParameterError):
            evaluate_loo(toy, EknnConfig(k=2, gamma=[bad, 1.0]))


class TestNeighborBba:
    def test_zero_distance(self, toy):
        cfg = EknnConfig(k=1, alpha=0.95)
        s = neighbor_bba(toy.frame, 0.0, 1, cfg, np.array([1.0, 1.0]))
        assert math.isclose(s.weight, 0.05, abs_tol=1e-12)
        assert s.focal == 2

    def test_decay_value(self, toy):
        cfg = EknnConfig(k=1, alpha=0.95)
        s = neighbor_bba(toy.frame, 1.0, 0, cfg, np.array([1.0, 1.0]))
        assert math.isclose(1.0 - s.weight, 0.95 * math.exp(-1.0), abs_tol=1e-12)

    def test_far_neighbour_is_nearly_vacuous(self, toy):
        cfg = EknnConfig(k=1, alpha=0.95)
        s = neighbor_bba(toy.frame, 1e4, 0, cfg, np.array([1.0, 1.0]))
        assert s.weight > 1.0 - 1e-12

    def test_weight_is_the_scalar_formula_bit_for_bit(self, toy):
        cfg = EknnConfig(k=1, alpha=0.95)
        gamma = np.array([0.7, 1.3])
        rng = np.random.default_rng(1)
        for dist, klass in zip(rng.exponential(2.0, 200), rng.integers(0, 2, 200)):
            s = neighbor_bba(toy.frame, float(dist), int(klass), cfg, gamma)
            phi = float(np.exp(-gamma[klass] * dist * dist))
            assert s.weight == 1.0 - cfg.alpha * phi

    def test_weight_increases_with_distance(self, toy):
        cfg = EknnConfig(k=1, alpha=0.95)
        g = np.array([1.0, 1.0])
        weights = [neighbor_bba(toy.frame, d, 0, cfg, g).weight for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(weights, weights[1:]))


class TestClassify:
    def test_k1_is_nearest_neighbour_for_every_rule(self, toy):
        for rule in ("dempster", "conjunctive", "cautious", "average", "lns"):
            cfg = EknnConfig(k=1, rule=RuleConfig(rule=rule))
            got = classify([4.8, 0.0], toy, cfg)
            assert got.klass == 1

    def test_coincident_neighbours_product(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.5, 9.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 1, 1]), FrameOfDiscernment.of("a", "b"))
        cfg = EknnConfig(k=2, alpha=0.95, gamma=[1.0, 1.0], rule=RuleConfig(rule="conjunctive"))
        got = classify([0.0, 0.0], ds, cfg)
        assert math.isclose(float(got.fused.mass.values[1]), 1 - (1 - 0.95) ** 2, abs_tol=1e-12)

    def test_dimension_checked(self, toy):
        with pytest.raises(ParameterError):
            classify([0.0], toy, EknnConfig(k=1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, toy, bad):
        with pytest.raises(ParameterError):
            classify([bad, 0.0], toy, EknnConfig(k=1))

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_equals_per_neighbour_supports(self, rule):
        ds = two_gaussian_dataset(12, 2.5, seed=3)
        for k in (1, 2, 5, 9):
            cfg = EknnConfig(k=k, rule=RuleConfig(rule=rule))
            for i in range(ds.n_samples):
                query = ds.points[i] + 0.1
                try:
                    want = per_neighbour_classify(query, ds, cfg, exclude=i)
                except MassCombError as exc:
                    with pytest.raises(type(exc)) as err:
                        classify(query, ds, cfg, exclude=i)
                    assert str(err.value) == str(exc)
                    continue
                got = classify(query, ds, cfg, exclude=i)
                assert got.klass == want[0]
                assert np.array_equal(got.fused.mass.values, want[1].mass.values)
                assert got.fused.conflict == want[1].conflict
                assert np.array_equal(got.betp, want[2])

    def test_k_bounded(self, toy):
        with pytest.raises(ParameterError):
            evaluate_loo(toy, EknnConfig(k=6))


class TestLeaveOneOut:
    def test_unanimous_neighbourhoods_score_perfectly(self, toy):
        rep = evaluate_loo(toy, EknnConfig(k=2, rule=RuleConfig(rule="dempster")))
        assert rep.accuracy == 1.0
        assert not rep.errors

    def test_conflict_grows_with_k_for_conjunctive(self):
        ds = two_gaussian_dataset(100, 4.0, seed=0)
        small = evaluate_loo(ds, EknnConfig(k=5, rule=RuleConfig(rule="conjunctive")))
        large = evaluate_loo(ds, EknnConfig(k=25, rule=RuleConfig(rule="conjunctive")))
        assert large.max_kappa >= small.max_kappa

    def test_grouped_rule_keeps_conflict_moderate(self):
        ds = two_gaussian_dataset(100, 4.0, seed=0)
        for k in (1, 5, 15, 25):
            rep = evaluate_loo(ds, EknnConfig(k=k, rule=RuleConfig(rule="lns")))
            assert rep.max_kappa <= 0.95 - 0.05

    def test_no_standardize_field(self):
        # features enter the distances as given
        with pytest.raises(TypeError):
            EknnConfig(standardize=True)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dataset_rejects_non_finite_points(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, bad], [5.0, 0.0], [6.0, 0.0]])
        with pytest.raises(ParameterError, match="point 1"):
            LabeledDataset(pts, np.array([0, 0, 1, 1]), FrameOfDiscernment.of("a", "b"))

    def test_csv_reports_the_line_of_a_non_finite_feature(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("x,y,label\n0,0,a\n0.5,0,a\n5,nan,b\n5.5,0,b\n")
        with pytest.raises(ParseError) as err:
            load_dataset_csv(path)
        assert err.value.line == 4


class TestDatasetCsv:
    def test_load_with_header_and_string_labels(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("x,y,label\n0,0,red\n0.5,0,red\n5,0,green\n5.5,0,green\n")
        ds = load_dataset_csv(path)
        assert ds.n_samples == 4 and ds.n_features == 2
        assert ds.frame.labels == ("green", "red")
        assert ds.labels.tolist() == [1, 1, 0, 0]

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("0,0,0\n1,0,0\n5,0,1\n6,0,1\n")
        ds = load_dataset_csv(path)
        assert ds.frame.labels == ("0", "1")
