"""Evidential K-nearest-neighbour classification."""

import hashlib
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from masscomb import eknn, rules
from masscomb.cli import main
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
from masscomb.experiments import run_experiment, write_report
from masscomb.rules import RULE_NAMES, RuleConfig

from conftest import per_neighbour_classify, per_sample_loo


def clustered_dataset(dim: int, classes: int, seed: int = 0) -> LabeledDataset:
    """14 points round one centre per class, with one point repeated inside
    a class and one shared by three points of different classes."""
    rng = np.random.default_rng(seed)
    labels = np.arange(14) % classes
    points = 3.0 * rng.normal(size=(classes, dim))[labels] + rng.normal(size=(14, dim))
    points[2 * classes + 1] = points[1]
    points[3] = points[4] = points[2]
    frame = FrameOfDiscernment(tuple(f"c{q}" for q in range(classes)))
    return LabeledDataset(points, labels, frame)


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

    @pytest.mark.parametrize("bad", [{0: 1.0, 1: 2.0}, ["a", "b"], [[1.0], [2.0, 3.0]], None])
    def test_non_numeric_gamma_rejected(self, toy, bad):
        with pytest.raises(ParameterError, match="one finite positive value per class"):
            resolve_gamma(toy, EknnConfig(k=1, gamma=bad))


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

    @pytest.mark.parametrize("bad", [-1, 6, 10, 2.0, "1", True])
    def test_exclude_must_index_a_point(self, toy, bad):
        with pytest.raises(ParameterError, match="exclude"):
            classify([0.0, 0.0], toy, EknnConfig(k=1), exclude=bad)

    def test_exclude_takes_numpy_integers(self, toy):
        cfg = EknnConfig(k=3)
        got = classify([0.0, 0.0], toy, cfg, exclude=np.int64(5))
        want = classify([0.0, 0.0], toy, cfg, exclude=5)
        assert np.array_equal(got.fused.mass.values, want.fused.mass.values)

    def test_k_bounded(self, toy):
        with pytest.raises(ParameterError):
            evaluate_loo(toy, EknnConfig(k=6))


class TestNeighbours:
    def test_ties_keep_the_stable_sort_order(self):
        # 60 points on 6 grid sites: every distance ties with many others,
        # within a site and across sites alike
        rng = np.random.default_rng(8)
        sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        points = sites[rng.integers(0, len(sites), 60)]
        ds = LabeledDataset(points, rng.integers(0, 3, 60), FrameOfDiscernment.of("a", "b", "c"))
        dist = np.sqrt(((ds.points - ds.points[:, np.newaxis]) ** 2).sum(axis=-1))
        dist[np.arange(60), np.arange(60)] = np.inf
        want = np.argsort(dist, axis=-1, kind="stable")
        for k in range(1, 61):
            assert np.array_equal(eknn._nearest(dist, k), want[:, :k]), k
        for rule in ("dempster", "lns"):
            for k in (1, 7, 30):
                cfg = EknnConfig(k=k, rule=RuleConfig(rule=rule))
                for i in range(0, 60, 7):
                    try:
                        _, fused, betp = per_neighbour_classify(ds.points[i], ds, cfg, exclude=i)
                    except MassCombError as exc:
                        with pytest.raises(type(exc)) as err:
                            classify(ds.points[i], ds, cfg, exclude=i)
                        assert str(err.value) == str(exc)
                        continue
                    got = classify(ds.points[i], ds, cfg, exclude=i)
                    assert np.array_equal(got.fused.mass.values, fused.mass.values)
                    assert np.array_equal(got.betp, betp)
                predictions, kappa, errors = per_sample_loo(ds, cfg)
                rep = evaluate_loo(ds, cfg)
                assert np.array_equal(rep.predictions, predictions)
                assert np.array_equal(rep.kappa, kappa, equal_nan=True)
                assert rep.errors == errors


class TestLeaveOneOut:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_equals_per_sample_classify(self, rule, monkeypatch):
        # a guard of 1000 focal tuples stops dp and pcr6 on some samples
        # and not on others; alpha = 1 makes the duplicates categorical
        failed = set()
        chunks = itertools.cycle((1, 3, 7))
        for dim, classes, alpha in itertools.product((1, 2, 3, 9, 17), (2, 3, 5), (0.95, 1.0)):
            ds = clustered_dataset(dim, classes)
            for k in (1, 4, 12, ds.n_samples - 1):
                rule_cfg = RuleConfig(rule=rule, enumeration_guard=1000)
                cfg = EknnConfig(k=k, alpha=alpha, rule=rule_cfg)
                predictions, kappa, errors = per_sample_loo(ds, cfg)
                failed.add(len(errors))
                hits = int((predictions == ds.labels).sum())
                finite = kappa[np.isfinite(kappa)]
                cells = ds.n_samples * ds.n_features + k * ds.frame.powerset_size
                for queries in (None, next(chunks)):
                    with monkeypatch.context() as patch:
                        if queries is not None:
                            patch.setattr(eknn, "_LOO_CELLS", queries * cells)
                        rep = evaluate_loo(ds, cfg)
                    assert np.array_equal(rep.predictions, predictions)
                    assert np.array_equal(rep.kappa, kappa, equal_nan=True)
                    assert rep.errors == errors
                    assert rep.accuracy == hits / ds.n_samples
                    if finite.size:
                        assert rep.max_kappa == finite.max()
                    else:
                        assert math.isnan(rep.max_kappa)
        if rule in ("conjunctive", "dempster", "dp", "pcr6", "cautious"):
            assert any(0 < n < 14 for n in failed), failed

    def test_overflowing_distances_fail_their_own_samples(self, tmp_path):
        # the class spread overflows to an infinite mean distance, whose
        # inverse 0 is no scale: the run is refused, where a scale of 0
        # once made NaN weights that failed every sample of the class
        pts = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ds = LabeledDataset(pts, np.array([0, 0, 0, 1, 1, 1]), FrameOfDiscernment.of("a", "b"))
        cfg = EknnConfig(k=2)
        with np.errstate(over="ignore"):
            with pytest.raises(UndefinedGammaError, match="'a' has no finite positive scale"):
                evaluate_loo(ds, cfg)
            with pytest.raises(UndefinedGammaError, match="'a' has no finite positive scale"):
                classify([0.0, 0.0], ds, cfg)
            train = tmp_path / "train.csv"
            train.write_text("".join(f"{x!r},{y!r},{'ab'[q]}\n" for (x, y), q in zip(pts.tolist(), ds.labels)))
            assert main(["eknn", "--train", str(train), "--k", "2"]) == 2

    def test_peak_memory_far_below_a_pairwise_array(self):
        # 3,000 points: one (S, S) float array would take 72 MB; an
        # explicit gamma leaves out gamma_auto's per-class pair distances
        ds = two_gaussian_dataset(1500, 4.0, seed=1)
        cfg = EknnConfig(k=1, gamma=[1.0, 1.0], rule=RuleConfig(rule="average"))
        tracemalloc.start()
        try:
            evaluate_loo(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.n_samples**2 * 8 / 8

    def test_chunks_stay_within_the_cell_budget(self, monkeypatch):
        ds = two_gaussian_dataset(40, 4.0, seed=2)
        cfg = EknnConfig(k=5, rule=RuleConfig(rule="lns"))
        cells = ds.n_samples * ds.n_features + cfg.k * ds.frame.powerset_size
        budget = 7 * cells + cells // 2
        sizes = []
        search = eknn._neighbours

        def recorded(ds, queries, *args):
            sizes.append(len(queries))
            return search(ds, queries, *args)

        monkeypatch.setattr(eknn, "_LOO_CELLS", budget)
        monkeypatch.setattr(eknn, "_neighbours", recorded)
        evaluate_loo(ds, cfg)
        assert sum(sizes) == ds.n_samples and len(sizes) > 1
        assert max(sizes) * cells <= budget

    @pytest.mark.parametrize("rule", ["dp", "pcr6"])
    def test_enumeration_blocks_stay_within_the_pick_budget(self, monkeypatch, rule):
        # one chunk fuses every sample; its segments share enumeration
        # blocks, and no block holds more than _ENUM_CELLS picks
        ds = two_gaussian_dataset(30, 1.0, seed=4)
        cfg = EknnConfig(k=6, rule=RuleConfig(rule=rule))
        picks, tuples, shared = [], 0, 0
        blocks = rules._focal_blocks

        def recorded(values, k):
            nonlocal tuples, shared
            for segment, subsets, masses in blocks(values, k):
                assert subsets.shape == masses.shape == (k, len(segment))
                picks.append(subsets.size)
                tuples += len(segment)
                shared += segment[0] != segment[-1]
                yield segment, subsets, masses

        want = evaluate_loo(ds, cfg)
        monkeypatch.setattr(rules, "_ENUM_CELLS", 60)
        monkeypatch.setattr(rules, "_focal_blocks", recorded)
        rep = evaluate_loo(ds, cfg)
        assert np.array_equal(rep.predictions, want.predictions)
        assert np.array_equal(rep.kappa, want.kappa, equal_nan=True)
        assert max(picks) <= 60 and shared > 0
        # every focal tuple of every sample, each once: a support of weight
        # below 1 has two focal sets
        own = np.arange(ds.n_samples)
        _, weights = eknn._neighbours(ds, ds.points, own, cfg.k, cfg.alpha, resolve_gamma(ds, cfg))
        assert tuples == int((2 ** (weights < 1.0).sum(axis=1)).sum())

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


class TestReportsPinned:
    """Leave-one-out reports, pinned by sha256.

    The hashes were taken when leave-one-out made one ``classify`` call per
    sample: the experiment and CLI reports must not move by a byte.
    """

    @pytest.mark.parametrize("seed, sha", [
        (71, "068f3c43012de77a19cbdfab8e351022060f55324088aacad0083c884f265d20"),
        (72, "8a4605bd6199ad1813fd6480ee94f8d4712c3dc0d87ee8f66df6484bd551b4d9"),
    ])
    def test_eknn_sweep_experiment(self, seed, sha):
        params = {"seed": seed, "n_per_class": 25, "ks": list(range(2, 11)),
                  "rules": ["dempster", "lns", "dp", "pcr6"]}
        text = io.StringIO()
        write_report(text, run_experiment("eknn-sweep", params).to_dict())
        assert hashlib.sha256(text.getvalue().encode()).hexdigest() == sha

    @pytest.mark.parametrize("rule, alpha, sha", [
        ("lns", "0.95", "b42b8aacba2d9ed2c8ae451ceade9f64e6db8a5d0248075d4e00fe4f9f3119cb"),
        # three coincident points of two classes: at alpha = 1 two of them
        # are categorical supports of each other and saturate Dempster's rule
        ("dempster", "1.0", "e0c4d32dd50cbaca797534cae83d0f47b719f072f48c2c112f9af976c484a200"),
    ])
    def test_cli_report(self, tmp_path, capsys, rule, alpha, sha):
        ds = two_gaussian_dataset(20, 2.0, seed=5)
        rows = [f"{x!r},{y!r},{ds.frame.labels[q]}" for (x, y), q in zip(ds.points.tolist(), ds.labels)]
        if rule == "dempster":
            rows += ["1.5,0.5,theta1", "1.5,0.5,theta1", "1.5,0.5,theta2"]
        train = tmp_path / "train.csv"
        train.write_text("x,y,label\n" + "\n".join(rows) + "\n")
        argv = ["eknn", "--train", str(train), "--k", "1:10", "--rule", rule, "--alpha", alpha]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (sum(json.loads(out)["failed_samples"]) > 0) == (rule == "dempster")
        assert hashlib.sha256(out.encode()).hexdigest() == sha


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
