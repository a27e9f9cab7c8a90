"""Named experiments: structure, replayability, and reference behaviour."""

import json

import numpy as np
import pytest

from masscomb.errors import ParameterError
from masscomb.experiments import run_experiment


class TestTable1:
    def test_reference_column(self):
        rep = run_experiment("table1")
        tab = rep.tables["fused"]
        col = tab["column_labels"].index("lns")
        got = [row[col] for row in tab["values"]]
        expect = [0.06849, 0.36408, 0.08984, 0, 0, 0, 0, 0.47759]
        assert np.max(np.abs(np.array(got) - expect)) <= 1e-5

    def test_every_column_is_a_valid_assignment(self):
        rep = run_experiment("table1")
        values = np.array(rep.tables["fused"]["values"])
        sums = values.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert values.min() >= 0.0

    def test_formatting(self):
        rep = run_experiment("table1")
        text = rep.format_table("fused")
        assert "0.36408" in text and "conjunctive" in text


class TestEtaSweep:
    def test_series_shapes_and_crossing(self):
        rep = run_experiment("eta-sweep", {"eta_points": 13})
        diff = np.array(rep.series["betp/theta1-theta2"]["y"])
        assert diff[0] < 0 < diff[-1]
        assert (np.diff(diff) > -1e-9).all()

    def test_masses_shift_toward_singletons(self):
        rep = run_experiment("eta-sweep", {"eta_points": 7})
        broad = np.array(rep.series["mass/{theta2,theta3}"]["y"])
        assert broad[-1] < broad[0]

    def test_parameters_and_notes_recorded(self):
        rep = run_experiment("eta-sweep", {"eta_points": 3})
        assert rep.notes["weight_distribution"] == "uniform[0,1)"
        assert rep.parameters["counts"] == [60, 50, 50]


class TestConflictSweep:
    def test_closed_form_deterministic_point(self):
        rep = run_experiment(
            "conflict-sweep",
            {"deterministic_w": 0.7, "ts": (4,), "s2_grid": (10, 20), "rules": ("lnsa",)},
        )
        kappa = rep.series["kappa/lnsa/t4"]["y"]
        assert all(abs(k - 0.16) <= 1e-12 for k in kappa)

    def test_dempster_saturates_for_large_s2(self):
        rep = run_experiment(
            "conflict-sweep", {"ts": (1,), "s2_grid": (5, 40), "rules": ("dempster",)}
        )
        status = rep.series["kappa/dempster/t1"]["status"]
        assert status[-1] == "saturated"
        assert rep.series["kappa/dempster/t1"]["y"][-1] is None

    def test_grouped_rule_conflict_decreases_with_majority(self):
        rep = run_experiment(
            "conflict-sweep", {"ts": (1, 4), "s2_grid": (30,), "rules": ("lns",)}
        )
        k1 = rep.series["kappa/lns/t1"]["y"][0]
        k4 = rep.series["kappa/lns/t4"]["y"][0]
        assert k4 < k1


class TestTiming:
    def test_report_structure(self):
        rep = run_experiment(
            "timing",
            {"sources_grid": (200, 400), "repeats": 1, "rules": ("lns", "lnsa"), "kind": "ssf"},
        )
        assert set(rep.series) >= {"time/lns", "time/lnsa"}
        assert "lns_step/decompose" in rep.series
        assert all(t >= 0 for t in rep.series["time/lns"]["y"])
        assert rep.series["time/lns"]["x"] == [200, 400]
        assert len(rep.series["time/lns"]["y"]) == 2
        assert "timings" not in rep.to_dict()

    def test_kind_validated(self):
        with pytest.raises(ParameterError):
            run_experiment("timing", {"kind": "nope"})


class TestEknnSweep:
    def test_series_present(self):
        rep = run_experiment(
            "eknn-sweep", {"n_per_class": 20, "ks": (1, 5), "rules": ("dempster",)}
        )
        assert rep.series["accuracy/dempster"]["x"] == [1, 5]
        assert all(0 <= a <= 1 for a in rep.series["accuracy/dempster"]["y"])

    def test_every_sample_failing_writes_null(self, tmp_path):
        # pcr6 needs two sources, so every K=1 sample fails
        rep = run_experiment("eknn-sweep", {"n_per_class": 5, "ks": [1, 2], "rules": ["pcr6"]})
        series = rep.series["max_kappa/pcr6"]
        assert series["y"][0] is None and series["errors"] == [10, 0]

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(json.dumps(rep.to_dict()), parse_constant=reject) == rep.to_dict()
        out = tmp_path / "report.json"
        rep.save(out)
        assert json.loads(out.read_text(), parse_constant=reject) == rep.to_dict()

    def test_nan_fails_loudly(self, tmp_path):
        rep = run_experiment("eknn-sweep", {"n_per_class": 5, "ks": [2], "rules": ["pcr6"]})
        rep.series["max_kappa/pcr6"]["y"][0] = float("nan")
        with pytest.raises(ValueError):
            rep.save(tmp_path / "report.json")


class TestReplay:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("table1", {}),
            ("eta-sweep", {"eta_points": 5}),
            ("conflict-sweep", {"ts": (1,), "s2_grid": (5, 10), "rules": ("lns", "lnsa")}),
            ("eknn-sweep", {"n_per_class": 15, "ks": (1, 3), "rules": ("lns",)}),
        ],
    )
    def test_embedded_parameters_replay_exactly(self, name, params):
        first = run_experiment(name, params)
        again = run_experiment(name, first.parameters)
        a, b = first.to_dict(), again.to_dict()
        assert a == b

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("mystery")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("table1", {"bogus": 1})

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("table1", "eta", "x"),
            ("eknn-sweep", "ks", 5),
            ("timing", "repeats", "2.5"),
            ("timing", "repeats", 2.7),
            ("conflict-sweep", "rules", "lns"),
            ("eknn-sweep", "ks", ["a"]),
            ("timing", "sources_grid", ["x"]),
            ("eknn-sweep", "ks", [1.5]),
            ("conflict-sweep", "ts", [1, "2.5"]),
        ],
    )
    def test_bad_parameter_value_named(self, name, key, value):
        with pytest.raises(ParameterError, match=repr(key)):
            run_experiment(name, {key: value})

    def test_save(self, tmp_path):
        rep = run_experiment("table1")
        out = tmp_path / "report.json"
        rep.save(out)
        import json

        doc = json.loads(out.read_text())
        assert doc["name"] == "table1"
        assert doc["parameters"]["rules"][0] == "conjunctive"
