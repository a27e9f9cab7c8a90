"""Command-line surface: subcommands, formats, exit codes."""

import json

import numpy as np
import pytest

from masscomb.cli import main
from masscomb.core import MassFunction, SimpleSupport
from masscomb.io import read_bbas, write_csv


@pytest.fixture
def six_csv(tmp_path, frame3):
    ms = [SimpleSupport(frame3, 1, w).to_mass() for w in (0.88, 0.84, 0.85, 0.89, 0.86)]
    ms.append(SimpleSupport(frame3, 2, 0.05).to_mass())
    path = tmp_path / "six.csv"
    write_csv(path, ms)
    return path


class TestFuse:
    def test_lns_to_file(self, tmp_path, six_csv):
        out = tmp_path / "fused.csv"
        code = main(["fuse", "--input", str(six_csv), "--rule", "lns", "--output", str(out)])
        assert code == 0
        (fused,) = read_bbas(out)
        assert np.max(np.abs(fused.values - [0.06849, 0.36408, 0.08984, 0, 0, 0, 0, 0.47759])) <= 1e-5

    def test_stdout_json(self, six_csv, capsys):
        code = main(["fuse", "--input", str(six_csv), "--rule", "average", "--format", "csv"])
        assert code == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "000,001,010,011,100,101,110,111"

    def test_total_conflict_exit_code(self, tmp_path, frame3):
        path = tmp_path / "cat.csv"
        write_csv(
            path,
            [MassFunction.categorical(frame3, 1), MassFunction.categorical(frame3, 2)],
        )
        assert main(["fuse", "--input", str(path), "--rule", "dempster"]) == 3

    def test_guard_exit_code(self, tmp_path, frame3):
        rng = np.random.default_rng(1)
        ms = []
        for _ in range(4):
            arr = rng.dirichlet(np.ones(7))
            ms.append(MassFunction(frame3, np.concatenate([[0.0], arr])))
        path = tmp_path / "many.csv"
        write_csv(path, ms)
        assert main(["fuse", "--input", str(path), "--rule", "dp", "--enumeration-guard", "2"]) == 4

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n0,0.5,0,0.4\n")
        assert main(["fuse", "--input", str(path), "--rule", "conjunctive"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fuse", "--input", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--eta", "--lambda"])
    def test_infinite_parameter_exit_code(self, six_csv, flag):
        assert main(["fuse", "--input", str(six_csv), "--rule", "lns", flag, "inf"]) == 2

    def test_pcr6_empty_set_input_exit_code(self, tmp_path, frame2, capsys):
        path = tmp_path / "empty.csv"
        write_csv(path, [MassFunction(frame2, [0.5, 0.5, 0, 0]), MassFunction(frame2, [0, 0, 0.6, 0.4])])
        assert main(["fuse", "--input", str(path), "--rule", "pcr6"]) == 2
        assert "source 0" in capsys.readouterr().err


class TestFlagPrefixes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "table1", "--deterministic"],
            ["fuse", "--input", "in.csv", "--rul", "lns"],
        ],
    )
    def test_abbreviated_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTransformAndDiscount:
    def test_transform_pignistic(self, six_csv, capsys):
        code = main(["transform", "--input", str(six_csv), "--kind", "betp"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "pignistic"
        assert len(doc["values"]) == 6

    def test_transform_commonality(self, six_csv, capsys):
        assert main(["transform", "--input", str(six_csv), "--kind", "q"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"][0] == "000"

    def test_transform_mass_is_identity(self, six_csv, capsys):
        assert main(["transform", "--input", str(six_csv), "--kind", "m"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "000,001,010,011,100,101,110,111"
        assert len(out) == 7

    def test_decompose(self, six_csv, capsys):
        assert main(["decompose", "--input", str(six_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "decomposition-weights"
        assert abs(doc["values"][0][1] - 0.88) < 1e-12

    def test_decompose_dogmatic_exit_code(self, tmp_path, frame3):
        path = tmp_path / "dog.csv"
        write_csv(path, [MassFunction.categorical(frame3, 1)])
        assert main(["decompose", "--input", str(path)]) == 2

    def test_discount(self, tmp_path, six_csv):
        out = tmp_path / "disc.csv"
        assert main(["discount", "--input", str(six_csv), "--alpha", "0.5", "--output", str(out)]) == 0
        back = read_bbas(out)
        assert abs(back[0].values[1] - 0.06) < 1e-12

    def test_discount_bad_alpha(self, six_csv):
        assert main(["discount", "--input", str(six_csv), "--alpha", "2"]) == 2


class TestGen:
    def test_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["gen", "--kind", "ssf", "--frame-size", "3", "--count", "4", "--seed", "9"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_focal_pool_bitmasks(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["gen", "--kind", "ssf", "--frame-size", "3", "--count", "3", "--seed", "1",
             "--focal-pool", "001,010", "--output", str(out), "--format", "json"]
        )
        assert code == 0
        for m in read_bbas(out):
            focs = set(int(a) for a in m.focal_elements())
            assert focs <= {1, 2, 7}

    def test_bad_pool_is_validation_error(self):
        assert main(["gen", "--focal-pool", "xyz"]) == 2


class TestEknnCommand:
    def test_loo_report(self, tmp_path):
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", "0.2,0.4,a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        report = tmp_path / "rep.json"
        code = main(
            ["eknn", "--train", str(train), "--k", "2", "--rule", "lns", "--loo",
             "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["k"] == [2]
        assert doc["accuracy"][0] == 1.0

    def test_sweep(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", "0.2,0.4,a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        assert main(["eknn", "--train", str(train), "--sweep-k", "1:3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == [1, 2, 3]

    def test_bad_range(self, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("0,0,a\n1,0,b\n")
        assert main(["eknn", "--train", str(train), "--sweep-k", "5"]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_exit_code(self, tmp_path, capsys, cell):
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", f"0.2,{cell},a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        assert main(["eknn", "--train", str(train), "--k", "2", "--loo"]) == 2
        assert "line 3" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1_report(self, tmp_path):
        out = tmp_path / "t1.json"
        assert main(["experiment", "table1", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        col = doc["tables"]["fused"]["column_labels"].index("lns")
        theta1_row = doc["tables"]["fused"]["values"][1]
        assert abs(theta1_row[col] - 0.36408) <= 1e-5

    def test_conflict_sweep_flags(self, tmp_path):
        out = tmp_path / "cs.json"
        code = main(
            ["experiment", "conflict-sweep", "--deterministic-w", "0.7", "--t", "4",
             "--rule", "lnsa", "--sources", "10", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["deterministic_w"] == 0.7

    def test_default_conflict_sweep_dempster(self, tmp_path):
        # the default grid reaches conflicts within 1e-8 of 1 without saturating
        out = tmp_path / "cs.json"
        assert main(["experiment", "conflict-sweep", "--rule", "dempster", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        for t in (1, 2, 3, 4):
            status = doc["series"][f"kappa/dempster/t{t}"]["status"]
            assert status[:3] == ["ok"] * 3  # s2 = 5, 10, 15
            assert status[-1] == "saturated"

    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "mystery"])
        assert err.value.code == 2


class TestBench:
    def test_bench_record(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--rule", "lns", "--sources", "500", "--frame", "4",
             "--repeats", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sources"] == 500
        assert doc["seconds"] >= 0
        assert "decompose" in doc["step_seconds"]

    def test_zero_repeats_exit_code(self):
        assert main(["bench", "--rule", "average", "--sources", "10", "--repeats", "0"]) == 2
