"""Command-line surface: subcommands, formats, exit codes."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from masscomb.cli import build_parser, main
from masscomb.core import MassFunction, SimpleSupport
from masscomb.io import read_bbas, write_bbas, write_csv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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

    @pytest.mark.parametrize("rule", ["dp", "pcr6"])
    def test_guard_exit_code_at_many_sources(self, tmp_path, frame2, capsys, rule):
        # the count of focal tuples, 2**15000, is too long for Python to print
        path = tmp_path / "big.csv"
        write_csv(path, [SimpleSupport(frame2, 1, 0.5).to_mass()] * 15_000)
        assert main(["fuse", "--input", str(path), "--rule", rule]) == 4
        assert "more than 10000000 focal tuples" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n0,0.5,0,0.4\n")
        assert main(["fuse", "--input", str(path), "--rule", "conjunctive"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fuse", "--input", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--eta"])
    def test_infinite_parameter_exit_code(self, six_csv, flag):
        assert main(["fuse", "--input", str(six_csv), "--rule", "lns", flag, "inf"]) == 2

    def test_pcr6_empty_set_input_exit_code(self, tmp_path, frame2, capsys):
        path = tmp_path / "empty.csv"
        write_csv(path, [MassFunction(frame2, [0.5, 0.5, 0, 0]), MassFunction(frame2, [0, 0, 0.6, 0.4])])
        assert main(["fuse", "--input", str(path), "--rule", "pcr6"]) == 2
        assert "source 0" in capsys.readouterr().err

    def test_unknown_extension_needs_format(self, tmp_path, six_csv, capsys):
        path = tmp_path / "x.txt"
        path.write_bytes(six_csv.read_bytes())
        assert main(["fuse", "--input", str(path), "--rule", "lns"]) == 2
        assert "x.txt" in capsys.readouterr().err
        assert main(["fuse", "--input", str(path), "--rule", "lns", "--format", "csv"]) == 0


class TestFlagPrefixes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "table1", "--deterministic"],
            ["fuse", "--input", "in.csv", "--rul", "lns"],
            ["fuse", "--input", "in.csv", "--lambda", "2"],
            ["eknn", "--train", "t.csv", "--loo"],
            ["fuse", "--input", "in.csv", "--rule", "lns", "--global-rule", "dp"],
            ["eknn", "--train", "t.csv", "--standardize"],
        ],
    )
    def test_abbreviated_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStdoutMatchesFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "ssf", "--count", "3", "--seed", "1"],
            ["fuse", "--rule", "lns"],
            ["discount", "--alpha", "0.5"],
        ],
    )
    def test_same_bytes(self, tmp_path, six_csv, capsysbinary, argv, fmt):
        argv = argv + ["--format", fmt]
        if argv[0] != "gen":
            src = tmp_path / f"in.{fmt}"
            write_bbas(src, read_bbas(six_csv), fmt=fmt)
            argv += ["--input", str(src)]
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--output", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestGenBytesPinned:
    """``masscomb gen`` output, pinned by sha256.

    The hashes were computed with the writers and the ssf generator as they
    stood before the sparse CSV writer, the line-per-assignment JSON writer
    and the raw-word ssf replay: the CSV bytes must not move, and the JSON
    document, loaded and re-dumped with sorted keys, must not either.
    """

    CASES = [
        (["--kind", "ssf", "--frame-size", "3"],
         "e23dab5d75b8a8db5b67acac16c6886eabc06fdf3fe611ebfc7f2b79fd24ca62",
         "b5b1ba3fc6717a630d64d98e21afa380d513a829024e0948f68d9bcfce48b3e0"),
        (["--kind", "ssf", "--frame-size", "8"],
         "c3e30f0cf130e5635e55c0b7a9d2af87ec0ba20b6d8c95676db008a504f15db5",
         "af3ea7bb4c4e378c3f3d385be06da213d86b405af3760eba239b78d0837bf185"),
        (["--kind", "consonant", "--frame-size", "3"],
         "e14dc9a0fa1c1dc7ecc169f95cadb82c235267cb0b512e61d4f9f90e841b604e",
         "6089977114cbd5b374f89ec22d38c43730939f7c1dbbe50b1ca80cafa3533e0a"),
        (["--kind", "consonant", "--frame-size", "8"],
         "9c3d9e023d1f270107b87cb9c6283f7e3e8339dd6781534d64cf07b6f0a10829",
         "a5917dc1eb6555f3ce819da8f56a5ed6529b5f852a76995ded612f330f2ada57"),
        (["--kind", "general", "--frame-size", "3"],
         "bb2164dd7b318099ebdf8bf278898a1b443366c500a13d248c76c765a77f021f",
         "6fd9f88cfa977649ab58b67b07f007b0f98acb7896c3f1aa83fb26b71cce02a7"),
        (["--kind", "general", "--frame-size", "8"],
         "6979dfaad572f2a060208bb9ad67fda3e8adc73d88dde5ce52fdfbe81ee97694",
         "ff4c899e98b96d50e8f1a01b5a6b912897e009bf4d6c9c60335c827492ba3b35"),
        (["--kind", "ssf", "--frame-size", "8", "--min-singleton-mass", "0.3", "--stream", "2"],
         "7437bfbf6e9125c19f1e7f526d7901fedbe1a5dda06e2dab14db24ba240d4271",
         "cfb61c58d227eb599dd1fdd7c1aa76fa332adb3f0b3d8b272bb7ef1997827db5"),
        (["--kind", "ssf", "--frame-size", "3", "--focal-pool", "001", "--count", "151", "--stream", "1"],
         "9ba00e2b313c4a75ea494c114737a2361d84a1a7327f9611cf68c1ec959bf4e5",
         "3e9484ea56123ca805cdbe6fa45c7a21e4601de8ee490f7a0b3d624d9b92866d"),
    ]

    @staticmethod
    def _argv(flags):
        return ["gen", "--count", "150", "--seed", "11", *flags]

    @pytest.mark.parametrize("flags, csv_sha, json_sha", CASES)
    def test_csv_bytes(self, tmp_path, capsysbinary, flags, csv_sha, json_sha):
        out = tmp_path / "out.csv"
        assert main(self._argv(flags) + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        capsysbinary.readouterr()
        assert main(self._argv(flags) + ["--format", "csv"]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == csv_sha

    @pytest.mark.parametrize("flags, csv_sha, json_sha", CASES)
    def test_json_document(self, tmp_path, flags, csv_sha, json_sha):
        out = tmp_path / "out.json"
        assert main(self._argv(flags) + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == json_sha

    def test_json_one_assignment_per_line(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(self._argv(["--kind", "general", "--count", "4"]) + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4 + 2
        assert all(json.loads(line.rstrip(","))["masses"] for line in lines[1:-1])


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

    def test_unknown_extension_refused(self, tmp_path, capsys):
        out = tmp_path / "out.jsn"
        assert main(["gen", "--count", "2", "--output", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "out.jsn" in err and "--format" in err


class TestEknnCommand:
    def test_loo_report(self, tmp_path):
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", "0.2,0.4,a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        report = tmp_path / "rep.json"
        code = main(
            ["eknn", "--train", str(train), "--k", "2", "--rule", "lns", "--report", str(report)]
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

    def test_every_sample_failing_writes_null(self, tmp_path, capsys):
        # pcr6 needs two sources, so every K=1 sample fails
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", "0.2,0.4,a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        assert main(["eknn", "--train", str(train), "--k", "1", "--rule", "pcr6"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert doc["max_kappa"] == [None]
        assert doc["failed_samples"] == [6]

    def test_bad_range(self, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("0,0,a\n1,0,b\n")
        assert main(["eknn", "--train", str(train), "--sweep-k", "5"]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_exit_code(self, tmp_path, capsys, cell):
        train = tmp_path / "train.csv"
        rows = ["0,0,a", "0.5,0,a", f"0.2,{cell},a", "5,0,b", "5.5,0,b", "5.2,0.4,b"]
        train.write_text("\n".join(rows) + "\n")
        assert main(["eknn", "--train", str(train), "--k", "2"]) == 2
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["eknn-sweep", "--k-max", "1", "--rule", "dempster"],
            ["timing", "--rule", "average", "--sources", "10", "--repeats", "1"],
            ["eta-sweep"],
        ],
    )
    def test_eta_refused_where_not_taken(self, argv, capsys):
        assert main(["experiment", *argv, "--eta", "7"]) == 2
        assert "unknown experiment parameters: ['eta']" in capsys.readouterr().err

    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "mystery"])
        assert err.value.code == 2


class TestBench:
    """Timing records come from ``experiment timing``; there is no ``bench`` command."""

    def test_bench_record(self, tmp_path):
        out = tmp_path / "timing.json"
        code = main(
            ["experiment", "timing", "--rule", "lns", "--sources", "500", "--frame", "4",
             "--repeats", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["sources_grid"] == [500]
        assert doc["series"]["time/lns"]["y"][0] >= 0
        assert "lns_step/decompose" in doc["series"]

    def test_consonant_below_five_hypotheses(self, tmp_path):
        # the consonant chains have min(5, frame) sets
        out = tmp_path / "timing.json"
        code = main(
            ["experiment", "timing", "--kind", "consonant", "--frame", "4", "--sources", "200",
             "--repeats", "1", "--output", str(out)]
        )
        assert code == 0
        assert "num_focals" not in json.loads(out.read_text())["parameters"]

    def test_zero_repeats_exit_code(self):
        assert main(
            ["experiment", "timing", "--rule", "average", "--sources", "10", "--repeats", "0"]
        ) == 2

    def test_bench_command_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--rule", "lns"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


def _readme_command_lines() -> list[str]:
    """Each ``masscomb`` line of the README's command-line block, every
    ``{a|b}`` expanded to each alternative and ``[ ]`` brackets dropped."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    pending = [line for line in block.splitlines() if line.startswith("masscomb ")]
    lines = []
    while pending:
        line = pending.pop(0)
        choice = re.search(r"\{([^}]*)\}", line)
        if choice:
            pending += [line[: choice.start()] + alt + line[choice.end() :]
                        for alt in choice.group(1).split("|")]
        else:
            lines.append(" ".join(line.replace("[", "").replace("]", "").split()))
    return lines


class TestReadme:
    def test_block_found(self):
        assert len(_readme_command_lines()) >= 8

    @pytest.mark.parametrize("line", _readme_command_lines())
    def test_command_line_parses(self, line):
        build_parser().parse_args(shlex.split(line)[1:])
