"""Documented refusals, one table: each bad input must end in its error class
and message, and a command that reaches it must print that message and exit
with code 2."""

import json

import numpy as np
import pytest

from masscomb.cli import main
from masscomb.core import (
    FrameOfDiscernment,
    RepresentationVector,
    WeightVector,
    commonality_to_mass,
    implicability_to_mass,
    transform,
)
from masscomb.eknn import EknnConfig, LabeledDataset, classify, load_dataset_csv, resolve_gamma
from masscomb.errors import EncodingError, InvalidImageError, ParameterError, ParseError
from masscomb.experiments import run_experiment
from masscomb.genrand import GenSpec
from masscomb.io import read_bbas, read_csv, read_json, write_csv, write_json

F2, F3 = FrameOfDiscernment.numbered(2), FrameOfDiscernment.numbered(3)
ONES = np.ones(8)  # the commonality of the vacuous assignment on F3
POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
GOOD_CSV = "00,01,10,11\n0,0.5,0,0.5\n"
DATASET = "1.0,2.0,a\n3.0,4.0,b\n"
RAGGED = "0,a\n1,2,a\n5,b\n6,b\n"


def _put(d, name: str, text: str) -> str:
    path = d / name
    path.write_text(text)
    return str(path)


def _doc(d, doc) -> str:
    return _put(d, "in.json", json.dumps(doc))


def _bba(**entry) -> dict:
    return {"frame": ["a", "b"], "bbas": [entry]}


# (call on a scratch directory, error class, message, command argv on that
# directory or None where no command reaches the refusal)
CASES = {
    # core
    "frame-size-0": (lambda d: FrameOfDiscernment.numbered(0), ParameterError,
                     "frame size must be at least 1", lambda d: ["gen", "--frame-size", "0"]),
    "vector-kind": (lambda d: RepresentationVector(F3, "entropy", ONES), ParameterError,
                    "unknown representation kind 'entropy'", None),
    "vector-length": (lambda d: RepresentationVector(F3, "belief", np.ones(4)), EncodingError,
                      "belief vector must have length 8, got (4,)", None),
    "weights-shape": (lambda d: WeightVector(F3, np.ones((2, 8))), EncodingError,
                      "expected 8 weights, got shape (2, 8)", None),
    # core transforms
    "commonality-of-implicability": (
        lambda d: commonality_to_mass(RepresentationVector(F3, "implicability", ONES)),
        ParameterError, "expected a commonality vector, got 'implicability'", None),
    "implicability-of-commonality": (
        lambda d: implicability_to_mass(RepresentationVector(F3, "commonality", ONES)),
        ParameterError, "expected an implicability vector, got 'commonality'", None),
    "commonality-sums-to-2": (
        lambda d: commonality_to_mass(RepresentationVector(F3, "commonality", 2 * ONES)),
        InvalidImageError, "masses sum to 2.0, expected 1", None),
    "implicability-sums-to-2": (
        lambda d: implicability_to_mass(
            RepresentationVector(F3, "implicability", np.eye(8)[7] * 2)),
        InvalidImageError, "masses sum to 2.0, expected 1", None),
    "transform-vector-to-belief": (
        lambda d: transform(RepresentationVector(F3, "commonality", ONES), "belief"),
        ParameterError, "cannot convert a commonality vector to 'belief'; only 'mass' is supported",
        None),
    "transform-list": (lambda d: transform([0.5, 0.5], "belief"), ParameterError,
                       "cannot transform object of type list", None),
    # EkNN
    "dataset-1d": (lambda d: LabeledDataset(np.zeros(3), np.zeros(3), F2), ParameterError,
                   "need a 2-d array of at least two points", None),
    "dataset-label-count": (lambda d: LabeledDataset(POINTS, [0, 1], F2), ParameterError,
                            "one label per point required", None),
    "dataset-label-outside": (lambda d: LabeledDataset(POINTS, [0, 1, 2], F2), ParameterError,
                              "labels must index hypotheses of the class frame", None),
    "eknn-k-0": (lambda d: EknnConfig(k=0), ParameterError, "k must be at least 1",
                 lambda d: ["eknn", "--train", _put(d, "train.csv", DATASET), "--k", "0"]),
    "eknn-alpha-0": (lambda d: EknnConfig(alpha=0), ParameterError, "alpha must lie in (0, 1]",
                     lambda d: ["eknn", "--train", _put(d, "train.csv", DATASET), "--alpha", "0"]),
    "gamma-string": (
        lambda d: resolve_gamma(LabeledDataset(POINTS, [0, 1, 0], F2), EknnConfig(gamma="median")),
        ParameterError, "gamma must be 'auto' or per-class values, got 'median'", None),
    "classify-k-above-points": (
        lambda d: classify([0.5, 0.5], LabeledDataset(POINTS, [0, 1, 0], F2), EknnConfig(k=4)),
        ParameterError, "k=4 exceeds the 3 available neighbours", None),
    "dataset-csv-empty": (lambda d: load_dataset_csv(_put(d, "train.csv", "")), ParseError,
                          "line 1: empty dataset",
                          lambda d: ["eknn", "--train", _put(d, "train.csv", "")]),
    "dataset-csv-one-column": (
        lambda d: load_dataset_csv(_put(d, "train.csv", "1.0,a\n2\n")), ParseError,
        "line 2: need at least one feature and a label",
        lambda d: ["eknn", "--train", _put(d, "train.csv", "1.0,a\n2\n")]),
    "dataset-csv-feature": (
        lambda d: load_dataset_csv(_put(d, "train.csv", "1.0,a\nx1,b\n")), ParseError,
        "line 2: could not convert string to float: 'x1'",
        lambda d: ["eknn", "--train", _put(d, "train.csv", "1.0,a\nx1,b\n")]),
    "dataset-csv-blank-line": (
        lambda d: load_dataset_csv(_put(d, "train.csv", "1.0,a\n\nx1,b\n")), ParseError,
        "line 3: could not convert string to float: 'x1'",
        lambda d: ["eknn", "--train", _put(d, "train.csv", "1.0,a\n\nx1,b\n")]),
    "dataset-csv-ragged": (
        lambda d: load_dataset_csv(_put(d, "train.csv", RAGGED)), ParseError,
        "line 2: 2 features, but line 1 has 1",
        lambda d: ["eknn", "--train", _put(d, "train.csv", RAGGED), "--k", "2"]),
    "dataset-csv-header-only": (
        lambda d: load_dataset_csv(_put(d, "train.csv", "x,label\n")), ParseError,
        "line 1: no points in file",
        lambda d: ["eknn", "--train", _put(d, "train.csv", "x,label\n")]),
    # experiments
    "experiment-ts-negative": (
        lambda d: run_experiment("conflict-sweep", {"ts": [-1]}), ParameterError,
        "experiment parameter 'ts' must be at least 1, got -1",
        lambda d: ["experiment", "conflict-sweep", "--t", "-1"]),
    "experiment-s2-grid-negative": (
        lambda d: run_experiment("conflict-sweep", {"s2_grid": [-5]}), ParameterError,
        "experiment parameter 's2_grid' must be at least 1, got -5",
        lambda d: ["experiment", "conflict-sweep", "--sources", "-5"]),
    "experiment-n-per-class-negative": (
        lambda d: run_experiment("eknn-sweep", {"n_per_class": -1}), ParameterError,
        "experiment parameter 'n_per_class' must be at least 1, got -1", None),
    "experiment-eta-max-negative": (
        lambda d: run_experiment("eta-sweep", {"eta_max": -1}), ParameterError,
        "experiment parameter 'eta_max' must be at least 0, got -1.0", None),
    # genrand
    "gen-kind": (lambda d: GenSpec(F3, kind="dirichlet"), ParameterError,
                 "unknown generator kind 'dirichlet'", None),
    "gen-empty-pool": (lambda d: GenSpec(F3, kind="ssf", focal_pool=()), ParameterError,
                       "focal pool must not be empty", None),
    "gen-threshold-1": (lambda d: GenSpec(F3, min_singleton_mass=1.0), ParameterError,
                        "min_singleton_mass must lie in [0, 1)",
                        lambda d: ["gen", "--min-singleton-mass", "1"]),
    "gen-threshold-negative": (lambda d: GenSpec(F3, min_singleton_mass=-0.1), ParameterError,
                               "min_singleton_mass must lie in [0, 1)",
                               lambda d: ["gen", "--min-singleton-mass", "-0.1"]),
    # io
    "write-csv-nothing": (lambda d: write_csv(d / "out.csv", []), ParameterError,
                          "nothing to write", None),
    "write-json-nothing": (lambda d: write_json(d / "out.json", []), ParameterError,
                           "nothing to write", None),
    "csv-no-header": (lambda d: read_csv(_put(d, "in.csv", "")), ParseError,
                      "line 1: empty file",
                      lambda d: ["fuse", "--input", _put(d, "in.csv", "")]),
    "csv-3-columns": (lambda d: read_csv(_put(d, "in.csv", "0,1,2\n0,0,1\n")), ParseError,
                      "line 1: 3 columns is not a power-set size",
                      lambda d: ["fuse", "--input", _put(d, "in.csv", "0,1,2\n0,0,1\n")]),
    "csv-label-count": (lambda d: read_csv(_put(d, "in.csv", GOOD_CSV), labels=("a", "b", "c")),
                        ParameterError, "3 labels supplied for 2-element data", None),
    "json-no-bbas-key": (lambda d: read_json(_doc(d, {"frame": ["a", "b"]})), ParseError,
                         "document must have 'frame' and 'bbas' keys",
                         lambda d: ["fuse", "--input", _doc(d, {"frame": ["a", "b"]})]),
    "json-no-frame-key": (lambda d: read_json(_doc(d, {"bbas": []})), ParseError,
                          "document must have 'frame' and 'bbas' keys",
                          lambda d: ["fuse", "--input", _doc(d, {"bbas": []})]),
    "json-bad-frame": (lambda d: read_json(_doc(d, {"frame": ["a", "a"], "bbas": []})), ParseError,
                       "bad frame: hypothesis labels must be unique",
                       lambda d: ["fuse", "--input", _doc(d, {"frame": ["a", "a"], "bbas": []})]),
    "json-no-bbas": (lambda d: read_json(_doc(d, {"frame": ["a", "b"], "bbas": []})), ParseError,
                     "no assignments in file",
                     lambda d: ["fuse", "--input", _doc(d, {"frame": ["a", "b"], "bbas": []})]),
    "json-no-masses": (lambda d: read_json(_doc(d, _bba(**{"focal elements": [["a"]]}))),
                       ParseError, "bba 0: needs 'focal elements' and 'masses'",
                       lambda d: ["fuse", "--input", _doc(d, _bba(**{"focal elements": [["a"]]}))]),
    "json-count-mismatch": (
        lambda d: read_json(_doc(d, _bba(**{"focal elements": [["a"], ["b"]], "masses": [1.0]}))),
        ParseError, "bba 0: 2 focal elements but 1 masses",
        lambda d: ["fuse", "--input",
                   _doc(d, _bba(**{"focal elements": [["a"], ["b"]], "masses": [1.0]}))]),
    "unknown-format": (lambda d: read_bbas(_put(d, "in.csv", GOOD_CSV), fmt="xml"), ParameterError,
                       "unknown format 'xml'; choose from ('csv', 'json')", None),
    # CLI
    "gen-labels-repeated": (lambda d: FrameOfDiscernment(("a", "a")), ParameterError,
                            "hypothesis labels must be unique",
                            lambda d: ["gen", "--labels", "a,a"]),
}


@pytest.mark.parametrize("call, error, message, argv", CASES.values(), ids=CASES)
def test_refusal(tmp_path, capsys, call, error, message, argv):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message
    if argv is not None:
        capsys.readouterr()
        assert main(argv(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_labels_name_the_frame(capsys):
    # the JSON writer names the frame by its labels
    assert main(["gen", "--labels", "x, y ,z", "--count", "2", "--format", "json", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frame"] == ["x", "y", "z"]
    assert len(doc["bbas"]) == 2
    assert all(set(sum(bba["focal elements"], [])) <= {"x", "y", "z"} for bba in doc["bbas"])
