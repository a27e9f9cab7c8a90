"""Dense-CSV and sparse-JSON round trips and error reporting."""

import csv
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masscomb import io as mio
from masscomb.cli import main
from masscomb.core import FrameOfDiscernment, MassFunction, SimpleSupport, _trusted, discount
from masscomb.errors import EncodingError, ParameterError, ParseError
from masscomb.genrand import GenSpec, generate
from masscomb.io import (
    read_bbas,
    read_csv,
    read_json,
    write_bbas,
    write_csv,
    write_json,
)

from conftest import (
    csv_module_write,
    per_row_json_doc,
    per_row_read_csv,
    per_row_read_json,
)


@pytest.fixture
def six(frame3):
    ms = [SimpleSupport(frame3, 1, w).to_mass() for w in (0.88, 0.84, 0.85, 0.89, 0.86)]
    ms.append(SimpleSupport(frame3, 2, 0.05).to_mass())
    return ms


class TestCsv:
    def test_round_trip_exact(self, tmp_path, six):
        path = tmp_path / "six.csv"
        write_csv(path, six)
        back = read_csv(path, labels=six[0].frame.labels)
        assert all(a == b for a, b in zip(six, back))

    def test_header_is_binary_bitmasks(self, tmp_path, six):
        path = tmp_path / "six.csv"
        write_csv(path, six)
        head = path.read_text().splitlines()[0]
        assert head == "000,001,010,011,100,101,110,111"

    def test_string_labels_refused(self, tmp_path, six):
        # "abc" would otherwise name a 3-hypothesis frame one label per character
        path = tmp_path / "six.csv"
        write_csv(path, six)
        with pytest.raises(ParameterError, match="not one string"):
            read_csv(path, labels="abc")
        assert read_csv(path, labels=("a", "b", "c"))[0].frame.labels == ("a", "b", "c")

    def test_vacuous_row_encoding(self, tmp_path, frame3):
        path = tmp_path / "vac.csv"
        write_csv(path, [MassFunction.vacuous(frame3)])
        row = [float(tok) for tok in path.read_text().splitlines()[1].split(",")]
        assert row[7] == 1.0 and sum(row[:7]) == 0.0

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,1\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.line == 1

    def test_bad_sum_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n0,0,0,1\n0,0.5,0,0.4\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.line == 3

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n0,zero,0,1\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.line == 2

    def test_wrong_width_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n0,0,1\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"00,01,10,11\n0,0,0,1\n0,{cell},0,1\n")
        with pytest.raises(ParseError, match="finite") as err:
            read_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["0,0.5,0,0.4", "0,0,0,1", "0,zero,0,1"], 2),  # bad sum, then a bad token
            (["0,0,0,1", "0,zero,0,1", "0,0.5,0,0.4"], 3),  # bad token, then a bad sum
            (["0,0,0,1", "0,0,1", "-1,1,0,1"], 3),  # wrong width, then a negative mass
            (["0,0,0,1", "0,-1,1,1", "0,0,1"], 3),  # negative mass, then wrong width
            (["0,0,0,1", "0,0.5,0,0.4", "0,nan,0,1"], 3),  # bad sum, then non-finite
        ],
    )
    def test_earliest_bad_line_wins(self, tmp_path, lines, line):
        path = tmp_path / "bad.csv"
        path.write_text("00,01,10,11\n" + "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.line == line

    def test_small_rounding_absorbed(self, tmp_path):
        path = tmp_path / "round.csv"
        path.write_text("00,01,10,11\n0,0.3333333,0.3333333,0.3333333\n")
        (m,) = read_csv(path)
        assert float(m.values.sum()) == pytest.approx(1.0, abs=1e-15)


class TestJson:
    def test_round_trip(self, tmp_path, six):
        path = tmp_path / "six.json"
        write_json(path, six)
        back = read_json(path)
        assert back[0].frame == six[0].frame
        assert all(a == b for a, b in zip(six, back))

    def test_spec_layout(self, tmp_path, frame3):
        path = tmp_path / "one.json"
        path.write_text(
            '{"frame": ["theta1", "theta2", "theta3"],'
            ' "bbas": [{"focal elements": [["theta1"], ["theta1", "theta3"]],'
            ' "masses": [0.4, 0.6]}]}'
        )
        (m,) = read_json(path)
        assert m.values[1] == 0.4 and m.values[5] == 0.6

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"frame": ["a"], "bbas": [{"focal elements": [["b"]], "masses": [1.0]}]}')
        with pytest.raises(ParseError):
            read_json(path)

    def test_duplicate_focal_rejected(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            '{"frame": ["a", "b"], "bbas": [{"focal elements": [["a"], ["a"]], "masses": [0.5, 0.5]}]}'
        )
        with pytest.raises(ParseError):
            read_json(path)

    def test_unicode_labels_round_trip(self, tmp_path):
        frame = FrameOfDiscernment.of("\u03b81", "\u03b82", "\u03b83")
        m = MassFunction.from_dict(frame, {1: 0.4, 5: 0.6})
        path = tmp_path / "theta.json"
        write_json(path, [m])
        (back,) = read_json(path)
        assert back.frame.labels == frame.labels
        assert back == m

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"frame": ["a"],\n "bbas": [}')
        with pytest.raises(ParseError) as err:
            read_json(path)
        assert err.value.line == 2


    def test_non_finite_mass_reports_position(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            '{"frame": ["a", "b"], "bbas": [{"focal elements": [["a"]], "masses": [1.0]},'
            ' {"focal elements": [["a"], ["b"]], "masses": [NaN, 1.0]}]}'
        )
        with pytest.raises(ParseError, match="bba 1: mass values must be finite"):
            read_json(path)

    def test_earliest_bad_entry_wins(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            '{"frame": ["a", "b"], "bbas": [{"focal elements": [["a"]], "masses": [1.0]},'
            ' {"focal elements": [["a"]], "masses": [0.5]},'
            ' {"focal elements": [["c"]], "masses": [1.0]}]}'
        )
        with pytest.raises(ParseError, match="bba 1: masses sum to 0.5"):
            read_json(path)

    @pytest.mark.parametrize(
        "bbas", ['{"bad": 1}', "[1]", '[{"focal elements": [["a"]], "masses": ["x"]}]']
    )
    def test_malformed_entries_rejected(self, tmp_path, bbas):
        path = tmp_path / "one.json"
        path.write_text('{"frame": ["a", "b"], "bbas": ' + bbas + "}")
        with pytest.raises(ParseError):
            read_json(path)


    @pytest.mark.parametrize("focals, message", [
        ([["b", "a"], ["c"]], "bba 1: unknown hypothesis label 'c'"),
        ([5], "bba 1: 'int' object is not iterable"),
        ([None], "bba 1: 'NoneType' object is not iterable"),
        ([["a"], [["a"]]], "bba 1: unhashable type: 'list'"),
        ([["a"], ["a"]], "bba 1: duplicate focal element {a}"),
        ([["b", "a"], ["a", "b"]], "bba 1: duplicate focal element {a,b}"),
    ])
    def test_errors_after_labels_were_seen(self, tmp_path, focals, message):
        # the first entry puts both focal sets in the per-call label table
        first = {"focal elements": [["a"], ["b", "a"]], "masses": [0.5, 0.5]}
        second = {"focal elements": focals, "masses": [1.0 / len(focals)] * len(focals)}
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"frame": ["a", "b"], "bbas": [first, second]}))
        with pytest.raises(ParseError) as err:
            read_json(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("frame", ['"ab"', "[1, 2]", '["a", 2]', '{"a": 0}', "null"])
    def test_frame_must_be_a_list_of_strings(self, tmp_path, frame):
        # a string would read as one label per character, a number as its text
        path = tmp_path / "one.json"
        path.write_text('{"frame": ' + frame + ', "bbas": [{"focal elements": [["a"]], "masses": [1.0]}]}')
        with pytest.raises(ParseError, match="'frame' must be a list of label strings"):
            read_json(path)
        assert main(["fuse", "--input", str(path)]) == 2

    def test_label_orders_resolve_as_sets(self, tmp_path):
        doc = {"frame": ["a", "b"], "bbas": [
            {"focal elements": [["a"], ["b", "a"]], "masses": [0.5, 0.5]},
            {"focal elements": [["a", "a"], ["a", "b"]], "masses": [0.5, 0.5]},
        ]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        got = read_json(path)
        assert [m.values.tolist() for m in got] == [[0.0, 0.5, 0.0, 0.5]] * 2
        assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in per_row_read_json(path)]

    @pytest.mark.parametrize("entry, message", [
        ({"focal elements": 5, "masses": [1.0]},
         "bba 1: 'focal elements' and 'masses' must be lists"),
        ({"focal elements": [["a"]], "masses": 1.0},
         "bba 1: 'focal elements' and 'masses' must be lists"),
        ({"focal elements": "ab", "masses": [0.5, 0.5]},
         "bba 1: 'focal elements' and 'masses' must be lists"),
        ({"focal elements": {"a": 1}, "masses": [1.0]},
         "bba 1: 'focal elements' and 'masses' must be lists"),
        ({"focal elements": [["a"], "ab"], "masses": [0.5, 0.5]},
         "bba 1: focal element 'ab' is not a list of labels"),
        ({"focal elements": ["ab"], "masses": [1.0]},
         "bba 1: focal element 'ab' is not a list of labels"),
        ({"focal elements": [["a"]], "masses": ["1.0"]},
         "bba 1: mass '1.0' is not a number"),
        ({"focal elements": [["a"]], "masses": [True]},
         "bba 1: mass True is not a number"),
        ({"focal elements": [["a"]], "masses": [10**400]},
         "bba 1: int too large to convert to float"),
    ])
    def test_non_lists_are_refused(self, tmp_path, entry, message):
        # a string must not be read as one label per character, even once
        # the labels it spells are in the per-call label table
        first = {"focal elements": [["a"], ["a", "b"]], "masses": [0.5, 0.5]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"frame": ["a", "b"], "bbas": [first, entry]}))
        with pytest.raises(ParseError) as err:
            read_json(path)
        assert str(err.value) == message
        assert main(["fuse", "--rule", "lns", "--input", str(path)]) == 2


class TestOneBlock:
    """Readers fill one block and validate it once; the result must equal
    validating one assignment at a time."""

    @pytest.mark.parametrize("kind, n", [("general", 3), ("consonant", 5), ("ssf", 8)])
    def test_equals_per_row(self, tmp_path, kind, n):
        frame = FrameOfDiscernment.numbered(n)
        ms = generate(GenSpec(frame, kind=kind, num_focals=2, seed=n), 200)
        cpath, jpath = tmp_path / "a.csv", tmp_path / "a.json"
        write_csv(cpath, ms)
        write_json(jpath, ms)
        for got, want in ((read_csv(cpath), per_row_read_csv(cpath)),
                          (read_json(jpath), per_row_read_json(jpath))):
            assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in want]

    def test_rounded_rows_equal_per_row(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [",".join(f"{x:.7f}" for x in rng.dirichlet(np.ones(8))) for _ in range(300)]
        path = tmp_path / "r.csv"
        path.write_text("000,001,010,011,100,101,110,111\n" + "\n".join(rows) + "\n")
        got, want = read_csv(path), per_row_read_csv(path)
        assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in want]
        assert all(m.frame is got[0].frame for m in got)


class TestConversion:
    def test_sparse_dense_lossless(self, tmp_path, six):
        jpath = tmp_path / "six.json"
        cpath = tmp_path / "six.csv"
        write_json(jpath, six)
        via_json = read_json(jpath)
        write_csv(cpath, via_json)
        via_csv = read_csv(cpath, labels=six[0].frame.labels)
        for a, b in zip(via_csv, six):
            assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_read_bbas_takes_no_labels(self, tmp_path, six):
        path = tmp_path / "six.csv"
        write_csv(path, six)
        with pytest.raises(TypeError):
            read_bbas(path, labels=("a", "b", "c"))
        assert not hasattr(mio, "default_labels")

    def test_dispatch_by_extension(self, tmp_path, six):
        jpath = tmp_path / "six.json"
        write_bbas(jpath, six)
        assert read_bbas(jpath)[0] == six[0]
        cpath = tmp_path / "six.csv"
        write_bbas(cpath, six)
        assert len(read_bbas(cpath)) == 6


def _outcome(path):
    """The rows ``read_csv`` returns, or the message and line of its ``ParseError``."""
    try:
        return [m.values.tobytes() for m in read_csv(path)]
    except ParseError as exc:
        return str(exc), exc.line


def _token_outcome(path):
    """``_outcome`` with the ``np.loadtxt`` body parse refused, so the token
    parser reads every file."""
    with mock.patch.object(mio, "_loadtxt_body", side_effect=ValueError("refused")):
        return _outcome(path)


_VALID_ROWS = [
    ["0", "0", "0", "1"],
    ["0", "0.5", "0.5", "0"],
    ["0.25", "0.25", "0.25", "0.25"],
    ["1.0", "0", "-0.0", "0"],
    ["0", "2.5e-1", "0.75", "0"],
]
_QUIRKS = ["", "x", "nan", "inf", "-inf", "1_0", '"0.5"', " ", "0.5 ", "\t1", "1e", "0x1p0"]
_NEWLINES = ["\n", "\r\n", "\r"]


def _dressed(cell: str) -> list[str]:
    """Spellings of ``cell`` that ``float()`` reads as the same value."""
    forms = [f" {cell} ", f"\t{cell}", f'"{cell}"']
    if "." in cell:
        forms.append(f"{cell}_0")
    elif cell == "0":
        forms.append("0_0")
    return forms


@st.composite
def csv_bodies(draw):
    """Bodies of a 2-hypothesis dense CSV with the quirks a CSV can carry:
    blank and whitespace lines, LF, CRLF and CR-only newlines, padded and
    quoted cells, underscores, non-finite and unparsable cells, short rows
    and trailing commas."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "dressed", "quirk", "short", "long", "blank", "space"]))
        row = list(draw(st.sampled_from(_VALID_ROWS)))
        at = draw(st.integers(0, 3))
        if kind == "dressed":
            row[at] = draw(st.sampled_from(_dressed(row[at])))
        elif kind == "quirk":
            row[at] = draw(st.sampled_from(_QUIRKS))
        elif kind == "short":
            row = row[:-1]
        elif kind == "long":
            row.append("")  # a trailing comma
        if kind == "blank":
            text = ""
        elif kind == "space":
            text = draw(st.sampled_from([" ", "\t", ",,,"]))
        else:
            text = ",".join(row)
        lines.append(text + draw(st.sampled_from(_NEWLINES)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no newline at the end of the file
    return "".join(lines)


class TestFastCsvPath:
    """``read_csv`` parses a body with one ``np.loadtxt`` call and hands
    anything that fails to the token parser; the two must agree on every file."""

    @given(csv_bodies(), st.sampled_from(_NEWLINES))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_token_parser(self, tmp_path_factory, body, newline):
        path = tmp_path_factory.mktemp("fast") / "body.csv"
        path.write_bytes(("00,01,10,11" + newline + body).encode())
        assert _outcome(path) == _token_outcome(path)
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh)][1:]
            fh.seek(0)
            fh.readline()
            try:
                block = mio._loadtxt_body(fh, 4)
            except ValueError:
                return
        # where loadtxt accepts a body, it reads every cell as float() does
        want = np.array([[float(tok) for tok in row] for row in rows if row])
        assert block.tobytes() == want.tobytes()

    def test_clean_file_takes_the_fast_path(self, tmp_path):
        ms = generate(GenSpec(FrameOfDiscernment.numbered(4), kind="general", seed=2), 50)
        path = tmp_path / "clean.csv"
        write_csv(path, ms)
        with mock.patch.object(mio, "_loadtxt_body", wraps=mio._loadtxt_body) as spy:
            got = read_csv(path)
        assert spy.call_count == 1
        assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in per_row_read_csv(path)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n\r"])
    def test_blank_body_is_no_assignments_without_warning(self, tmp_path, body):
        path = tmp_path / "blank.csv"
        path.write_bytes(("00,01,10,11\n" + body).encode())
        with pytest.raises(ParseError, match="no assignments in file") as err:
            read_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "body",
        ['"0",0,0,1\r\n', "0,0,0,1\r0,0.5,0.5,0\r", "0_0,0,0,1.0_0\n0,0,0,1\n", "\n\n0,0,0,1\n\n"],
    )
    def test_quirky_but_valid_bodies_read(self, tmp_path, body):
        path = tmp_path / "q.csv"
        path.write_bytes(("00,01,10,11\n" + body).encode())
        got = read_csv(path)
        assert [m.values.tobytes() for m in got] == _token_outcome(path)
        assert all(float(m.values.sum()) == 1.0 for m in got)


class TestWriters:
    """The writers' bytes and documents equal the per-row writers they replaced."""

    @pytest.fixture
    def batches(self):
        frame = FrameOfDiscernment.numbered(3)
        ms = generate(GenSpec(frame, kind="general", seed=4), 40)
        ms += generate(GenSpec(frame, kind="ssf", seed=5), 40)
        ms.append(MassFunction.from_dict(frame, {1: 5e-324, 7: 1.0 - 5e-324}))
        ms.append(_trusted(frame, np.array([-0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5])))
        # a tail and a head of two producer blocks: long runs, written from views
        general = generate(GenSpec(frame, kind="general", seed=6), 300)
        return ms, general[100:] + generate(GenSpec(frame, kind="ssf", seed=7), 300)[:200]

    @pytest.mark.parametrize("cells", [1, 7, 1 << 18])
    def test_csv_bytes_equal_csv_module(self, tmp_path, monkeypatch, batches, cells):
        monkeypatch.setattr(mio, "_WRITE_CELLS", cells)
        for batch in batches:
            write_csv(tmp_path / "got.csv", batch)
            csv_module_write(tmp_path / "want.csv", batch)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("cells", [1, 7, 1 << 18])
    def test_json_document_equals_per_row(self, tmp_path, monkeypatch, batches, cells):
        monkeypatch.setattr(mio, "_WRITE_CELLS", cells)
        path = tmp_path / "got.json"
        for batch in batches:
            write_json(path, batch)
            assert json.loads(path.read_text()) == per_row_json_doc(batch)
            assert len(path.read_text().splitlines()) == len(batch) + 2

    @pytest.mark.parametrize("write", [write_csv, write_json])
    def test_loose_rows_stacked_one_block_at_a_time(self, tmp_path, monkeypatch, write):
        # rows of no block, as discount makes them: 4 MB of values, written
        # in blocks of 64 rows
        monkeypatch.setattr(mio, "_WRITE_CELLS", 1 << 14)
        frame = FrameOfDiscernment.numbered(8)
        batch = [discount(m, 0.9) for m in generate(GenSpec(frame, kind="ssf", seed=8), 2000)]
        assert all(m._block is None for m in batch)
        path = tmp_path / "got"
        tracemalloc.start()
        try:
            write(path, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(batch) * frame.powerset_size * 8 / 4
        if write is write_csv:
            csv_module_write(tmp_path / "want", batch)
            assert path.read_bytes() == (tmp_path / "want").read_bytes()
        else:
            assert json.loads(path.read_text()) == per_row_json_doc(batch)

    @pytest.mark.parametrize("write", [write_csv, write_json])
    @pytest.mark.parametrize("to", ["path", "stream"])
    def test_other_frames_of_one_size_refused(self, tmp_path, write, to):
        ms = [MassFunction.categorical(FrameOfDiscernment.of(*labels), 1) for labels in ("ab", "cd")]
        target = tmp_path / "out" if to == "path" else io.StringIO()
        with pytest.raises(EncodingError, match="share one frame"):
            write(target, ms)
        if to == "path":
            assert not target.exists()
        else:
            assert target.getvalue() == ""

    @pytest.mark.parametrize("write", [write_csv, write_json])
    def test_mixed_frame_sizes_refused(self, tmp_path, write):
        batch = [MassFunction.vacuous(FrameOfDiscernment.numbered(n)) for n in (3, 3, 4)]
        with pytest.raises(ParameterError, match="must share one frame size"):
            write(tmp_path / "out", batch)
