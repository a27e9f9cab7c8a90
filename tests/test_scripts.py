"""The timing scripts build every cell against this tree's ``src`` and run it
once, so an internal they call cannot be renamed from under them; the
warning fuzz runs a slice of its inputs."""

import importlib
from pathlib import Path

import pytest

import masscomb

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))


@pytest.mark.parametrize("name", ["bench_gen_combine", "bench_eknn_loo"])
def test_every_cell_runs_once(scripts, name):
    assert Path(masscomb.__file__).resolve().parent == ROOT / "src" / "masscomb"
    script = importlib.import_module(name)
    cells = script._cells()
    assert sorted(cells) == sorted(script.NAMES)
    for cell in cells.values():
        cell.call(*cell.setup())


@pytest.mark.parametrize("rounds, want", [
    (1, [(("parent", "change"), [0])]),
    (2, [(("parent", "change"), [0]), (("change", "parent"), [1])]),
    (15, [(("parent", "change"), list(range(8))), (("change", "parent"), list(range(8, 15)))]),
])
def test_children_restart_in_the_other_order_for_the_rest(scripts, rounds, want):
    # a half with no round starts no children
    benchpair = importlib.import_module("benchpair")
    assert [(starts, list(span)) for starts, span in benchpair.start_orders(rounds)] == want


def test_warning_fuzz_finds_nothing(scripts, capsys):
    fuzz = importlib.import_module("fuzz_warnings")
    assert fuzz.main(["--count", "50", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "0 faults on 50 inputs (seed 1)\n"
