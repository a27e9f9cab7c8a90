"""Rows remember their block.

Every producer validates one block and each of its rows keeps that block
and a key, so the rules resolve any list of rows, however it was cut,
reordered and joined, to runs of block rows and read each block's columns
from one split.  Whatever the list, each rule must give exactly the result
of the same rows built one by one, which belong to no block.
"""

import gc
import pickle
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masscomb import core, rules
from masscomb.core import (
    FrameOfDiscernment,
    MassFunction,
    SimpleSupport,
    _simple_supports,
    _trusted,
)
from masscomb.errors import EncodingError, MassCombError
from masscomb.genrand import GenSpec, generate
from masscomb.io import read_bbas, write_bbas
from masscomb.rules import RULE_NAMES, RuleConfig, combine

from conftest import random_mass

#: Small enough that dp and pcr6 end in the guard or enumerate quickly.
_GUARD = 5_000


def _outcome(ms, rule):
    try:
        res = combine(ms, RuleConfig(rule=rule, enumeration_guard=_GUARD))
    except MassCombError as exc:
        return type(exc), str(exc)
    return res.mass.values.tobytes(), res.groups


def _one_by_one(ms):
    # the same values in rows of no block; MassFunction(frame, m.values)
    # would renormalise once more, which can move a value by an ulp
    return [_trusted(m.frame, m.values.copy()) for m in ms]


def _sources(n: int, seed: int, folder) -> list[list[MassFunction]]:
    """Rows from every producer, over two equal but distinct frames."""
    frame, twin = FrameOfDiscernment.numbered(n), FrameOfDiscernment.numbered(n)
    rng = np.random.default_rng(seed)
    count = lambda: int(rng.integers(1, 12))  # noqa: E731
    pool = None if n > 1 else (1,)
    ssf = generate(GenSpec(frame, kind="ssf", focal_pool=pool, seed=seed, stream=1), count())
    chains = generate(
        GenSpec(twin, kind="consonant", num_focals=int(rng.integers(1, n + 1)), seed=seed, stream=2),
        count(),
    )
    general = generate(GenSpec(frame, kind="general", seed=seed, stream=3), count())
    out = [ssf, chains, general]
    for name in ("rows.csv", "rows.json"):
        path = folder / name
        write_bbas(path, general + chains)
        out.append(read_bbas(path))
    # weights 0 and 1, the whole frame and the empty set as focal sets
    k = count()
    focals = rng.integers(0, frame.powerset_size, size=k)
    weights = rng.choice([0.0, 0.3, 0.9, 1.0], size=k)
    out.append(_simple_supports(twin, focals, weights))
    focals = rng.integers(1, frame.powerset_size, size=3)
    out.append([SimpleSupport(frame, int(a), 0.5).to_mass() for a in focals])
    out.append([random_mass(rng, twin, max_focals=3, allow_empty=bool(i % 2)) for i in range(count())])
    out.append([MassFunction.vacuous(frame)] * 2)
    out.append([pickle.loads(pickle.dumps(m)) for m in ssf + chains])
    return out


class TestAnyList:
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from((1, 3, 7, 16384)),
        step=st.integers(1, 3),
        duplicates=st.integers(0, 5),
        shuffle=st.booleans(),
        block_min=st.sampled_from((1, rules._RUN_MIN_ROWS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_its_rows_built_one_by_one(
        self, tmp_path_factory, n, seed, chunk, step, duplicates, shuffle, block_min
    ):
        rng = np.random.default_rng(seed)
        parts = _sources(n, seed, tmp_path_factory.mktemp("rows"))
        ms = [m for part in parts for m in part]
        if shuffle:
            ms = [ms[i] for i in rng.permutation(len(ms))]
        ms += [ms[i] for i in rng.integers(0, len(ms), size=duplicates)]
        ms = ms[int(rng.integers(0, step)) :: step] + parts[0]  # parts[0]: one whole block
        want = _one_by_one(ms)
        saved = rules._CHUNK_ROWS, rules._RUN_MIN_ROWS
        # block_min 1: the runs are joined one by one, never stacked
        rules._CHUNK_ROWS, rules._RUN_MIN_ROWS = chunk, block_min
        try:
            # each chunk's columns, in order, and its dense rows
            got_chunks, want_chunks = (list(rules._batch(x).chunks()) for x in (ms, want))
            assert [len(c) for c in got_chunks] == [len(c) for c in want_chunks]
            for got, expected in zip(got_chunks, want_chunks):
                got, expected = rules._split_rows(got), rules._split_rows(expected)
                assert got[0] == expected[0] and got[3] == expected[3]
                for a, b in zip(got[1:3] + got[4:], expected[1:3] + expected[4:]):
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for rule in RULE_NAMES:
                assert _outcome(ms, rule) == _outcome(want, rule), rule
        finally:
            rules._CHUNK_ROWS, rules._RUN_MIN_ROWS = saved

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_mixed_frames_are_refused(self, rule):
        frame3 = FrameOfDiscernment.numbered(3)
        ms = generate(GenSpec(frame3, kind="ssf", seed=1), 5)
        for other in (
            generate(GenSpec(FrameOfDiscernment.numbered(2), kind="ssf", seed=1), 2),
            generate(GenSpec(FrameOfDiscernment.of("a", "b", "c"), kind="ssf", seed=1), 2),
            [MassFunction.vacuous(FrameOfDiscernment.numbered(4))],
            # runs long enough to be kept as runs, not stacked
            generate(GenSpec(FrameOfDiscernment.of("a", "b", "c"), kind="ssf", seed=1), 300),
        ):
            for mixed in (ms + other, other + ms, ms[:2] + other + ms[2:], ms[::2] + other):
                with pytest.raises(EncodingError):
                    combine(mixed, RuleConfig(rule=rule))


class TestRuns:
    def test_one_block_in_order_is_one_run(self, frame3):
        ms = generate(GenSpec(frame3, kind="ssf", seed=2), 50)
        block = ms[0]._block
        assert rules._batch(ms).runs == [(block, 0, 50)]
        assert rules._batch(ms[7:19]).runs == [(block, 7, 19)]
        # 50 runs of one row each are stacked into one fresh block
        ((fresh, a, b),) = rules._batch(ms[::-1]).runs
        assert fresh is not block and (a, b) == (0, 50)
        assert np.array_equal(fresh.values, block.values[::-1])

    def test_rows_of_no_block_are_stacked_once(self, monkeypatch, frame3):
        monkeypatch.setattr(rules, "_RUN_MIN_ROWS", 1)
        ms = generate(GenSpec(frame3, kind="ssf", seed=2), 4)
        loose = [MassFunction.vacuous(frame3), SimpleSupport(frame3, 1, 0.5).to_mass()]
        loose = [pickle.loads(pickle.dumps(m)) for m in loose]
        batch = rules._batch(loose[:1] + ms[:2] + loose[1:] + ms[2:])
        (fresh, a, b), (block, c, d), (fresh2, e, f), (_, g, h) = batch.runs
        assert fresh is fresh2 and block is ms[0]._block and fresh is not block
        assert (a, b, c, d, e, f, g, h) == (0, 1, 0, 2, 1, 2, 2, 4)
        assert np.array_equal(fresh.values, [m.values for m in loose])

    def test_many_small_blocks_are_stacked_once(self, frame3):
        ms = [m for seed in range(10) for m in generate(GenSpec(frame3, kind="ssf", seed=seed), 5)]
        ((block, a, b),) = rules._batch(ms).runs
        assert (a, b) == (0, 50) and all(m._block is not block for m in ms)
        assert np.array_equal(block.values, [m.values for m in ms])
        big = generate(GenSpec(frame3, kind="ssf", seed=10), 11 * rules._RUN_MIN_ROWS)
        assert len(rules._batch(ms + big).runs) == 11

    def test_single_rows_belong_to_no_block(self, frame3):
        ssf = generate(GenSpec(frame3, kind="ssf", focal_pool=(1,), seed=2), 3)
        singles = [
            SimpleSupport(frame3, 1, 0.5).to_mass(),
            generate(GenSpec(frame3, kind="general", seed=2), 1)[0],
            combine(ssf, RuleConfig(rule="lns")).mass,  # one active group
            _simple_supports(frame3, [3], [0.2])[0],
        ]
        assert all(m._block is None for m in singles)

    def test_many_single_rows_cost_one_stack(self):
        # thousands of distinct to_mass() rows, or the rows of three blocks
        # fully shuffled, are one fresh block, one run, and combine in a time
        # comparable to stacking them once
        frame = FrameOfDiscernment.numbered(4)
        rng = np.random.default_rng(5)
        focals = rng.integers(1, frame.full_set, size=5000).tolist()
        singles = [SimpleSupport(frame, a, w).to_mass() for a, w in zip(focals, rng.uniform(0.1, 0.9, 5000))]
        blocks = (
            generate(GenSpec(frame, kind="ssf", seed=5, stream=1), 2000)
            + generate(GenSpec(frame, kind="consonant", num_focals=3, seed=5, stream=2), 1000)
            + generate(GenSpec(frame, kind="ssf", seed=5, stream=3), 2000)
        )
        shuffled = [blocks[i] for i in rng.permutation(len(blocks))]

        def best(f):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                f()
                times.append(time.perf_counter() - t0)
            return min(times)

        for ms in (singles, shuffled):
            ((block, a, b),) = rules._batch(ms).runs
            assert (a, b) == (0, len(ms)) and all(m._block is not block for m in ms)
            stack = best(lambda: np.array([m.values for m in ms]))
            fuse = best(lambda: combine(ms, RuleConfig(rule="lns")))
            assert fuse < 10 * stack + 0.02, (fuse, stack)

    def test_producer_blocks_are_split_once(self, monkeypatch):
        # as gen-combine builds its inputs: two whole-block runs, each block
        # split on the first call and never again
        frame = FrameOfDiscernment.numbered(8)
        batch = []
        batch += generate(GenSpec(frame, kind="ssf", seed=7, stream=1), 800)
        batch += generate(GenSpec(frame, kind="consonant", num_focals=5, seed=7, stream=2), 200)
        ssf, chains = batch[0]._block, batch[-1]._block
        assert rules._batch(batch).runs == [(ssf, 0, 800), (chains, 0, 200)]
        splits = []
        split = core._Columns.split.__func__

        def counted(cls, values, full, cells=None):
            splits.append(len(values))
            return split(cls, values, full, cells)

        monkeypatch.setattr(core._Columns, "split", classmethod(counted))
        for want in ([800, 200], []):
            splits.clear()
            for rule in ("lns", "lnsa", "conjunctive", "cautious", "average"):
                combine(batch, RuleConfig(rule=rule))
            assert splits == want

    @pytest.mark.parametrize("kind, cells", [("ssf", True), ("consonant", True), ("general", False)])
    def test_producer_cells_are_held_until_the_split(self, kind, cells):
        # the ssf and consonant replays hand their focal cells to the block,
        # which drops them once the split is made from them
        block = generate(GenSpec(FrameOfDiscernment.numbered(4), kind=kind, seed=1), 50)[0]._block
        assert (block._cells is not None) == cells
        block.columns()
        assert block._cells is None


class TestNoCycle:
    """A block never references its rows, so dropping the rows frees it
    without the cyclic collector, with its cached split."""

    @pytest.mark.parametrize("make", ["generate", "read", "simple_supports"])
    def test_dropping_the_rows_frees_the_block(self, tmp_path, make):
        frame = FrameOfDiscernment.numbered(3)
        if make == "generate":
            ms = generate(GenSpec(frame, kind="consonant", num_focals=2, seed=3), 40)
        elif make == "read":
            write_bbas(tmp_path / "rows.csv", generate(GenSpec(frame, kind="general", seed=3), 40))
            ms = read_bbas(tmp_path / "rows.csv")
        else:
            ms = _simple_supports(frame, [1, 2, 7], [0.5, 0.0, 0.3])
        enabled = gc.isenabled()
        gc.disable()
        try:
            block = weakref.ref(ms[0]._block)
            # in order, the rows are read from the block's own split; the
            # reversed and joined list is stacked into a fresh block
            results = [_outcome(x, rule) for x in (ms, ms[::-1] + ms) for rule in RULE_NAMES]
            assert block()._columns is not None
            assert not any(isinstance(x, MassFunction) for x in gc.get_referents(block()))
            del ms
            assert block() is None
            assert results
        finally:
            if enabled:
                gc.enable()
