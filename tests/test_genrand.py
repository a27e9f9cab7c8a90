"""Random generators: structure, determinism, rejection filtering."""

import numpy as np
import pytest

from masscomb import genrand
from masscomb.core import FrameOfDiscernment, _Columns, as_simple_support
from masscomb.errors import ParameterError
from masscomb.genrand import GenSpec, generate

from conftest import (
    _oracle_draw_ssf,
    assert_block_split,
    assert_same_split,
    per_draw_chains,
    per_draw_generate,
)


@pytest.fixture
def frame4():
    return FrameOfDiscernment.numbered(4)


class TestGeneral:
    def test_valid_masses(self, frame4):
        for m in generate(GenSpec(frame4, kind="general", seed=1), 50):
            assert float(m.values.sum()) == pytest.approx(1.0, abs=1e-12)
            assert float(m.values.min()) >= 0.0
            assert m.values[0] == 0.0  # the empty set is never focal

    def test_focal_pool_respected(self, frame4):
        pool = (1, 3, 7)
        for m in generate(GenSpec(frame4, kind="general", focal_pool=pool, seed=2), 50):
            assert set(int(a) for a in m.focal_elements()) <= set(pool)

    def test_rejection_filter_applies_to_general_kind(self, frame4):
        spec = GenSpec(frame4, kind="general", min_singleton_mass=0.6, seed=12)
        for m in generate(spec, 100):
            singles = [float(m.values[1 << i]) for i in range(frame4.n)]
            assert max(singles) > 0.6

    def test_empty_set_rejected_in_pool(self, frame4):
        with pytest.raises(ParameterError):
            GenSpec(frame4, focal_pool=(0, 1))


class TestSpecRefusals:
    """A seed or stream numpy cannot seed, and a general pool that would
    write one subset twice, are refused when the recipe is made."""

    @pytest.mark.parametrize("field, value", [("seed", -1), ("stream", -2)])
    def test_negative_seed_or_stream(self, frame4, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be non-negative, got {value}$"):
            GenSpec(frame4, kind="ssf", **{field: value})

    def test_general_pool_repeating_a_subset(self):
        frame = FrameOfDiscernment.numbered(3)
        with pytest.raises(ParameterError, match="^a general focal pool lists subset 1 more than once$"):
            generate(GenSpec(frame, kind="general", focal_pool=(1, 1, 2), seed=0), 50)

    @pytest.mark.parametrize("threshold", [None, 0.3])
    def test_ssf_pool_may_repeat(self, threshold):
        # a repeat weights the pick; the rows are those numpy's calls give
        spec = GenSpec(FrameOfDiscernment.numbered(3), kind="ssf", focal_pool=(1, 1, 2),
                       min_singleton_mass=threshold, seed=0)
        got = generate(spec, 50)
        assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in per_draw_generate(spec, 50)]


class TestSsf:
    def test_structure(self, frame4):
        for m in generate(GenSpec(frame4, kind="ssf", seed=3), 50):
            ssf = as_simple_support(m)
            assert ssf is not None
            assert 0 < ssf.focal < frame4.full_set

    def test_pinned_focal(self, frame4):
        for m in generate(GenSpec(frame4, kind="ssf", focal_pool=(1,), seed=4), 10):
            assert set(int(a) for a in m.focal_elements()) <= {1, frame4.full_set}
            assert float(m.values.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_rejection_filter(self, frame4):
        spec = GenSpec(frame4, kind="ssf", focal_pool=(1, 2), min_singleton_mass=0.5, seed=5)
        out = generate(spec, 1000)
        for m in out:
            singles = [float(m.values[1 << i]) for i in range(frame4.n)]
            assert max(singles) > 0.5

    def test_impossible_filter_fails_loudly(self, frame4):
        # a non-singleton focal can never satisfy a singleton-mass threshold
        spec = GenSpec(frame4, kind="ssf", focal_pool=(3,), min_singleton_mass=0.5, seed=6)
        with pytest.raises(ParameterError):
            generate(spec, 1)

    def test_one_element_frame_needs_pool(self):
        frame = FrameOfDiscernment.numbered(1)
        with pytest.raises(ParameterError):
            generate(GenSpec(frame, kind="ssf", seed=0), 1)


class TestConsonant:
    def test_nested_chain(self, frame4):
        for m in generate(GenSpec(frame4, kind="consonant", num_focals=3, seed=7), 50):
            focs = [int(a) for a in m.focal_elements()]
            assert all(a & b in (a, b) for a in focs for b in focs)
            assert m.values[frame4.full_set] > 0.0  # the frame always carries mass

    def test_num_focals_bounded(self, frame4):
        with pytest.raises(ParameterError):
            GenSpec(frame4, kind="consonant", num_focals=5)

    def test_focal_pool_refused(self, frame4):
        # a consonant draw picks chain sizes, so a pool would be ignored
        with pytest.raises(ParameterError, match="focal pool"):
            GenSpec(frame4, kind="consonant", focal_pool=(1,))

    def test_full_chain_allowed(self, frame4):
        out = generate(GenSpec(frame4, kind="consonant", num_focals=4, seed=8), 10)
        assert all(len(m.focal_elements()) <= 5 for m in out)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["general", "ssf", "consonant"])
    def test_same_seed_same_stream(self, frame4, kind):
        spec = GenSpec(frame4, kind=kind, num_focals=2, seed=99)
        a = generate(spec, 20)
        b = generate(spec, 20)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_different_seeds_differ(self, frame4):
        a = generate(GenSpec(frame4, kind="general", seed=1), 5)
        b = generate(GenSpec(frame4, kind="general", seed=2), 5)
        assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_streams_split_one_seed(self, frame4):
        base = generate(GenSpec(frame4, kind="general", seed=1), 5)
        zero = generate(GenSpec(frame4, kind="general", seed=1, stream=0), 5)
        one = generate(GenSpec(frame4, kind="general", seed=1, stream=1), 5)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(base, zero))
        assert any(not np.array_equal(x.values, y.values) for x, y in zip(base, one))
        again = generate(GenSpec(frame4, kind="general", seed=1, stream=1), 5)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(one, again))

    def test_count_validated(self, frame4):
        with pytest.raises(ParameterError):
            generate(GenSpec(frame4, seed=0), 0)


class TestOneBlock:
    """``generate`` fills one block and validates it once; the result must
    equal drawing and validating one assignment at a time."""

    @pytest.mark.parametrize("kind", ["general", "ssf", "consonant"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("threshold", [None, 0.3])
    def test_equals_per_draw(self, kind, n, threshold):
        frame = FrameOfDiscernment.numbered(n)
        spec = GenSpec(
            frame,
            kind=kind,
            num_focals=min(2, n),
            focal_pool=(1,) if kind == "ssf" and n == 1 else None,
            min_singleton_mass=threshold,
            seed=n,
            stream=1,
        )
        got = generate(spec, 150)
        want = per_draw_generate(spec, 150)
        assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in want]
        assert_block_split(got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("count", [1, 2, 150])
    def test_consonant_equals_per_draw(self, n, stream, count):
        # every chain length, including chains whose last set is the frame
        for num_focals in range(1, n + 1):
            spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant",
                           num_focals=num_focals, seed=count + num_focals, stream=stream)
            got = generate(spec, count)
            want = per_draw_generate(spec, count)
            assert [m.values.tobytes() for m in got] == [m.values.tobytes() for m in want]
            assert_block_split(got)

    def test_assignments_share_the_frame_and_stay_read_only(self, frame4):
        out = generate(GenSpec(frame4, kind="general", seed=1), 20)
        assert all(m.frame is frame4 for m in out)
        assert all(not m.values.flags.writeable for m in out)
        with pytest.raises(ValueError):
            out[3].values[0] = 1.0


def _outcome(gen, spec, count):
    """The rows ``gen`` draws, or ``"exhausted"`` if rejection sampling gives
    up; the block of rows ``generate`` draws must split as a scan would."""
    try:
        rows = gen(spec, count)
    except ParameterError as exc:
        assert str(exc).startswith("rejection sampling failed")
        return "exhausted"
    assert_block_split(rows)
    return [m.values.tobytes() for m in rows]


class TestSsfReplay:
    """ssf rows are replayed from raw PCG64 words, or drawn one by one under a
    threshold or from a one-element pool; each hazard must give the rows, or
    the error, of the per-draw oracle."""

    @pytest.mark.parametrize("n, pool", [(1, (1,)), (3, (2,)), (3, (7,)), (3, (1, 6)), (3, (1, 7)), (4, None)])
    @pytest.mark.parametrize("count", [1, 2, 7, 40])
    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("threshold", [None, 0.0, 0.4])
    def test_equals_per_draw(self, n, pool, count, stream, threshold):
        spec = GenSpec(FrameOfDiscernment.numbered(n), kind="ssf", focal_pool=pool,
                       min_singleton_mass=threshold, seed=count, stream=stream)
        assert _outcome(generate, spec, count) == _outcome(per_draw_generate, spec, count)

    @pytest.mark.parametrize("limit", [2, 6, 8, 40])
    @pytest.mark.parametrize("seed", range(6))
    def test_exhausted_rejections_equal_per_draw(self, monkeypatch, limit, seed):
        # seeds 0, 1 and 5 exhaust a limit of 8 part way through the block,
        # seeds 2, 3 and 4 do not
        monkeypatch.setattr(genrand, "_MAX_REJECTIONS", limit)
        spec = GenSpec(FrameOfDiscernment.numbered(3), kind="ssf", min_singleton_mass=0.3, seed=seed)
        assert _outcome(generate, spec, 30) == _outcome(per_draw_generate, spec, 30)

    def test_exhausted_rejections_message(self, frame4):
        spec = GenSpec(frame4, kind="ssf", focal_pool=(3, 6), min_singleton_mass=0.5, seed=6)
        with pytest.raises(ParameterError, match="rejection sampling failed 10000 times"):
            generate(spec, 3)

    # Seeds whose first 120 draws from 4056 focal sets meet a Lemire rejection
    # on the high half of a word (attempt 5) and on the low half (attempt 70).
    LEMIRE = [(18612, 5), (44316, 70)]
    POOL_4056 = tuple(range(1, 4057))

    @pytest.mark.parametrize("seed, attempt", LEMIRE)
    def test_words_meet_a_lemire_rejection(self, seed, attempt):
        m = len(self.POOL_4056)
        words = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(3 * 60).reshape(60, 3)
        halves = np.stack([words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32], axis=1).ravel()
        low = (halves * np.uint64(m)) & np.uint64(0xFFFFFFFF)
        assert np.flatnonzero(low < (2**32 - m) % m).tolist()[:1] == [attempt]

    @pytest.mark.parametrize("seed, attempt", LEMIRE)
    @pytest.mark.parametrize("threshold, count", [(None, 120), (0.2, 3)])
    def test_lemire_rejection_equals_per_draw(self, seed, attempt, threshold, count):
        spec = GenSpec(FrameOfDiscernment.numbered(12), kind="ssf", focal_pool=self.POOL_4056,
                       min_singleton_mass=threshold, seed=seed)
        assert _outcome(generate, spec, count) == _outcome(per_draw_generate, spec, count)

    # the first draw of seed 51891 that meets a rejection, attempt 60,
    # leaves 3,368: at least half the bound of 4,000, so a replay with too
    # small a bound accepts it
    NEAR_BOUND = (51891, 60, 3368)

    def test_lemire_rejection_near_the_bound_equals_per_draw(self):
        seed, attempt, leftover = self.NEAR_BOUND
        m = len(self.POOL_4056)
        words = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(3 * 60).reshape(60, 3)
        halves = np.stack([words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32], axis=1).ravel()
        low = (halves * np.uint64(m)) & np.uint64(0xFFFFFFFF)
        bound = 2**32 % m
        assert np.flatnonzero(low < bound).tolist()[:1] == [attempt]
        assert bound // 2 <= low[attempt] == leftover
        spec = GenSpec(FrameOfDiscernment.numbered(12), kind="ssf", focal_pool=self.POOL_4056, seed=seed)
        assert _outcome(generate, spec, 120) == _outcome(per_draw_generate, spec, 120)

    @pytest.mark.parametrize("seed", [seed for seed, _ in LEMIRE])
    @pytest.mark.parametrize("count", [5, 6, 7, 120])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_driver_leaves_the_stream_where_the_oracle_does(self, seed, count, buffered):
        # from a fresh start, counts 5 and 6 end just before and just after
        # the draw of seed 18612 that meets a rejection
        def make_rng():
            rng = np.random.Generator(np.random.PCG64(seed))
            if buffered:
                rng.permutation(2)
            return rng
        spec = GenSpec(FrameOfDiscernment.numbered(12), kind="ssf", focal_pool=self.POOL_4056)
        rng, oracle = make_rng(), make_rng()
        block = np.zeros((count, spec.frame.powerset_size))
        cells = genrand._draw_replayed(rng, spec, genrand._pool(spec), block, genrand._draw_ssf)
        want = np.zeros_like(block)
        for arr in want:
            _oracle_draw_ssf(oracle, spec, arr)
        assert block.tobytes() == want.tobytes()
        assert _position(rng) == _position(oracle)
        assert_same_split(_Columns.split(block, spec.frame.full_set, cells), block)


def _position(rng: np.random.Generator):
    """Where ``rng`` stands in its stream: the PCG64 state and the buffered
    32-bit half, if any."""
    state = rng.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


def _zero_word_at(d: int, word: int = 0) -> np.random.Generator:
    """A generator whose word ``d`` is 0, or ``word``: an XSL-RR output is
    the XOR of the two 64-bit halves of the state, rotated by its top 6
    bits, here 0; stepping back ``d + 1`` steps from such a state, the full
    period less ``d + 1``, starts it there."""
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    state["state"]["state"] = (0x0123456789ABCDEF << 64) | (0x0123456789ABCDEF ^ word)
    bitgen.state = state
    bitgen.advance(2**128 - d - 1)
    return np.random.Generator(bitgen)


class TestConsonantReplay:
    """Consonant rows are replayed from raw PCG64 words a slab at a time;
    each hazard must give the rows of the per-draw oracle, byte for byte,
    and leave the stream where the oracle leaves it."""

    @staticmethod
    def check(spec, count, make_rng):
        rng, oracle = make_rng(), make_rng()
        block = np.zeros((count, spec.frame.powerset_size))
        cells = genrand._draw_replayed(rng, spec, genrand._pool(spec), block, genrand._draw_consonant)
        assert block.tobytes() == per_draw_chains(oracle, spec, count).tobytes()
        assert _position(rng) == _position(oracle)
        assert_same_split(_Columns.split(block, spec.frame.full_set, cells), block)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_size_picked(self, n):
        # Floyd's first step is on [0, 0]: it picks 0 and draws nothing
        spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant", num_focals=n)
        self.check(spec, 60, lambda: np.random.Generator(np.random.PCG64(n)))

    @pytest.mark.parametrize("slab", [8, 24, 64])
    @pytest.mark.parametrize("n, num_focals", [(1, 1), (3, 2), (8, 5), (8, 8)])
    def test_counts_cross_slabs(self, monkeypatch, slab, n, num_focals):
        # a slab of 8 words holds no n = 8 row, so every such row runs one by one
        monkeypatch.setattr(genrand, "_SLAB_WORDS", slab)
        spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant", num_focals=num_focals)
        self.check(spec, 120, lambda: np.random.Generator(np.random.PCG64(slab)))

    @pytest.mark.parametrize("num_focals", [1, 5, 8])
    def test_long_run_crosses_default_slabs(self, num_focals):
        spec = GenSpec(FrameOfDiscernment.numbered(8), kind="consonant", num_focals=num_focals,
                       seed=num_focals)
        got = generate(spec, 5000)
        want = per_draw_generate(spec, 5000)
        assert b"".join(m.values.tobytes() for m in got) == b"".join(m.values.tobytes() for m in want)
        assert_block_split(got)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_starts_on_a_buffered_half(self, n):
        def make_rng():
            rng = np.random.Generator(np.random.PCG64(7))
            rng.permutation(2)  # one 32-bit draw buffers the high half of its word
            return rng
        spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant", num_focals=min(3, n))
        assert _position(make_rng())[1] is not None
        self.check(spec, 40, make_rng)

    # wider frames bring the masks 15 and 31; few rows at n >= 16, where a
    # row is 0.5 to 8 MB
    @pytest.mark.parametrize("n, count", [(9, 40), (12, 20), (16, 3), (17, 3), (20, 2)])
    def test_wide_frames_start_on_a_buffered_half(self, monkeypatch, n, count):
        def make_rng():
            rng = np.random.Generator(np.random.PCG64(n))
            rng.permutation(2)
            return rng
        calls = []
        one_by_one = genrand._draw_consonant
        monkeypatch.setattr(genrand, "_draw_consonant",
                            lambda *args: calls.append(1) or one_by_one(*args))
        monkeypatch.setattr(genrand, "_SLAB_WORDS", 64)
        for num_focals in (1, n // 2, n):
            calls.clear()
            spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant", num_focals=num_focals)
            self.check(spec, count, make_rng)
            assert len(calls) < count  # most rows replayed, across slabs

    # A zero half is a Lemire rejection for the bounds 3, 5, 6 and 7.  Each
    # case puts the zero word where a Floyd or shuffle step draws from it:
    # (n, num_focals, word, step hit).
    ZERO_WORDS = [
        (8, 5, 5, "Floyd, row 0, bound 7"),
        (8, 5, 6, "shuffle, row 0, bound 5"),
        (5, 3, 3, "Floyd, row 0, bound 5, high half"),
        (8, 8, 23, "Floyd, row 1, bound 3"),
        (8, 8, 29, "shuffle, row 1, bound 3, high half"),
    ]

    def test_lemire_rejection_near_the_bound_runs_one_draw(self, monkeypatch):
        # both halves of word 4 are u = 715,827,883, which a Floyd step of
        # row 0 draws on the bound 6: u * 6 leaves 2 below 2**32, rejected
        # against 2**32 mod 6 = 4 but not against half of it; no other bound
        # at n = 8 rejects u
        u = 715_827_883
        assert (u * 6) % 2**32 == 2 and 2**32 % 6 == 4
        assert all((u * b) % 2**32 >= 2**32 % b for b in (2, 3, 4, 5, 7, 8))
        calls = []
        one_by_one = genrand._draw_consonant
        monkeypatch.setattr(genrand, "_draw_consonant",
                            lambda *args: calls.append(1) or one_by_one(*args))
        spec = GenSpec(FrameOfDiscernment.numbered(8), kind="consonant", num_focals=5)
        self.check(spec, 6, lambda: _zero_word_at(4, u << 32 | u))
        assert len(calls) == 1

    @pytest.mark.parametrize("n, num_focals, d, step", ZERO_WORDS)
    def test_lemire_rejection_runs_one_draw(self, monkeypatch, n, num_focals, d, step):
        assert _zero_word_at(d).bit_generator.random_raw(d + 1)[d] == 0
        calls = []
        one_by_one = genrand._draw_consonant
        monkeypatch.setattr(genrand, "_draw_consonant",
                            lambda *args: calls.append(1) or one_by_one(*args))
        spec = GenSpec(FrameOfDiscernment.numbered(n), kind="consonant", num_focals=num_focals)
        self.check(spec, 6, lambda: _zero_word_at(d))
        assert len(calls) == 1
