"""Random generators: structure, determinism, rejection filtering."""

import numpy as np
import pytest

from masscomb import genrand
from masscomb.core import FrameOfDiscernment, as_simple_support
from masscomb.errors import ParameterError
from masscomb.genrand import GenSpec, generate

from conftest import per_draw_generate


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

    def test_assignments_share_the_frame_and_stay_read_only(self, frame4):
        out = generate(GenSpec(frame4, kind="general", seed=1), 20)
        assert all(m.frame is frame4 for m in out)
        assert all(not m.values.flags.writeable for m in out)
        with pytest.raises(ValueError):
            out[3].values[0] = 1.0


def _outcome(gen, spec, count):
    """The rows ``gen`` draws, or ``"exhausted"`` if rejection sampling gives up."""
    try:
        return [m.values.tobytes() for m in gen(spec, count)]
    except ParameterError as exc:
        assert str(exc).startswith("rejection sampling failed")
        return "exhausted"


class TestSsfReplay:
    """ssf rows are replayed from raw PCG64 words, or drawn one by one under a
    threshold or from a one-element pool; each hazard must give the rows, or
    the error, of the per-draw oracle."""

    @pytest.mark.parametrize("n, pool", [(1, (1,)), (3, (2,)), (3, (7,)), (3, (1, 6)), (4, None)])
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
