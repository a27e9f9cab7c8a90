"""Random generators: structure, determinism, rejection filtering."""

import numpy as np
import pytest

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
    @pytest.mark.parametrize("n", range(1, 7))
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
