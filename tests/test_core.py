"""Frames, mass functions, transforms, discounting, consistency, decomposition."""

import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masscomb
from masscomb.core import (
    _conjoined_commonality,
    FrameOfDiscernment,
    MASS_TOL,
    MassFunction,
    RepresentationVector,
    SimpleSupport,
    WeightVector,
    _check_rows,
    _mass_rows,
    _raise_first,
    _recompose_rows,
    as_simple_support,
    canonical_decompose,
    commonality_to_mass,
    consistency,
    discount,
    implicability_to_mass,
    mass_to_belief,
    mass_to_commonality,
    mass_to_implicability,
    mass_to_plausibility,
    pignistic,
    recompose,
    transform,
)
from masscomb.errors import (
    DecompositionError,
    EncodingError,
    InvalidImageError,
    InvalidWeightVectorError,
    MassCombError,
    ParameterError,
    TotalConflictError,
)
from masscomb.genrand import GenSpec, generate
from masscomb.io import FILE_MASS_TOL

from conftest import (
    TINY_WEIGHT_N4,
    WIDE_WEIGHTS_N4,
    approx_equal,
    check_rows_oracle,
    loop_pignistic,
    naive_belief,
    naive_commonality,
    naive_plausibility,
    random_mass,
    row_by_row,
    single_row_decompose,
)


def test_every_export_resolves():
    import masscomb

    for name in masscomb.__all__:
        getattr(masscomb, name)


def test_import_leaves_io_and_expansion_unloaded():
    # both load on first use: most processes that import masscomb read no
    # file and run neither dp nor pcr6
    src = str(Path(masscomb.__file__).parents[1])
    code = "import masscomb, sys; print(sorted(set(sys.modules) & {'masscomb.io', 'masscomb.expansion'}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "call",
    [
        lambda f, m: FrameOfDiscernment.numbered(3, prefix="h"),
        lambda f, m: MassFunction.from_dict(f, {1: 1.0}, tol=1e-3),
        lambda f, m: commonality_to_mass(mass_to_commonality(m), tol=1e-3),
        lambda f, m: implicability_to_mass(mass_to_implicability(m), tol=1e-3),
        lambda f, m: canonical_decompose(m).is_separable(tol=1e-3),
    ],
    ids=["numbered-prefix", "from_dict-tol", "commonality_to_mass-tol",
         "implicability_to_mass-tol", "is_separable-tol"],
)
def test_removed_keywords_refused(frame3, call):
    # each always uses the fixed naming rule or tolerance
    with pytest.raises(TypeError):
        call(frame3, SimpleSupport(frame3, 1, 0.4).to_mass())


# ---------------------------------------------------------------------------
# Frames and subset arithmetic
# ---------------------------------------------------------------------------


class TestFrame:
    def test_labels_validated(self):
        with pytest.raises(ParameterError):
            FrameOfDiscernment(("a", "a"))
        with pytest.raises(ParameterError):
            FrameOfDiscernment(("a", ""))
        with pytest.raises(ParameterError):
            FrameOfDiscernment(tuple(f"h{i}" for i in range(21)))

    def test_subset_ops(self, frame3):
        # {theta1,theta2} with {theta2,theta3}
        assert frame3.intersection(3, 6) == 2
        assert frame3.union(1, 4) == 5
        assert frame3.intersection(1, 4) == 0
        assert frame3.cardinality(1) == 1
        assert frame3.cardinality(7) == 3

    def test_frame_is_absorbing_for_union(self, frame3):
        for a in range(frame3.powerset_size):
            assert frame3.intersection(a, frame3.full_set) == a
            assert frame3.union(a, frame3.full_set) == frame3.full_set

    def test_index_range_checked(self, frame3):
        with pytest.raises(EncodingError):
            frame3.intersection(8, 1)
        with pytest.raises(EncodingError):
            frame3.cardinality(-1)

    def test_label_round_trip(self, frame3):
        idx = frame3.subset_index(["theta1", "theta3"])
        assert idx == 5
        assert frame3.subset_labels(5) == ("theta1", "theta3")
        with pytest.raises(EncodingError):
            frame3.subset_index(["nope"])


# ---------------------------------------------------------------------------
# Mass functions
# ---------------------------------------------------------------------------


class TestMassFunction:
    def test_validation(self, frame2):
        with pytest.raises(ParameterError):
            MassFunction(frame2, [0, 0.5, 0.2, 0.2])  # sums to 0.9
        with pytest.raises(ParameterError):
            MassFunction(frame2, [-0.1, 0.5, 0.3, 0.3])
        with pytest.raises(EncodingError):
            MassFunction(frame2, [0.5, 0.5])

    def test_renormalised_once(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3 + 4e-10])
        assert math.isclose(float(m.values.sum()), 1.0, abs_tol=1e-15)

    def test_flags(self, frame2):
        assert MassFunction.vacuous(frame2).is_vacuous

    def test_immutable(self, frame2):
        m = MassFunction.vacuous(frame2)
        with pytest.raises(ValueError):
            m.values[0] = 1.0

    def test_simple_support_detection(self, frame2):
        assert as_simple_support(MassFunction(frame2, [0, 0.3, 0, 0.7])).focal == 1
        assert as_simple_support(MassFunction.vacuous(frame2)).is_vacuous
        assert as_simple_support(MassFunction(frame2, [0, 0.3, 0.3, 0.4])) is None

    def test_simple_support_weight_range(self, frame2):
        with pytest.raises(ParameterError):
            SimpleSupport(frame2, 1, 1.5)

    def test_equality_and_hash(self, frame2):
        a = MassFunction(frame2, [0, 0.3, 0, 0.7])
        b = MassFunction.from_dict(frame2, {1: 0.3, 3: 0.7})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != MassFunction(frame2, [0, 0.3, 0.1, 0.6])
        assert a != MassFunction(FrameOfDiscernment.of("x", "y"), a.values)
        assert a.__eq__("m") is NotImplemented and a != "m"

    def test_pickle_round_trip_is_exact_and_read_only(self, frame3):
        m = MassFunction(frame3, [0, 0.1, 0.2, 0, 0.3, 0, 0, 0.4 + 3e-10])
        back = pickle.loads(pickle.dumps(m))
        assert back.values.tobytes() == m.values.tobytes()
        assert back.frame == m.frame
        assert not back.values.flags.writeable
        with pytest.raises(ValueError):
            back.values[1] = 0.9

    def test_pickle_of_a_generated_row_carries_only_that_row(self):
        frame = FrameOfDiscernment.numbered(6)
        ms = generate(GenSpec(frame, kind="general", seed=3), 1000)
        alone = MassFunction(frame, ms[500].values)
        assert len(pickle.dumps(ms[500])) == len(pickle.dumps(alone))
        assert len(pickle.dumps(ms[500])) < 4 * ms[500].values.nbytes


def _batch_row(kind: str, rng: np.random.Generator, frame: FrameOfDiscernment, tol: float):
    """One row of a batch: near the edges of what validation accepts, or past them."""
    size = frame.powerset_size
    row = np.zeros(size)
    focals = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
    row[focals] = rng.dirichlet(np.ones(len(focals)))
    if kind == "dogmatic":
        row[:] = 0.0
        row[int(rng.integers(0, frame.full_set))] = 1.0
    elif kind == "tiny negative":
        row[int(rng.integers(0, size))] = -0.5 * tol
    elif kind == "negative zero":
        row[row == 0.0] = -0.0
    elif kind == "negative":
        row[int(rng.integers(0, size))] = -3.0 * tol
    elif kind in ("nan", "inf", "-inf"):
        row[int(rng.integers(0, size))] = float(kind)
    if kind in ("sum high", "sum low"):
        row *= 1.0 + (3.0 if kind == "sum high" else -3.0) * tol
    elif kind not in ("nan", "inf", "-inf"):
        row *= 1.0 + rng.uniform(-0.9, 0.9) * tol
    return row


_ROW_KINDS = (
    "valid", "valid", "valid", "dogmatic", "tiny negative", "negative zero",
    "negative", "sum high", "sum low", "nan", "inf", "-inf",
)


class TestBatchValidation:
    """``_mass_rows`` checks a whole block at once; it must act exactly like
    validating each row on its own."""

    @given(
        st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
        st.integers(1, 4),
        st.sampled_from([MASS_TOL, FILE_MASS_TOL]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_row_by_row(self, kinds, n, tol, seed):
        frame = FrameOfDiscernment.numbered(n)
        rng = np.random.default_rng(seed)
        rows = [_batch_row(kind, rng, frame, tol) for kind in kinds]
        want, first_bad = [], None
        for i, row in enumerate(rows):
            try:
                m = MassFunction(frame, row, tol=tol)
            except MassCombError as exc:
                with pytest.raises(type(exc)) as old:
                    row_by_row(frame, row, tol)
                assert str(old.value) == str(exc)
                first_bad = (i, exc)
                break
            assert m.values.tobytes() == row_by_row(frame, row, tol).tobytes()
            want.append(m.values)
        if first_bad is None:
            got = _mass_rows(frame, np.array(rows), tol)
            assert [g.values.tobytes() for g in got] == [w.tobytes() for w in want]
            assert all(g.frame is frame and not g.values.flags.writeable for g in got)
        else:
            i, exc = first_bad
            with pytest.raises(type(exc)) as err:
                _mass_rows(frame, np.array(rows), tol)
            assert str(err.value) == str(exc)
            assert err.value.row == i

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_four_pass_oracle(self, seed):
        """Blocks with every special value: the same bytes, or the same
        error class, message and row, as the check before the sign-bit test."""
        rng = np.random.default_rng(seed)
        specials = [-0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, -0.5 * MASS_TOL, -3.0 * MASS_TOL]
        for _ in range(50):
            n, rows = int(rng.integers(1, 6)), int(rng.integers(1, 41))
            frame = FrameOfDiscernment.numbered(n)
            block = rng.dirichlet(np.ones(frame.powerset_size), size=rows)
            block[rng.random(block.shape) < 0.5] = 0.0
            block[:, -1] += 1.0 - block.sum(axis=1)  # many rows sum to 1 exactly
            off = rng.random(rows) < 0.3
            block[off] *= 1.0 + rng.uniform(-0.9, 0.9, size=(int(off.sum()), 1)) * MASS_TOL
            for _ in range(int(rng.integers(0, 3))):
                value = specials[int(rng.integers(len(specials)))]
                block[rng.integers(rows), rng.integers(frame.powerset_size)] = value
            outcomes = []
            for check in (_check_rows, check_rows_oracle):
                b = block.copy()
                try:
                    check(frame, b, MASS_TOL)
                    outcomes.append(b.tobytes())
                except MassCombError as exc:
                    outcomes.append((type(exc), str(exc), exc.row))
            assert outcomes[0] == outcomes[1]

    def test_negative_zero_is_clipped(self, frame2):
        block = np.array([[-0.0, 0.25, 0.25, 0.5], [0.0, 0.5, -0.0, 0.5]])
        _check_rows(frame2, block, MASS_TOL)
        assert not np.signbit(block).any()
        assert block.tobytes() == np.array([[0.0, 0.25, 0.25, 0.5], [0.0, 0.5, 0.0, 0.5]]).tobytes()

    def test_wrong_width_rejected(self, frame2):
        with pytest.raises(EncodingError, match=r"got shape \(3,\)"):
            _mass_rows(frame2, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class TestTransforms:
    def test_commonality_example(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        q = mass_to_commonality(m)
        assert np.allclose(q.values, [1.0, 0.8, 0.5, 0.3], atol=1e-15)

    def test_belief_plausibility_example(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert np.allclose(mass_to_belief(m).values, [0, 0.5, 0.2, 1.0], atol=1e-15)
        assert np.allclose(mass_to_plausibility(m).values, [0, 0.8, 0.5, 1.0], atol=1e-15)

    def test_representation_vector_indexing(self, frame2):
        q = mass_to_commonality(MassFunction(frame2, [0, 0.3, 0, 0.7]))
        assert [q[a] for a in range(4)] == [1.0, 1.0, 0.7, 0.7]
        assert type(q[2]) is float

    def test_vacuous_commonality_is_one(self, frame3):
        q = mass_to_commonality(MassFunction.vacuous(frame3))
        assert np.allclose(q.values, 1.0, atol=0)

    def test_matches_naive_sums(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            frame = FrameOfDiscernment.numbered(n)
            for _ in range(25):
                m = random_mass(rng, frame, allow_empty=True)
                assert np.max(np.abs(mass_to_commonality(m).values - naive_commonality(m))) <= 1e-12
                assert np.max(np.abs(mass_to_belief(m).values - naive_belief(m))) <= 1e-12
                assert np.max(np.abs(mass_to_plausibility(m).values - naive_plausibility(m))) <= 1e-12

    def test_roundtrips(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            frame = FrameOfDiscernment.numbered(n)
            for _ in range(10):
                m = random_mass(rng, frame, allow_empty=True)
                back_q = commonality_to_mass(mass_to_commonality(m))
                back_b = implicability_to_mass(mass_to_implicability(m))
                assert np.max(np.abs(back_q.values - m.values)) <= 1e-12
                assert np.max(np.abs(back_b.values - m.values)) <= 1e-12

    def test_duality_and_implicability_offset(self):
        rng = np.random.default_rng(13)
        frame = FrameOfDiscernment.numbered(4)
        for _ in range(30):
            m = random_mass(rng, frame, allow_empty=True)
            bel = mass_to_belief(m).values
            b = mass_to_implicability(m).values
            assert np.max(np.abs(b - (bel + m.values[0]))) <= 1e-12
        for _ in range(30):
            m = random_mass(rng, frame)  # normal: no mass on the empty set
            bel = mass_to_belief(m).values
            pl = mass_to_plausibility(m).values
            assert np.max(np.abs(pl - (1.0 - bel[::-1]))) <= 1e-12

    def test_inverse_rejects_non_image(self, frame2):
        junk = RepresentationVector(frame2, "commonality", [1.0, 0.2, 0.9, 0.8])
        with pytest.raises(InvalidImageError):
            commonality_to_mass(junk)

    def test_transform_dispatch(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert transform(m, "q").kind == "commonality"
        assert approx_equal(transform(transform(m, "b"), "mass"), m)
        with pytest.raises(ParameterError):
            transform(transform(m, "bel"), "mass")
        with pytest.raises(ParameterError):
            transform(m, "nonsense")


class TestPignistic:
    def test_example(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert np.allclose(pignistic(m).values, [0.65, 0.35], atol=1e-15)

    def test_categorical_singleton(self, frame2):
        assert np.allclose(pignistic(MassFunction.categorical(frame2, 2)).values, [0, 1])

    def test_sums_to_one_with_conflict(self, frame2):
        m = MassFunction(frame2, [0.4, 0.3, 0.2, 0.1])
        bp = pignistic(m).values
        assert math.isclose(bp.sum(), 1.0, abs_tol=1e-9)

    def test_total_conflict_rejected(self, frame2):
        m = MassFunction(frame2, [1.0, 0, 0, 0])
        with pytest.raises(TotalConflictError):
            pignistic(m)

    @pytest.mark.parametrize("n", [*range(1, 11), 14, 20])
    def test_equals_the_mask_loop(self, n):
        rng = np.random.default_rng(100 + n)
        frame = FrameOfDiscernment.numbered(n)
        for _ in range(200 if n <= 10 else 3):
            m = random_mass(rng, frame, max_focals=12, allow_empty=True)
            if m.conflict < 0.99:
                assert np.array_equal(pignistic(m).values, loop_pignistic(m))


class TestDiscount:
    def test_unchanged_at_one(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert approx_equal(discount(m, 1.0), m, tol=0)

    def test_vacuous_at_zero(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert discount(m, 0.0).is_vacuous

    def test_example(self, frame2):
        m = MassFunction(frame2, [0, 0.5, 0.2, 0.3])
        assert np.allclose(discount(m, 0.9).values, [0, 0.45, 0.18, 0.37], atol=1e-15)

    def test_affine_toward_vacuous(self):
        rng = np.random.default_rng(3)
        frame = FrameOfDiscernment.numbered(3)
        vac = MassFunction.vacuous(frame).values
        for _ in range(20):
            m = random_mass(rng, frame, allow_empty=True)
            alpha = float(rng.random())
            expect = alpha * m.values + (1 - alpha) * vac
            assert np.max(np.abs(discount(m, alpha).values - expect)) <= 1e-15

    def test_range_checked(self, frame2):
        with pytest.raises(ParameterError):
            discount(MassFunction.vacuous(frame2), 1.5)


class TestConsistency:
    def test_strong(self, frame3):
        m1 = MassFunction.from_dict(frame3, {1: 0.6, 7: 0.4})
        m2 = MassFunction.from_dict(frame3, {3: 1.0})
        assert consistency(m1, m2) == "strong"

    def test_weak(self, frame3):
        m1 = MassFunction.from_dict(frame3, {3: 0.5, 6: 0.5})
        m2 = MassFunction.from_dict(frame3, {5: 1.0})
        assert consistency(m1, m2) == "weak"

    def test_inconsistent(self, frame3):
        m1 = MassFunction.categorical(frame3, 1)
        m2 = MassFunction.categorical(frame3, 2)
        assert consistency(m1, m2) == "inconsistent"

    def test_strong_implies_pairwise(self):
        rng = np.random.default_rng(23)
        frame = FrameOfDiscernment.numbered(4)
        seen = 0
        for _ in range(200):
            m1 = random_mass(rng, frame, max_focals=3)
            m2 = random_mass(rng, frame, max_focals=3)
            if consistency(m1, m2) == "strong":
                seen += 1
                f1 = [int(a) for a in m1.focal_elements()]
                f2 = [int(a) for a in m2.focal_elements()]
                assert all(a & b for a in f1 for b in f2)
        assert seen > 0

    def test_frame_mismatch(self, frame2, frame3):
        with pytest.raises(EncodingError):
            consistency(MassFunction.vacuous(frame2), MassFunction.vacuous(frame3))


# ---------------------------------------------------------------------------
# Canonical decomposition
# ---------------------------------------------------------------------------


class TestDecomposition:
    def test_simple_support_is_its_own_decomposition(self, frame3):
        m = SimpleSupport(frame3, 3, 0.3).to_mass()
        w = canonical_decompose(m)
        assert w[3] == 0.3
        others = [w[a] for a in range(frame3.powerset_size) if a != 3]
        assert all(x == 1.0 for x in others)

    def test_hand_example(self, frame2):
        m = MassFunction(frame2, [0, 0.4, 0.2, 0.4])
        w = canonical_decompose(m)
        assert math.isclose(w[1], 0.5, abs_tol=1e-12)
        assert math.isclose(w[2], 2 / 3, abs_tol=1e-12)
        assert math.isclose(w[0], 1.2, abs_tol=1e-12)  # inverse component
        assert not w.is_separable()

    def test_vacuous_gives_unit_weights(self, frame3):
        w = canonical_decompose(MassFunction.vacuous(frame3))
        assert np.allclose(w.weights, 1.0, atol=0)

    def test_dogmatic_rejected(self, frame2):
        with pytest.raises(DecompositionError):
            canonical_decompose(MassFunction(frame2, [0, 0.5, 0.5, 0]))

    def test_recompose_examples(self, frame2):
        weights = np.ones(4)
        weights[1], weights[2], weights[0] = 0.5, 2 / 3, 1.2
        m = recompose(WeightVector(frame2, weights))
        assert np.max(np.abs(m.values - [0, 0.4, 0.2, 0.4])) <= 1e-12
        assert recompose(WeightVector(frame2, np.ones(4))).is_vacuous
        single = np.ones(4)
        single[1] = 0.88
        m2 = recompose(WeightVector(frame2, single))
        assert np.max(np.abs(m2.values - [0, 0.12, 0, 0.88])) <= 1e-12

    def test_recompose_refusals_pinned(self):
        frame = FrameOfDiscernment.numbered(2)
        with pytest.raises(InvalidWeightVectorError) as negative:
            recompose(WeightVector(frame, [1, 5, 5, 1]))
        assert str(negative.value) == "weight vector recombines to negative mass -2.000e+01 at subset index 1"
        with np.errstate(over="ignore"), pytest.raises(InvalidWeightVectorError) as overflow:
            recompose(WeightVector(frame, [1, 1e300, 1e300, 1]))
        assert str(overflow.value) == "weight vector recombines to non-finite masses"

    @pytest.mark.parametrize("big", [1e300, 1e308])
    def test_recompose_overflow_raises_without_a_warning(self, big):
        frame = FrameOfDiscernment.numbered(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidWeightVectorError, match="recombines to non-finite masses"):
                recompose(WeightVector(frame, [1, big, big, 1]))

    def test_recompose_sum_off_after_the_clip_is_refused(self):
        # the masses of {theta1} and {theta2}, about -9e-10 each, pass the
        # negative check; clipped to 0, they leave the frame's 1 + 1.8e-9
        frame = FrameOfDiscernment.numbered(2)
        with pytest.raises(InvalidWeightVectorError, match=r"^masses sum to 1\.0000000018\d*, expected 1$"):
            recompose(WeightVector(frame, [1, 1 + 9e-10, 1 + 9e-10, 1]))

    @pytest.mark.parametrize("values, subset, log_weight", [
        (WIDE_WEIGHTS_N4, "{theta4}", "914.377"),
        (TINY_WEIGHT_N4, "{}", "-885.563"),
    ], ids=["overflow", "underflow"])
    def test_weight_beyond_the_float_range_is_refused_without_a_warning(self, values, subset, log_weight):
        m = MassFunction(FrameOfDiscernment.numbered(4), values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecompositionError) as exc:
                canonical_decompose(m)
        assert str(exc.value) == (
            f"canonical weight of {subset} is beyond the float range (log weight {log_weight})"
        )

    def test_recompose_rows_fail_a_row_alone(self):
        # a failing row between passing ones; the frame's weights are read as 1
        frame = FrameOfDiscernment.numbered(3)
        weights = np.random.default_rng(8).uniform(0.05, 1.0, (5, frame.powerset_size))
        weights[2] = 1.0
        weights[2, [1, 2]] = 5.0
        errors = {}

        def fail(flags, error):
            for i in np.flatnonzero(flags).tolist():
                errors.setdefault(i, error(i))

        masses = _recompose_rows(frame, np.log(weights), fail)
        with pytest.raises(InvalidWeightVectorError) as want:
            recompose(WeightVector(frame, weights[2]))
        assert list(errors) == [2]
        assert type(errors[2]) is InvalidWeightVectorError and str(errors[2]) == str(want.value)
        for g in (0, 1, 3, 4):
            alone = recompose(WeightVector(frame, weights[g])).values
            assert np.array_equal(MassFunction(frame, masses[g]).values, alone)
        with pytest.raises(InvalidWeightVectorError) as first:
            _recompose_rows(frame, np.log(weights), _raise_first)
        assert str(first.value) == str(want.value)

    def test_conjoined_commonality_does_not_cancel(self):
        # every support holds hypothesis 1 and the log weights sum to about
        # -4e3: a total minus a superset sum leaves 4.5e-13 of rounding on
        # q({1}), which is an empty product
        idx = np.arange(16)
        logw = np.where(idx % 2 == 1, -np.linspace(0.1, 900.7, 16), 0.0)
        logw[15] = 0.0
        logw[3] = -np.inf
        q = _conjoined_commonality(logw, 4)
        assert q[0] == q[1] == 1.0
        assert (q[(idx & 3) != idx] == 0.0).all()

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            frame = FrameOfDiscernment.numbered(n)
            for _ in range(20):
                m = random_mass(rng, frame, min_frame_mass=0.05)
                back = recompose(canonical_decompose(m))
                assert np.max(np.abs(back.values - m.values)) <= 1e-9

    def test_consonant_inputs_are_separable(self):
        from masscomb.genrand import GenSpec, generate

        frame = FrameOfDiscernment.numbered(5)
        for m in generate(GenSpec(frame, kind="consonant", num_focals=3, seed=9), 25):
            assert canonical_decompose(m).is_separable()

    def test_matches_single_row_lattice(self):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            frame = FrameOfDiscernment.numbered(n)
            ms = [MassFunction.vacuous(frame)]
            ms += [random_mass(rng, frame, min_frame_mass=f) for f in (1e-9, 0.05, 0.5) for _ in range(10)]
            ms += [random_mass(rng, frame, max_focals=2, min_frame_mass=0.1) for _ in range(10)]
            for kind in ("ssf", "consonant", "general") if n > 1 else ("consonant", "general"):
                spec = GenSpec(frame, kind=kind, num_focals=min(3, n), seed=n)
                ms += [m for m in generate(spec, 20) if m.values[frame.full_set] > 0]
            for m in ms:
                assert np.array_equal(canonical_decompose(m).weights, single_row_decompose(m))

    def test_positive_weights_enforced(self, frame2):
        with pytest.raises(ParameterError):
            WeightVector(frame2, [1.0, 0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def mass_functions(draw, max_n=5, allow_empty=True, min_frame_mass=None):
    n = draw(st.integers(1, max_n))
    frame = FrameOfDiscernment.numbered(n)
    size = frame.powerset_size
    raw = draw(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=size, max_size=size).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    arr = np.array(raw)
    if not allow_empty:
        arr[0] = 0.0
        if arr.sum() <= 1e-6:
            arr[1] = 1.0
    arr /= arr.sum()
    if min_frame_mass is not None:
        arr *= 1.0 - min_frame_mass
        arr[frame.full_set] += min_frame_mass
    return MassFunction(frame, arr)


class TestProperties:
    @given(mass_functions())
    @settings(max_examples=150, deadline=None)
    def test_fmt_roundtrip(self, m):
        assert np.max(np.abs(commonality_to_mass(mass_to_commonality(m)).values - m.values)) <= 1e-12
        assert np.max(np.abs(implicability_to_mass(mass_to_implicability(m)).values - m.values)) <= 1e-12

    @given(mass_functions(max_n=4))
    @settings(max_examples=100, deadline=None)
    def test_commonality_antitone_and_implicability_monotone(self, m):
        q = mass_to_commonality(m).values
        b = mass_to_implicability(m).values
        size = m.frame.powerset_size
        for a in range(size):
            for i in range(m.frame.n):
                bigger = a | (1 << i)
                if bigger != a:
                    assert q[a] >= q[bigger] - 1e-12
                    assert b[a] <= b[bigger] + 1e-12
        assert math.isclose(b[m.frame.full_set], 1.0, abs_tol=1e-12)

    @given(mass_functions(allow_empty=False))
    @settings(max_examples=100, deadline=None)
    def test_duality_on_normal_inputs(self, m):
        bel = mass_to_belief(m).values
        pl = mass_to_plausibility(m).values
        assert np.max(np.abs(pl - (1.0 - bel[::-1]))) <= 1e-12

    @given(mass_functions(min_frame_mass=0.05))
    @settings(max_examples=100, deadline=None)
    def test_decompose_recompose_identity(self, m):
        back = recompose(canonical_decompose(m))
        assert np.max(np.abs(back.values - m.values)) <= 1e-9

    @given(mass_functions(), st.floats(0, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_discount_affine(self, m, alpha):
        vac = np.zeros(m.frame.powerset_size)
        vac[m.frame.full_set] = 1.0
        expect = alpha * m.values + (1 - alpha) * vac
        assert np.max(np.abs(discount(m, alpha).values - expect)) <= 1e-15
