"""Frames of discernment, mass functions, and the classical belief representations.

Subsets of an ``n``-hypothesis frame are encoded as integers in ``[0, 2**n)``:
bit ``i - 1`` is set exactly when the ``i``-th hypothesis belongs to the
subset, so index ``0`` is the empty set and ``2**n - 1`` is the whole frame.
Every dense vector over the power set uses this natural order, which lets the
transforms between the equivalent representations (mass, belief, plausibility,
commonality, implicability) run as in-place lattice passes, one per hypothesis,
at a cost proportional to ``n * 2**n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DecompositionError,
    EncodingError,
    InvalidImageError,
    InvalidWeightVectorError,
    ParameterError,
    TotalConflictError,
)

#: Frames are dense ``2**n`` vectors throughout, so cap the size.
MAX_FRAME_SIZE = 20

#: Tolerance for validating that masses sum to one.
MASS_TOL = 1e-9

#: Floor applied to commonalities before taking logs in the decomposition.
_LOG_FLOOR = 1e-300

REPRESENTATION_KINDS = (
    "belief",
    "plausibility",
    "commonality",
    "implicability",
    "pignistic",
)

_KIND_ALIASES = {
    "bel": "belief",
    "pl": "plausibility",
    "q": "commonality",
    "b": "implicability",
    "betp": "pignistic",
    "m": "mass",
}


def resolve_kind(kind: str) -> str:
    """Map short representation aliases (bel, pl, q, b, betp, m) to full names."""
    k = kind.lower()
    k = _KIND_ALIASES.get(k, k)
    if k != "mass" and k not in REPRESENTATION_KINDS:
        raise ParameterError(f"unknown representation kind {kind!r}")
    return k


# ---------------------------------------------------------------------------
# Frame and subset arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameOfDiscernment:
    """An ordered set of mutually exclusive hypotheses.

    The ordering of ``labels`` is significant: hypothesis ``i`` (0-based)
    owns bit ``i`` of every subset index.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not 1 <= len(labels) <= MAX_FRAME_SIZE:
            raise ParameterError(
                f"frame must have between 1 and {MAX_FRAME_SIZE} hypotheses, got {len(labels)}"
            )
        if any(not lab for lab in labels):
            raise ParameterError("hypothesis labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise ParameterError("hypothesis labels must be unique")

    @classmethod
    def of(cls, *labels: str) -> "FrameOfDiscernment":
        return cls(tuple(labels))

    @classmethod
    def numbered(cls, n: int, prefix: str = "theta") -> "FrameOfDiscernment":
        """Frame with generated labels ``theta1 .. theta<n>``."""
        if n < 1:
            raise ParameterError("frame size must be at least 1")
        return cls(tuple(f"{prefix}{i + 1}" for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def powerset_size(self) -> int:
        return 1 << self.n

    @property
    def full_set(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Popcount of every subset index; entry 0 is 0, entry ``full_set`` is ``n``."""
        idx = np.arange(self.powerset_size, dtype=np.int64)
        card = np.zeros(self.powerset_size, dtype=np.int64)
        for i in range(self.n):
            card += (idx >> i) & 1
        card.setflags(write=False)
        return card

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def check_index(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.powerset_size:
            raise EncodingError(
                f"subset index {a} out of range for a {self.n}-element frame"
            )
        return a

    def singleton(self, position: int) -> int:
        """Subset index of the hypothesis at ``position`` (0-based)."""
        if not 0 <= position < self.n:
            raise EncodingError(f"hypothesis position {position} out of range")
        return 1 << position

    def subset_index(self, members: Iterable[str]) -> int:
        """Subset index of the set of hypothesis labels ``members``."""
        idx = 0
        for lab in members:
            try:
                idx |= 1 << self._positions[lab]
            except KeyError:
                raise EncodingError(f"unknown hypothesis label {lab!r}") from None
        return idx

    def subset_labels(self, a: int) -> tuple[str, ...]:
        a = self.check_index(a)
        return tuple(lab for i, lab in enumerate(self.labels) if a >> i & 1)

    def format_subset(self, a: int) -> str:
        return "{" + ",".join(self.subset_labels(a)) + "}"

    # -- bit-lattice helpers -------------------------------------------------

    def intersection(self, a: int, b: int) -> int:
        return self.check_index(a) & self.check_index(b)

    def union(self, a: int, b: int) -> int:
        return self.check_index(a) | self.check_index(b)

    def cardinality(self, a: int) -> int:
        return int(self.cardinalities[self.check_index(a)])

    def is_subset(self, a: int, b: int) -> bool:
        """True when subset ``a`` is contained in subset ``b``."""
        return self.check_index(a) & self.check_index(b) == a

    def complement(self, a: int) -> int:
        return self.full_set ^ self.check_index(a)


# ---------------------------------------------------------------------------
# In-place lattice transforms.  All of them accept arrays of shape
# (..., 2**n) and sweep the last axis, so they batch over leading axes.
# ---------------------------------------------------------------------------


def _pair_view(a: np.ndarray, n: int, i: int) -> np.ndarray:
    lead = a.shape[:-1]
    return a.reshape(lead + (1 << (n - 1 - i), 2, 1 << i))


def _zeta_superset(a: np.ndarray, n: int) -> None:
    """In place: ``a[A] <- sum of a[B] over B ⊇ A`` (mass -> commonality)."""
    for i in range(n):
        v = _pair_view(a, n, i)
        v[..., 0, :] += v[..., 1, :]


def _moebius_superset(a: np.ndarray, n: int) -> None:
    """Inverse of :func:`_zeta_superset` (commonality -> mass)."""
    for i in range(n):
        v = _pair_view(a, n, i)
        v[..., 0, :] -= v[..., 1, :]


def _zeta_subset(a: np.ndarray, n: int) -> None:
    """In place: ``a[A] <- sum of a[B] over B ⊆ A`` (mass -> implicability)."""
    for i in range(n):
        v = _pair_view(a, n, i)
        v[..., 1, :] += v[..., 0, :]


def _moebius_subset(a: np.ndarray, n: int) -> None:
    """Inverse of :func:`_zeta_subset` (implicability -> mass)."""
    for i in range(n):
        v = _pair_view(a, n, i)
        v[..., 1, :] -= v[..., 0, :]


# ---------------------------------------------------------------------------
# Mass functions and representation vectors
# ---------------------------------------------------------------------------


class MassFunction:
    """A dense basic belief assignment over the power set of a frame.

    ``values[A]`` is the mass of the subset with index ``A`` in natural
    order.  Inputs are validated (non-negative, summing to one within
    ``tol``) and then renormalised exactly once, which absorbs file-format
    rounding without hiding real errors.  Instances are immutable.
    """

    __slots__ = ("frame", "values")

    def __init__(self, frame: FrameOfDiscernment, values, *, tol: float = MASS_TOL):
        arr = np.array(values, dtype=float)
        _check_rows(frame, arr[np.newaxis], tol)
        arr.setflags(write=False)
        self.frame = frame
        self.values = arr

    def __reduce__(self):
        # the values were validated once already: restore them as they are
        return _trusted, (self.frame, self.values)

    # -- constructors --------------------------------------------------------

    @classmethod
    def vacuous(cls, frame: FrameOfDiscernment) -> "MassFunction":
        arr = np.zeros(frame.powerset_size)
        arr[frame.full_set] = 1.0
        return cls(frame, arr)

    @classmethod
    def categorical(cls, frame: FrameOfDiscernment, subset: int) -> "MassFunction":
        arr = np.zeros(frame.powerset_size)
        arr[frame.check_index(subset)] = 1.0
        return cls(frame, arr)

    @classmethod
    def from_dict(cls, frame: FrameOfDiscernment, masses: dict[int, float], *, tol: float = MASS_TOL) -> "MassFunction":
        arr = np.zeros(frame.powerset_size)
        for subset, value in masses.items():
            arr[frame.check_index(subset)] += value
        return cls(frame, arr, tol=tol)

    # -- queries ---------------------------------------------------------------

    def __getitem__(self, subset: int) -> float:
        return float(self.values[self.frame.check_index(subset)])

    @property
    def conflict(self) -> float:
        """Mass assigned to the empty set."""
        return float(self.values[0])

    @property
    def is_vacuous(self) -> bool:
        return float(self.values[self.frame.full_set]) >= 1.0 - 1e-12

    @property
    def is_dogmatic(self) -> bool:
        return float(self.values[self.frame.full_set]) == 0.0

    @property
    def is_categorical(self) -> bool:
        focs = self.focal_elements()
        if len(focs) != 1:
            return False
        a = int(focs[0])
        return a != 0 and a != self.frame.full_set

    def focal_elements(self) -> np.ndarray:
        """Indices of the subsets carrying strictly positive mass."""
        return np.flatnonzero(self.values)

    def approx_equal(self, other: "MassFunction", tol: float = 1e-12) -> bool:
        return self.frame == other.frame and bool(
            np.max(np.abs(self.values - other.values)) <= tol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.frame, self.values.tobytes()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.frame.format_subset(int(a))}: {self.values[a]:.5f}"
            for a in self.focal_elements()
        )
        return f"MassFunction({parts})"


def _check_rows(frame: FrameOfDiscernment, block: np.ndarray, tol: float) -> None:
    """Validate every row of a ``(S, 2**n)`` float block as a mass vector and
    renormalise it, in place.

    The checks are those of :class:`MassFunction`, in its order: shape,
    finite, no mass below ``-tol``, then clip and a total within ``tol`` of
    1, so each row ends up bit-identical to ``MassFunction(frame, row)``.
    The error raised is the one the first offending row would raise on its
    own; a :class:`ParameterError` names that row in ``row``.
    """
    if block.shape[1:] != (frame.powerset_size,):
        raise EncodingError(
            f"expected {frame.powerset_size} masses for a {frame.n}-element frame,"
            f" got shape {block.shape[1:]}"
        )
    # nan compares false, so a NaN or -inf anywhere fails the first check
    if block.min(initial=0.0) >= -tol:
        np.maximum(block, 0.0, out=block)  # the clip, bit for bit
        total = np.add.reduce(block, axis=1)
        if np.abs(total - 1.0).max(initial=0.0) <= tol:
            block /= total[:, np.newaxis]
            return
    # Some row fails: find the first, checking each in order.  The block
    # was clipped only if no row holds a mass below -tol.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.maximum(block, 0.0).sum(axis=1)
    finite = np.isfinite(block).all(axis=1)
    lo = block.min(axis=1)
    low = lo < -tol
    i = int(np.argmax(~finite | low | ~(np.abs(total - 1.0) <= tol)))
    if not finite[i]:
        raise ParameterError("mass values must be finite", row=i)
    if low[i]:
        raise ParameterError(
            f"negative mass {lo[i]:.3e} at subset index {int(block[i].argmin())}", row=i
        )
    raise ParameterError(f"masses sum to {float(total[i])!r}, expected 1", row=i)


def _trusted(frame: FrameOfDiscernment, values: np.ndarray) -> MassFunction:
    """A :class:`MassFunction` around values that are already validated."""
    values.setflags(write=False)
    m = object.__new__(MassFunction)
    m.frame = frame
    m.values = values
    return m


def _mass_rows(
    frame: FrameOfDiscernment, block: np.ndarray, tol: float = MASS_TOL
) -> list[MassFunction]:
    """Validate a freshly built ``(S, 2**n)`` block in one pass and return one
    assignment per row.

    The assignments' values are read-only views into ``block``, which the
    caller must not write to afterwards.  Rows are bit-identical to
    ``MassFunction(frame, row, tol=tol)``, and a failure is the error of
    the first offending row (see :func:`_check_rows`).
    """
    _check_rows(frame, block, tol)
    block.setflags(write=False)
    return [_trusted(frame, row) for row in block]


@dataclass(frozen=True)
class RepresentationVector:
    """One of the equivalent function representations derived from a mass function.

    ``values`` has length ``2**n`` for belief/plausibility/commonality/
    implicability and length ``n`` for the pignistic probability.
    """

    frame: FrameOfDiscernment
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in REPRESENTATION_KINDS:
            raise ParameterError(f"unknown representation kind {self.kind!r}")
        arr = np.array(self.values, dtype=float)
        expected = self.frame.n if self.kind == "pignistic" else self.frame.powerset_size
        if arr.shape != (expected,):
            raise EncodingError(
                f"{self.kind} vector must have length {expected}, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])


@dataclass(frozen=True)
class SimpleSupport:
    """A simple support function ``A^w``: mass ``1 - w`` on ``focal``, ``w`` on the frame.

    ``weight == 1`` (or ``focal`` equal to the whole frame) is the vacuous
    assignment; ``weight == 0`` the categorical one.
    """

    frame: FrameOfDiscernment
    focal: int
    weight: float

    def __post_init__(self):
        self.frame.check_index(self.focal)
        _check_support_weights(np.array([self.weight], dtype=float))

    @property
    def is_vacuous(self) -> bool:
        return self.focal == self.frame.full_set or self.weight == 1.0

    def to_mass(self) -> MassFunction:
        return _simple_supports(self.frame, [self.focal], [self.weight])[0]


def _check_support_weights(weights: np.ndarray) -> None:
    inside = (weights >= 0.0) & (weights <= 1.0)
    if not inside.all():
        bad = float(weights[np.argmin(inside)])
        raise ParameterError(f"simple support weight {bad!r} outside [0, 1]")


def _simple_supports(frame: FrameOfDiscernment, focals, weights) -> list[MassFunction]:
    """The simple supports ``focals[i]^weights[i]`` as one validated block.

    Each row is bit-identical to ``SimpleSupport(frame, focal, w).to_mass()``
    built on its own.
    """
    weights = np.asarray(weights, dtype=float)
    _check_support_weights(weights)
    block = np.zeros((len(weights), frame.powerset_size))
    block[:, frame.full_set] = weights
    block[np.arange(len(weights)), focals] += 1.0 - weights
    return _mass_rows(frame, block)


def as_simple_support(m: MassFunction) -> SimpleSupport | None:
    """Return the simple-support form of ``m``, or None if it has none.

    The vacuous assignment is reported as the whole frame with weight 1.
    """
    full = m.frame.full_set
    rest = [int(a) for a in m.focal_elements() if a != full]
    if not rest:
        return SimpleSupport(m.frame, full, 1.0)
    if len(rest) == 1:
        return SimpleSupport(m.frame, rest[0], float(m.values[full]))
    return None


@dataclass(frozen=True)
class WeightVector:
    """Canonical-decomposition weights ``w_A`` for every subset ``A``.

    Weights are strictly positive; values above 1 mark inverse simple
    support components.  The entry for the whole frame is fixed at 1 and
    carries no information.
    """

    frame: FrameOfDiscernment
    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=float)
        if arr.shape != (self.frame.powerset_size,):
            raise EncodingError(
                f"expected {self.frame.powerset_size} weights, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all() or float(arr.min()) <= 0.0:
            raise ParameterError("decomposition weights must be positive and finite")
        arr[self.frame.full_set] = 1.0
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    def is_separable(self, tol: float = 1e-9) -> bool:
        """True when every weight is at most 1 (no inverse components)."""
        return bool(self.weights.max() <= 1.0 + tol)

    def __getitem__(self, subset: int) -> float:
        return float(self.weights[self.frame.check_index(subset)])


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def mass_to_commonality(m: MassFunction) -> RepresentationVector:
    """Commonality ``q(A) = sum of m(B) over B ⊇ A``."""
    arr = m.values.copy()
    _zeta_superset(arr, m.frame.n)
    return RepresentationVector(m.frame, "commonality", arr)


def mass_to_implicability(m: MassFunction) -> RepresentationVector:
    """Implicability ``b(A) = sum of m(B) over B ⊆ A`` (includes the empty set)."""
    arr = m.values.copy()
    _zeta_subset(arr, m.frame.n)
    return RepresentationVector(m.frame, "implicability", arr)


def mass_to_belief(m: MassFunction) -> RepresentationVector:
    """Belief ``Bel(A) = sum of m(B) over non-empty B ⊆ A``."""
    arr = m.values.copy()
    _zeta_subset(arr, m.frame.n)
    arr -= m.values[0]
    return RepresentationVector(m.frame, "belief", arr)


def mass_to_plausibility(m: MassFunction) -> RepresentationVector:
    """Plausibility ``Pl(A) = sum of m(B) over B with B ∩ A non-empty``."""
    arr = m.values.copy()
    _zeta_subset(arr, m.frame.n)
    # Pl(A) = 1 - b(complement of A); complement reverses the natural order.
    pl = 1.0 - arr[::-1]
    return RepresentationVector(m.frame, "plausibility", pl)


def commonality_to_mass(rep: RepresentationVector, *, tol: float = MASS_TOL) -> MassFunction:
    if rep.kind != "commonality":
        raise ParameterError(f"expected a commonality vector, got {rep.kind!r}")
    arr = rep.values.copy()
    _moebius_superset(arr, rep.frame.n)
    return _mass_from_image(rep.frame, arr, tol)


def implicability_to_mass(rep: RepresentationVector, *, tol: float = MASS_TOL) -> MassFunction:
    if rep.kind != "implicability":
        raise ParameterError(f"expected an implicability vector, got {rep.kind!r}")
    arr = rep.values.copy()
    _moebius_subset(arr, rep.frame.n)
    return _mass_from_image(rep.frame, arr, tol)


def _mass_from_image(frame: FrameOfDiscernment, arr: np.ndarray, tol: float) -> MassFunction:
    lo = float(arr.min())
    if lo < -tol:
        raise InvalidImageError(
            f"inverse transform produced mass {lo:.3e} at subset index {int(arr.argmin())};"
            " the vector is not the image of a mass function"
        )
    try:
        return MassFunction(frame, arr, tol=tol)
    except ParameterError as exc:
        raise InvalidImageError(str(exc)) from None


def pignistic(m: MassFunction) -> RepresentationVector:
    """Pignistic probability: each focal mass split equally over its elements.

    Requires ``m({}) < 1``; the empty-set mass is renormalised away.
    """
    empty = float(m.values[0])
    if empty >= 1.0 - 1e-12:
        raise TotalConflictError("pignistic probability undefined: all mass on the empty set")
    n = m.frame.n
    size = m.frame.powerset_size
    card = m.frame.cardinalities
    shares = np.zeros(size)
    shares[1:] = m.values[1:] / card[1:]
    idx = np.arange(size)
    betp = np.empty(n)
    for i in range(n):
        betp[i] = shares[(idx >> i) & 1 == 1].sum()
    betp /= 1.0 - empty
    return RepresentationVector(m.frame, "pignistic", betp)


def transform(obj, kind: str):
    """Convert between a mass function and its equivalent representations.

    From a :class:`MassFunction`, ``kind`` selects belief, plausibility,
    commonality, implicability, or pignistic.  From a commonality or
    implicability :class:`RepresentationVector`, ``kind="mass"`` recovers
    the mass function.
    """
    k = resolve_kind(kind)
    if isinstance(obj, MassFunction):
        if k == "mass":
            return obj
        fn = {
            "belief": mass_to_belief,
            "plausibility": mass_to_plausibility,
            "commonality": mass_to_commonality,
            "implicability": mass_to_implicability,
            "pignistic": pignistic,
        }[k]
        return fn(obj)
    if isinstance(obj, RepresentationVector):
        if k != "mass":
            raise ParameterError(
                f"cannot convert a {obj.kind} vector to {k!r}; only 'mass' is supported"
            )
        if obj.kind == "commonality":
            return commonality_to_mass(obj)
        if obj.kind == "implicability":
            return implicability_to_mass(obj)
        raise ParameterError(
            f"no inverse transform from a {obj.kind} vector; use commonality or implicability"
        )
    raise ParameterError(f"cannot transform object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Discounting and consistency
# ---------------------------------------------------------------------------


def discount(m: MassFunction, alpha: float) -> MassFunction:
    """Shafer discounting: scale all proper masses by ``alpha``, shift the rest to the frame.

    ``alpha = 1`` leaves the assignment unchanged; ``alpha = 0`` yields the
    vacuous assignment.  Equivalently the affine map
    ``alpha * m + (1 - alpha) * vacuous``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"reliability factor {alpha!r} outside [0, 1]")
    arr = m.values * alpha
    arr[m.frame.full_set] += 1.0 - alpha
    return MassFunction(m.frame, arr)


def consistency(m1: MassFunction, m2: MassFunction) -> str:
    """Classify two assignments as ``strong``, ``weak``, or ``inconsistent``.

    Strong: one element common to every focal set of both sources.  Weak:
    every cross pair of focal sets intersects, but no single common
    element exists.
    """
    if m1.frame != m2.frame:
        raise EncodingError("consistency requires a shared frame")
    f1 = [int(a) for a in m1.focal_elements()]
    f2 = [int(a) for a in m2.focal_elements()]
    common = m1.frame.full_set
    for a in f1:
        common &= a
    for b in f2:
        common &= b
    if common:
        return "strong"
    if all(a & b for a in f1 for b in f2):
        return "weak"
    return "inconsistent"


# ---------------------------------------------------------------------------
# Canonical decomposition
# ---------------------------------------------------------------------------


def canonical_decompose(m: MassFunction) -> WeightVector:
    """Factor a non-dogmatic assignment into per-subset simple-support weights.

    The weight of each proper subset is an alternating product of
    commonalities over its supersets, evaluated in the log domain with a
    single lattice pass.  Simple supports short-circuit to their own
    weight.  Recombining the result reproduces ``m``.
    """
    full = m.frame.full_set
    if float(m.values[full]) <= 0.0:
        raise DecompositionError(
            "canonical decomposition is undefined for dogmatic assignments"
        )
    ssf = as_simple_support(m)
    if ssf is not None:
        weights = np.ones(m.frame.powerset_size)
        if ssf.focal != full:
            weights[ssf.focal] = ssf.weight
        return WeightVector(m.frame, weights)
    q = m.values.copy()
    _zeta_superset(q, m.frame.n)
    if float(q.min()) <= 0.0:
        # Cannot happen for a valid non-dogmatic assignment: q(A) >= m(frame) > 0.
        raise DecompositionError("non-positive commonality encountered")
    logq = np.log(np.maximum(q, _LOG_FLOOR))
    _moebius_superset(logq, m.frame.n)
    weights = np.exp(-logq)
    weights[full] = 1.0
    return WeightVector(m.frame, weights)


def recompose(w: WeightVector) -> MassFunction:
    """Conjunctively recombine the simple supports described by a weight vector.

    Inverse of :func:`canonical_decompose` on non-dogmatic inputs.  The
    commonality of the product is ``prod of w_A over A not containing X``,
    computed from one superset-sum pass over the log weights.
    """
    n = w.frame.n
    logw = np.log(w.weights)
    total = float(logw.sum())
    sup = logw.copy()
    _zeta_superset(sup, n)
    q = np.exp(total - sup)
    arr = q
    _moebius_superset(arr, n)
    if not np.isfinite(arr).all():
        raise InvalidWeightVectorError("weight vector recombines to non-finite masses")
    if float(arr.min()) < -1e-9:
        raise InvalidWeightVectorError(
            f"weight vector recombines to negative mass {float(arr.min()):.3e}"
            f" at subset index {int(arr.argmin())}"
        )
    try:
        return MassFunction(w.frame, arr)
    except ParameterError as exc:
        raise InvalidWeightVectorError(str(exc)) from None
