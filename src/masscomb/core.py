"""Frames of discernment, mass functions, and the classical belief representations.

Subsets of an ``n``-hypothesis frame are encoded as integers in ``[0, 2**n)``:
bit ``i - 1`` is set exactly when the ``i``-th hypothesis belongs to the
subset, so index ``0`` is the empty set and ``2**n - 1`` is the whole frame.
Every dense vector over the power set uses this natural order, which lets the
transforms between the equivalent representations (mass, belief, plausibility,
commonality, implicability) run as in-place lattice passes, one per hypothesis,
at a cost proportional to ``n * 2**n``.

Canonical weights stay logs from the lattice decomposition to the
recombination; only :func:`canonical_decompose` and :func:`recompose` convert.
"""

from __future__ import annotations

import itertools
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

#: Decomposition weights above ``1 + SEPARABILITY_TOL`` are inverse simple
#: supports: an assignment that has one is not separable.
SEPARABILITY_TOL = 1e-9

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
    def numbered(cls, n: int) -> "FrameOfDiscernment":
        """Frame with generated labels ``theta1 .. theta<n>``."""
        if n < 1:
            raise ParameterError("frame size must be at least 1")
        return cls(tuple(f"theta{i + 1}" for i in range(n)))

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


def _conjoined_commonality(logw: np.ndarray, n: int) -> np.ndarray:
    """Commonality of the conjunction of the simple supports ``A^w_A``.

    ``logw[A]`` is ``log w_A`` (the sum of the log weights of every support
    focused on ``A``).  Returns ``q(X) = exp of the sum of logw[A] over the
    A that do not contain X``.  Each pass settles one bit of ``X``: row 0
    sums the ``A`` that still contain the settled bits of ``X``, row 1 the
    ``A`` that already miss one of them.  Only additions occur, so weights
    at most 1 never cancel, and a weight of 0 (``-inf``) gives an exact 0.
    Leading axes of ``logw`` are independent rows.
    """
    acc = np.zeros((2,) + logw.shape)
    acc[0] = logw
    for i in range(n):
        # before the pass axis -2 is bit i of A, after it bit i of X
        v = acc.reshape(acc.shape[:-1] + (1 << (n - 1 - i), 2, 1 << i))
        both = v[..., 0, :] + v[..., 1, :]
        np.add(both[1], v[0, ..., 0, :], out=v[1, ..., 1, :])
        v[..., 0, :] = both
    return np.exp(acc[1])


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

    # _block and _key: the _Block this row belongs to and its row key, or
    # None and -1 for a row built on its own
    __slots__ = ("frame", "values", "_block", "_key")

    def __init__(self, frame: FrameOfDiscernment, values, *, tol: float = MASS_TOL):
        arr = np.array(values, dtype=float)
        _check_rows(frame, arr[np.newaxis], tol)
        arr.setflags(write=False)
        self.frame = frame
        self.values = arr
        self._block = None
        self._key = -1

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
    def from_dict(cls, frame: FrameOfDiscernment, masses: dict[int, float]) -> "MassFunction":
        arr = np.zeros(frame.powerset_size)
        for subset, value in masses.items():
            arr[frame.check_index(subset)] += value
        return cls(frame, arr)

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

    def focal_elements(self) -> np.ndarray:
        """Indices of the subsets carrying strictly positive mass."""
        return np.flatnonzero(self.values)

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
    A valid block costs two reads: a sign-bit test, then the row sums.
    Only a block with a sign bit set (a negative, ``-0.0`` or ``-nan``) is
    clipped, as the clip changes no other entry, and only rows whose total
    is not exactly 1 are divided, as ``x / 1.0`` is ``x``.
    The error raised is the one the first offending row would raise on its
    own; a :class:`ParameterError` names that row in ``row``.
    """
    if block.shape[1:] != (frame.powerset_size,):
        raise EncodingError(
            f"expected {frame.powerset_size} masses for a {frame.n}-element frame,"
            f" got shape {block.shape[1:]}"
        )
    signed = block.view(np.int64).min(initial=0) < 0
    # nan compares false, so a NaN or -inf anywhere fails the first check;
    # +nan and +inf, unsigned, fail the sum test
    if not signed or block.min(initial=0.0) >= -tol:
        if signed:
            np.maximum(block, 0.0, out=block)  # the clip, bit for bit
        total = np.add.reduce(block, axis=1)
        deviation = np.abs(total - 1.0).max(initial=0.0)
        if deviation <= tol:
            if deviation:
                np.divide(block, total[:, np.newaxis], out=block, where=(total != 1.0)[:, np.newaxis])
            return
    # Some row fails: find the first, checking each in order.  The block
    # was clipped only if no row holds a mass below -tol, and a clip that
    # did not run would have changed nothing the checks below read.
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
    m._block = None
    m._key = -1
    return m


#: Block serials.  A row's key is its block's serial times 2**32 plus its
#: row, so keys are unique in the process and consecutive within a block.
_SERIALS = itertools.count(1)


class _Block:
    """One validated, read-only ``(S, 2**n)`` block of assignments.

    :func:`_mass_rows` makes one per block, and each of its rows keeps the
    block and its key ``keys[row] = key + row``, the very int object, so a
    list of rows, however it was cut and joined, resolves to runs of block
    rows, and rows of one block in order compare by identity.  The block's
    split by kind (:class:`_Columns`) is made on first use and kept; the
    producer's focal cells, if it passed them (see :meth:`_Columns.split`),
    are held until then and dropped once the split is made.  A block never
    references its rows: dropping them frees it.
    """

    __slots__ = ("frame", "values", "key", "keys", "_columns", "_cells", "__weakref__")

    def __init__(self, frame: FrameOfDiscernment, values: np.ndarray, cells=None):
        values.setflags(write=False)
        self.frame = frame
        self.values = values
        self.key = next(_SERIALS) << 32
        self.keys = list(range(self.key, self.key + len(values)))
        self._columns = None
        self._cells = cells

    def columns(self) -> "_Columns":
        if self._columns is None:
            self._columns = _Columns.split(self.values, self.frame.full_set, self._cells)
            self._cells = None
        return self._columns


_NO_FOCALS = np.zeros(0, dtype=np.intp)
_NO_WEIGHTS = np.zeros(0)


class _Columns:
    """The rows of a block split by kind, each kind in row order:

    * vacuous rows, with all their mass on the whole frame;
    * simple supports, with mass on one subset besides the frame, as the
      columns ``focal`` and ``weight`` (the mass left on the frame);
    * chains, whose focal sets are nested and end on the whole frame, as
      the canonical components ``chain_focal`` and ``chain_weight``, row by
      row (see :func:`_chain_components`);
    * dense rows, all others, by their indices ``dense``.

    ``at[r]``, made on first use, counts the vacuous rows, simple
    supports, chain components and dense rows before row ``r``, so the rows
    ``[a, b)`` own the entries ``at[a]`` to ``at[b]`` of each kind;
    ``total`` is ``at[-1]``.  A chain row has one component per focal set
    besides the frame.
    """

    __slots__ = (
        "focal", "weight", "chain_focal", "chain_weight", "dense",
        "_nonzero", "_chains", "_at",
    )

    def __init__(
        self, nonzero, focal, weight, chains=_NO_FOCALS,
        chain_focal=_NO_FOCALS, chain_weight=_NO_WEIGHTS, dense=_NO_FOCALS,
    ):
        self.focal, self.weight = focal, weight
        self.chain_focal, self.chain_weight = chain_focal, chain_weight
        self.dense = dense
        # the number of focal sets besides the frame of every row, and the
        # chain rows: what at needs
        self._nonzero, self._chains = nonzero, chains
        self._at = None

    @classmethod
    def split(cls, values: np.ndarray, full: int, cells=None) -> "_Columns":
        """Split validated ``values``, scanning them for the non-zero cells
        below the frame unless ``cells``, from the producer that wrote them,
        gives their ``(rows, subsets)``: row-major, subsets ascending within
        a row, as ``np.nonzero(values[:, :full])``.  Weights and the chain
        checks always come from ``values``."""
        if cells is None:
            focal_cells = values[:, :full] != 0.0
            nonzero = focal_cells.sum(axis=1)
            simple, multi = nonzero == 1, nonzero > 1
            focal = np.argmax(focal_cells[simple], axis=1)
            sub, sets = np.nonzero(focal_cells[multi])
        else:
            r, s = cells
            nonzero = np.bincount(r, minlength=len(values))
            simple, multi = nonzero == 1, nonzero > 1
            focal = s[simple[r]]
            kept = multi[r]
            sub, sets = (np.cumsum(multi) - 1)[r[kept]], s[kept]
        weight = values[simple, full]
        rows = np.flatnonzero(multi)
        if not rows.size:
            return cls(nonzero, focal, weight)
        chain, chain_focal, chain_weight = _chain_components(values, rows, sub, sets, full)
        return cls(nonzero, focal, weight, rows[chain], chain_focal, chain_weight, rows[~chain])

    @property
    def total(self) -> tuple[int, int, int, int]:
        simple, dense = len(self.focal), len(self.dense)
        vacuous = len(self._nonzero) - simple - len(self._chains) - dense
        return vacuous, simple, len(self.chain_focal), dense

    @property
    def at(self) -> np.ndarray:
        if self._at is None:
            counts = np.zeros((len(self._nonzero), 4), dtype=np.intp)
            counts[:, 0] = self._nonzero == 0
            counts[:, 1] = self._nonzero == 1
            counts[self._chains, 2] = self._nonzero[self._chains]
            counts[self.dense, 3] = 1
            self._at = np.zeros((len(counts) + 1, 4), dtype=np.intp)
            np.cumsum(counts, axis=0, out=self._at[1:])
        return self._at


def _chain_components(v: np.ndarray, rows: np.ndarray, sub: np.ndarray, sets: np.ndarray, full: int):
    """Canonical components of the chain rows among ``v[rows]``.

    A chain row's focal sets are nested, ``A_1 ⊂ ... ⊂ A_k``, with ``A_k``
    the whole frame.  With ``Q_i = m(A_i) + ... + m(A_k)``, its weight on
    ``A_i`` is ``Q_{i+1} / Q_i`` (Denoeux 2008), the closed form of the
    lattice decomposition.  ``sub`` and ``sets`` list the focal sets of
    each row other than the frame, row by row in ascending order, ``sub``
    indexing ``rows``; a chain row has one component per such set.
    Returns ``(chain, focal, weight)``: which of the rows are chains, and
    their components row by row.
    """
    # ascending index is chain order, since A ⊂ B implies A < B
    broken = (sub[1:] == sub[:-1]) & (sets[:-1] & sets[1:] != sets[:-1])
    chain = v[rows, full] > 0.0
    chain[sub[1:][broken]] = False
    if not chain.any():
        return chain, _NO_FOCALS, _NO_WEIGHTS
    rows = rows[chain]
    cells = chain[sub]
    owner = np.cumsum(chain)[sub[cells]] - 1  # the chain row of each component
    sets = sets[cells]
    # suffix sums row by row: a (rows, k_max) array holds each row's sets
    # from the left and its frame mass in the last column, so the zeros
    # between add nothing to the sums from the right
    k = np.bincount(owner, minlength=len(rows))
    first = np.cumsum(k) - k
    col = np.arange(len(owner)) - first[owner]
    q = np.zeros((len(rows), int(k.max()) + 1))
    q[:, -1] = v[rows, full]
    q[owner, col] = v[rows[owner], sets]
    q = np.cumsum(q[:, ::-1], axis=1)[:, ::-1]
    return chain, sets, q[owner, col + 1] / q[owner, col]


def _mass_rows(
    frame: FrameOfDiscernment, block: np.ndarray, tol: float = MASS_TOL, cells=None
) -> list[MassFunction]:
    """Validate a freshly built ``(S, 2**n)`` block in two reads (see
    :func:`_check_rows`) and return one assignment per row.

    The assignments' values are read-only views into ``block``, which the
    caller must not write to afterwards; each row keeps the :class:`_Block`
    made around it, and the block keeps ``cells`` for its split (see
    :meth:`_Columns.split`).  A single row (``SimpleSupport.to_mass``, a
    one-group ``lns`` result) belongs to no block, as if built on its own: a
    list of such rows is stacked once per call rather than split block by
    block.
    Rows are bit-identical to ``MassFunction(frame, row, tol=tol)``, and a
    failure is the error of the first offending row (see
    :func:`_check_rows`).
    """
    _check_rows(frame, block, tol)
    if len(block) == 1:
        block.setflags(write=False)
        return [_trusted(frame, block[0])]
    owner = _Block(frame, block, cells)
    # the rows of a read-only block are read-only views already
    new = object.__new__
    out = []
    for key, row in zip(owner.keys, block):
        m = new(MassFunction)
        m.frame = frame
        m.values = row
        m._block = owner
        m._key = key
        out.append(m)
    return out


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


def _raise_first(flags: np.ndarray, error) -> None:
    """The ``fail`` of one call: raise the first flagged row's error."""
    if flags.any():
        raise error(int(np.argmax(flags)))


def _check_support_weights(weights: np.ndarray, fail=_raise_first) -> None:
    fail(~((weights >= 0.0) & (weights <= 1.0)),
         lambda i: ParameterError(f"simple support weight {float(weights[i])!r} outside [0, 1]"))


def _support_block(frame: FrameOfDiscernment, focals, weights, fail=_raise_first) -> np.ndarray:
    """The simple supports ``focals[i]^weights[i]`` as one ``(S, 2**n)``
    block, weights checked through ``fail``, rows not yet validated."""
    weights = np.asarray(weights, dtype=float)
    _check_support_weights(weights, fail)
    block = np.zeros((len(weights), frame.powerset_size))
    block[:, frame.full_set] = weights
    block[np.arange(len(weights)), focals] += 1.0 - weights
    return block


def _simple_supports(frame: FrameOfDiscernment, focals, weights) -> list[MassFunction]:
    """The simple supports ``focals[i]^weights[i]`` as one validated block.

    Each row is bit-identical to ``SimpleSupport(frame, focal, w).to_mass()``
    built on its own.
    """
    return _mass_rows(frame, _support_block(frame, focals, weights))


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
        if not (np.isfinite(arr).all() and arr.min() > 0.0):
            raise ParameterError("decomposition weights must be positive and finite")
        arr[self.frame.full_set] = 1.0
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    def is_separable(self) -> bool:
        """True when every weight is at most 1 (no inverse components)."""
        return bool(self.weights.max() <= 1.0 + SEPARABILITY_TOL)

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


def commonality_to_mass(rep: RepresentationVector) -> MassFunction:
    if rep.kind != "commonality":
        raise ParameterError(f"expected a commonality vector, got {rep.kind!r}")
    arr = rep.values.copy()
    _moebius_superset(arr, rep.frame.n)
    return _mass_from_image(rep.frame, arr)


def implicability_to_mass(rep: RepresentationVector) -> MassFunction:
    if rep.kind != "implicability":
        raise ParameterError(f"expected an implicability vector, got {rep.kind!r}")
    arr = rep.values.copy()
    _moebius_subset(arr, rep.frame.n)
    return _mass_from_image(rep.frame, arr)


def _mass_from_image(frame: FrameOfDiscernment, arr: np.ndarray) -> MassFunction:
    lo = float(arr.min())
    if lo < -MASS_TOL:
        raise InvalidImageError(
            f"inverse transform produced mass {lo:.3e} at subset index {int(arr.argmin())};"
            " the vector is not the image of a mass function"
        )
    try:
        return MassFunction(frame, arr)
    except ParameterError as exc:
        raise InvalidImageError(str(exc)) from None


#: The message of a pignistic probability that does not exist.
_PIGNISTIC_UNDEFINED = "pignistic probability undefined: all mass on the empty set"


def _pignistic_rows(frame: FrameOfDiscernment, values: np.ndarray):
    """The pignistic probabilities of every row of a ``(G, 2**n)`` block of
    masses, as ``(G, n)`` values, and which rows have none (all mass on the
    empty set); each row bit for bit as :func:`pignistic` makes it."""
    empty = values[:, 0]
    undefined = empty >= 1.0 - 1e-12
    shares = np.zeros(values.shape)
    shares[:, 1:] = values[:, 1:] / frame.cardinalities[1:]
    # hypothesis i is in the upper half of every block of 2**(i+1) subsets
    betp = np.stack(
        [shares.reshape(len(values), -1, 2, 1 << i)[:, :, 1].reshape(len(values), -1).sum(axis=1)
         for i in range(frame.n)],
        axis=1,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        betp /= (1.0 - empty)[:, np.newaxis]
    return betp, undefined


def pignistic(m: MassFunction) -> RepresentationVector:
    """Pignistic probability: each focal mass split equally over its elements.

    Requires ``m({}) < 1``; the empty-set mass is renormalised away.
    """
    betp, undefined = _pignistic_rows(m.frame, m.values[np.newaxis])
    if undefined[0]:
        raise TotalConflictError(_PIGNISTIC_UNDEFINED)
    return RepresentationVector(m.frame, "pignistic", betp[0])


#: Each representation a mass function converts to, by name.
_FROM_MASS = {
    "belief": mass_to_belief,
    "plausibility": mass_to_plausibility,
    "commonality": mass_to_commonality,
    "implicability": mass_to_implicability,
    "pignistic": pignistic,
}

REPRESENTATION_KINDS = tuple(_FROM_MASS)


def transform(obj, kind: str):
    """Convert between a mass function and its equivalent representations.

    From a :class:`MassFunction`, ``kind`` selects belief, plausibility,
    commonality, implicability, or pignistic.  From a commonality or
    implicability :class:`RepresentationVector`, ``kind="mass"`` recovers
    the mass function.
    """
    k = resolve_kind(kind)
    if isinstance(obj, MassFunction):
        return obj if k == "mass" else _FROM_MASS[k](obj)
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


def _log_weights(values: np.ndarray, frame: FrameOfDiscernment) -> np.ndarray:
    """Canonical-decomposition log weights ``log w_A`` for every row of a
    (rows, 2**n) matrix, written over it.

    Rows must be non-dogmatic: every commonality is then at least the
    frame's mass, so its log is finite.  The frame column is 0.
    """
    n = frame.n
    v = values
    _zeta_superset(v, n)
    np.log(v, out=v)
    _moebius_superset(v, n)
    np.negative(v, out=v)
    v[:, frame.full_set] = 0.0
    return v


def canonical_decompose(m: MassFunction) -> WeightVector:
    """Factor a non-dogmatic assignment into per-subset simple-support weights.

    The weight of each proper subset is an alternating product of
    commonalities over its supersets, evaluated in the log domain with a
    single lattice pass.  Simple supports short-circuit to their own
    weight.  Recombining the result reproduces ``m``.  A weight that
    overflows, or underflows to 0, is a :class:`DecompositionError` naming
    its subset.
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
    logw = _log_weights(m.values[None, :].copy(), m.frame)[0]
    with np.errstate(over="ignore"):
        weights = np.exp(logw)
    outside = (weights == 0.0) | (weights == np.inf)
    if outside.any():
        a = int(np.argmax(outside))
        raise DecompositionError(
            f"canonical weight of {m.frame.format_subset(a)} is beyond the float range"
            f" (log weight {float(logw[a]):.6g})"
        )
    return WeightVector(m.frame, weights)


def _recompose_rows(frame: FrameOfDiscernment, logw: np.ndarray, fail) -> np.ndarray:
    """:func:`recompose` of each row of a ``(G, 2**n)`` array of log
    weights, the frame's set to 0 in place, before validation.  Each check
    runs on every row in recompose's order and reports the rows it flags as
    ``fail(flags, error)``, ``error(i)`` being row ``i``'s error."""
    logw[:, frame.full_set] = 0.0
    # weights that overflow the lattice pass fail the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        arr = _conjoined_commonality(logw, frame.n)
        _moebius_superset(arr, frame.n)
    fail(~np.isfinite(arr).all(axis=1),
         lambda i: InvalidWeightVectorError("weight vector recombines to non-finite masses"))
    low = arr.min(axis=1)
    fail(low < -1e-9, lambda i: InvalidWeightVectorError(
        f"weight vector recombines to negative mass {float(low[i]):.3e}"
        f" at subset index {int(arr[i].argmin())}"))
    return arr


def recompose(w: WeightVector) -> MassFunction:
    """Conjunctively recombine the simple supports described by a weight vector.

    Inverse of :func:`canonical_decompose` on non-dogmatic inputs.  The
    commonality of the product is ``prod of w_A over A not containing X``,
    computed from one lattice pass over the log weights.
    """
    arr = _recompose_rows(w.frame, np.log(w.weights)[np.newaxis], _raise_first)[0]
    try:
        return MassFunction(w.frame, arr)
    except ParameterError as exc:
        raise InvalidWeightVectorError(str(exc)) from None
