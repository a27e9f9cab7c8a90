"""Evidential K-nearest-neighbour classification.

Each neighbour of a query point contributes one simple support focused on
its class singleton, with focal mass ``alpha * exp(-gamma_q d**2)`` decaying
in the squared distance.  The per-neighbour supports are pooled by any
combination rule and the decision takes the class with the highest
pignistic probability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rules
from .core import (
    _PIGNISTIC_UNDEFINED,
    MASS_TOL,
    FrameOfDiscernment,
    _Block,
    _check_rows,
    _pignistic_rows,
    _support_block,
)
from .errors import ParameterError, ParseError, TotalConflictError, UndefinedGammaError
from .rules import FusionResult, RuleConfig, combine  # noqa: F401  (perfbench wraps eknn.combine)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature vectors with integer class labels over a frame of classes."""

    points: np.ndarray
    labels: np.ndarray
    frame: FrameOfDiscernment

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        labs = np.array(self.labels, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ParameterError("need a 2-d array of at least two points")
        if labs.shape != (pts.shape[0],):
            raise ParameterError("one label per point required")
        if labs.min() < 0 or labs.max() >= self.frame.n:
            raise ParameterError("labels must index hypotheses of the class frame")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise ParameterError(f"point {int(np.argmin(finite))} has a non-finite feature")
        pts.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class EknnConfig:
    """Neighbour count, focal-mass ceiling ``alpha``, per-class scales
    ``gamma`` (or "auto" to derive them from the data), and the fusion rule.
    """

    k: int = 5
    alpha: float = 0.95
    gamma: object = "auto"
    rule: RuleConfig = field(default_factory=lambda: RuleConfig(rule="dempster"))

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class Classification:
    klass: int
    fused: FusionResult
    betp: np.ndarray


@dataclass(frozen=True)
class LooReport:
    """Leave-one-out evaluation: accuracy plus the conflict trace.

    ``kappa`` holds one global-conflict value per sample (NaN where
    classification failed); failures are listed in ``errors`` and count
    as misclassifications.
    """

    accuracy: float
    predictions: np.ndarray
    kappa: np.ndarray
    max_kappa: float
    errors: tuple[tuple[int, str], ...]


def gamma_auto(ds: LabeledDataset) -> np.ndarray:
    """Per-class scale: inverse mean distance over unordered same-class pairs.

    Every class needs at least two distinct members, and a mean whose
    inverse is finite and positive; otherwise the scale is undefined and
    the caller must supply gamma explicitly.
    """
    gammas = np.empty(ds.frame.n)
    for q in range(ds.frame.n):
        members = ds.points[ds.labels == q]
        if members.shape[0] < 2:
            raise UndefinedGammaError(
                f"class {ds.frame.labels[q]!r} has fewer than two members"
            )
        diffs = members[:, None, :] - members[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        iu = np.triu_indices(members.shape[0], k=1)
        mean = float(dist[iu].mean())
        if mean <= 0.0:
            raise UndefinedGammaError(
                f"class {ds.frame.labels[q]!r} is geometrically degenerate"
                " (all members coincide)"
            )
        gammas[q] = 1.0 / mean
        if not (math.isfinite(gammas[q]) and gammas[q] > 0.0):
            # distances that overflow give 0; only a subnormal mean would give inf
            raise UndefinedGammaError(
                f"class {ds.frame.labels[q]!r} has no finite positive scale:"
                f" its mean pair distance is {mean!r}"
            )
    return gammas


def resolve_gamma(ds: LabeledDataset, cfg: EknnConfig) -> np.ndarray:
    if isinstance(cfg.gamma, str):
        if cfg.gamma != "auto":
            raise ParameterError(f"gamma must be 'auto' or per-class values, got {cfg.gamma!r}")
        return gamma_auto(ds)
    try:
        arr = np.array(cfg.gamma, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (ds.frame.n,) or not (np.isfinite(arr) & (arr > 0)).all():
        raise ParameterError("gamma needs one finite positive value per class")
    return arr


def _support_weights(
    dist: np.ndarray, klass: np.ndarray, alpha: float, gamma: np.ndarray
) -> np.ndarray:
    """Weight ``1 - alpha * exp(-gamma[klass] * dist**2)`` of each neighbour's support."""
    return 1.0 - alpha * np.exp(-gamma[klass] * dist * dist)


#: Cells that the arrays of one chunk of leave-one-out queries may hold:
#: per query, its ``(S, dim)`` differences to the training points and its
#: K rows of ``2**n`` support masses.  Every array of a chunk stays within
#: a small multiple of this, so no array grows with ``S**2``.
_LOO_CELLS = 1 << 18


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """The indices of the ``k`` smallest entries of each row of ``dist``, in
    order of (distance, index), as ``np.argsort(dist, kind="stable")[:, :k]``
    gives them, without sorting whole rows.

    A partition finds each row's k-th smallest distance; only the entries
    at or below it, ties included, are sorted.
    """
    kth = np.partition(dist, k - 1, axis=-1)[:, k - 1 : k]
    rows, cols = np.nonzero(dist <= kth)
    # nonzero lists each row's candidates by index, and lexsort is stable
    order = np.lexsort((dist[rows, cols], rows))
    counts = np.bincount(rows, minlength=len(dist))
    first = np.cumsum(counts) - counts
    return cols[order][first[:, np.newaxis] + np.arange(k)]


def _neighbours(
    ds: LabeledDataset, queries: np.ndarray, own, k: int, alpha: float, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The classes and support weights of the K nearest training points of
    each of the ``(Q, dim)`` queries, as two ``(Q, K)`` arrays.

    ``own`` gives each query's own dataset index, or is None; its distance
    is set to infinity, so it is no neighbour unless distances overflow.
    Neighbour ties at equal distance break toward the lower dataset index.
    """
    dist = np.sqrt(((ds.points - queries[:, np.newaxis]) ** 2).sum(axis=-1))
    if own is not None:
        dist[np.arange(len(queries)), own] = np.inf
    order = _nearest(dist, k)
    klass = ds.labels[order]
    return klass, _support_weights(np.take_along_axis(dist, order, axis=-1), klass, alpha, gamma)


def _scores(ds: LabeledDataset, queries: np.ndarray, own, ks: Sequence[int], alpha: float, gamma, configs):
    """Yield ``(r, j, own, ok, decisions, fusion, betp)``: rule ``configs[r]``
    at K = ``ks[j]`` scored on one chunk of the ``(Q, dim)`` queries, ``own``
    their own dataset indices (see :func:`_neighbours`) or None, ``ok``
    flagging those that did not fail.  ``fusion.errors`` holds the error of
    each query whose fusion or decision failed, as one query alone would
    raise it.

    A chunk (see ``_LOO_CELLS``) is searched once at the largest K:
    (distance, index) is a total order, so the K nearest are its first K.
    Its supports are built and validated once, each row on its own.  At each
    K, one block of every query's first K supports serves every rule, which
    fuses the queries as Q segments of K rows in one call (see
    :mod:`masscomb.rules`); one pignistic pass and one argmax decide, ties
    toward the lower class index.
    """
    frame, kmax = ds.frame, max(ks)
    step = max(1, _LOO_CELLS // (ds.n_samples * ds.n_features + kmax * frame.powerset_size))
    for start in range(0, len(queries), step):
        mine = None if own is None else own[start : start + step]
        klass, weights = _neighbours(ds, queries[start : start + step], mine, kmax, alpha, gamma)
        supports = _support_block(frame, (1 << klass).ravel(), weights.ravel())
        _check_rows(frame, supports, MASS_TOL)
        supports = supports.reshape(len(klass), kmax, frame.powerset_size)
        for j, k in enumerate(ks):
            rows = rules._Batch.of(_Block(frame, supports[:, :k].reshape(-1, frame.powerset_size)))
            for r, rule in enumerate(configs):
                fusion = rules._fuse(rules._FUSIONS[rule.rule], rows, rule, k)
                betp, undefined = _pignistic_rows(frame, fusion.masses)
                fusion.fail(undefined, lambda g: TotalConflictError(_PIGNISTIC_UNDEFINED))
                betp.setflags(write=False)
                ok = np.ones(len(klass), dtype=bool)
                ok[list(fusion.errors)] = False
                yield r, j, mine, ok, np.argmax(betp, axis=1), fusion, betp


def classify(
    x,
    ds: LabeledDataset,
    cfg: EknnConfig,
    *,
    exclude: int | None = None,
) -> Classification:
    """Classify a feature vector from its K nearest training neighbours.

    Neighbour ties at equal distance break toward the lower dataset
    index, and decision ties toward the lower class index, so results are
    reproducible.  Total-conflict failures of the fusion rule propagate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ds.n_features,):
        raise ParameterError(f"query must have {ds.n_features} features")
    if not np.isfinite(x).all():
        raise ParameterError("query features must be finite")
    own = None
    if exclude is not None:
        if (
            isinstance(exclude, bool)
            or not isinstance(exclude, (int, np.integer))
            or not 0 <= exclude < ds.n_samples
        ):
            raise ParameterError(
                f"exclude must be a point index in [0, {ds.n_samples}), got {exclude!r}"
            )
        own = [int(exclude)]
    available = ds.n_samples - (1 if own is not None else 0)
    if cfg.k > available:
        raise ParameterError(f"k={cfg.k} exceeds the {available} available neighbours")
    ((*_, decisions, fusion, betp),) = _scores(
        ds, x[np.newaxis], own, [cfg.k], cfg.alpha, resolve_gamma(ds, cfg), [cfg.rule]
    )
    return Classification(klass=int(decisions[0]), fused=fusion.result(0), betp=betp[0])


def evaluate_loo(ds: LabeledDataset, cfg: EknnConfig) -> LooReport:
    """Classify every point against the others and report accuracy and conflict.

    Results equal ``classify(points[i], ds, cfg, exclude=i)`` for each
    sample, but a chunk of samples (see ``_LOO_CELLS``) is searched, fused
    and decided at once, one segment per sample.  The per-class scales are
    derived once from the full dataset.  Samples whose classification
    fails (for example Dempster saturation) are recorded instead of
    aborting the run and score as wrong.
    """
    if cfg.k > ds.n_samples - 1:
        raise ParameterError("k must be at most the number of points minus one")
    size = ds.n_samples
    predictions = np.full(size, -1, dtype=np.int64)
    kappa = np.full(size, np.nan)
    errors: list[tuple[int, str]] = []
    scores = _scores(ds, ds.points, np.arange(size), [cfg.k], cfg.alpha, resolve_gamma(ds, cfg), [cfg.rule])
    for _, _, own, ok, decisions, fusion, _ in scores:
        predictions[own[ok]] = decisions[ok]
        kappa[own[ok]] = fusion.masses[ok, 0]
        errors += [(int(own[g]), str(fusion.errors[g])) for g in sorted(fusion.errors)]
    finite = kappa[np.isfinite(kappa)]
    return LooReport(
        accuracy=int((predictions == ds.labels).sum()) / size,
        predictions=predictions,
        kappa=kappa,
        max_kappa=float(finite.max()) if finite.size else float("nan"),
        errors=tuple(errors),
    )


def _loo_sweep(
    ds: LabeledDataset, ks: Sequence[int], alpha: float, configs: Sequence[RuleConfig]
) -> list[tuple[list[float], list[float | None], list[int]]]:
    """Leave-one-out accuracy, maximum conflict and failure count at each K,
    one triple of lists per rule, each K checked as :func:`evaluate_loo` does.

    The maximum conflict is undefined, and reported as None, at a K where
    every sample failed: JSON has no NaN.
    """
    gamma = "auto"
    for rule in configs:
        for k in ks:
            cfg = EknnConfig(k=int(k), alpha=alpha, gamma=gamma, rule=rule)
            if cfg.k > ds.n_samples - 1:
                raise ParameterError("k must be at most the number of points minus one")
            if isinstance(gamma, str):
                # the scales depend on neither K nor the rule
                gamma = resolve_gamma(ds, cfg)
    hits, errs, worst = ([[x] * len(ks) for _ in configs] for x in (0, 0, -math.inf))
    scores = _scores(ds, ds.points, np.arange(ds.n_samples), ks, alpha, gamma, configs)
    for r, j, own, ok, decisions, fusion, _ in scores:
        hits[r][j] += int((decisions[ok] == ds.labels[own[ok]]).sum())
        errs[r][j] += len(fusion.errors)
        # the fused assignments of the samples that did not fail are finite
        worst[r][j] = max(worst[r][j], float(fusion.masses[ok, 0].max(initial=-math.inf)))
    return [([h / ds.n_samples for h in hit], [None if w == -math.inf else w for w in top], err)
            for hit, top, err in zip(hits, worst, errs)]


def two_gaussian_dataset(
    n_per_class: int = 100,
    separation: float = 4.0,
    dim: int = 2,
    seed: int = 0,
    labels: Sequence[str] = ("theta1", "theta2"),
) -> LabeledDataset:
    """Two unit-variance Gaussian clouds with centres ``separation`` apart."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(n_per_class, dim))
    b = rng.normal(size=(n_per_class, dim))
    b[:, 0] += separation
    frame = FrameOfDiscernment(tuple(labels))
    return LabeledDataset(
        points=np.vstack([a, b]),
        labels=np.array([0] * n_per_class + [1] * n_per_class),
        frame=frame,
    )


def load_dataset_csv(path) -> LabeledDataset:
    """Load points from CSV, last column being the class label.

    A non-numeric first row is treated as a header.  Class labels are the
    sorted distinct values of the last column.
    """
    with open(path, newline="") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row]
    if not rows:
        raise ParseError("empty dataset", line=1)
    start = 0
    try:
        [float(tok) for tok in rows[0][1][:-1]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise ParseError("no points in file", line=1)
    first, width = rows[start][0], len(rows[start][1])
    feats = []
    raw_labels = []
    for lineno, row in rows[start:]:
        if len(row) < 2:
            raise ParseError("need at least one feature and a label", line=lineno)
        if len(row) != width:
            raise ParseError(f"{len(row) - 1} features, but line {first} has {width - 1}", line=lineno)
        try:
            feats.append([float(tok) for tok in row[:-1]])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not all(math.isfinite(v) for v in feats[-1]):
            raise ParseError("features must be finite", line=lineno)
        raw_labels.append(row[-1].strip())
    classes = sorted(set(raw_labels))
    index = {c: i for i, c in enumerate(classes)}
    frame = FrameOfDiscernment(tuple(classes))
    return LabeledDataset(
        points=np.array(feats),
        labels=np.array([index[c] for c in raw_labels]),
        frame=frame,
    )
