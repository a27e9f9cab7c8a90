"""Reference results computed without masscomb's timed code paths.

masscomb pools evidence with in-place lattice passes over stacked rows.
The references here use closed forms over ``(focal, weight)`` component
columns, explicit ``2**n x 2**n`` subset matrices, and a vectorised
enumeration of focal tuples, so a fault in the lattice, grouping or
enumeration code shows up as a mismatch instead of being reproduced.  Seeded inputs are replayed
straight from PCG64 in masscomb's documented draw order.
"""

from __future__ import annotations

import numpy as np

#: Largest allowed deviation between a fused result and its reference.
TOL = 1e-9

#: Leading draws of each generator stream that are replayed independently.
REPLAY = 200

_CHUNK = 8192


def popcount(idx: np.ndarray) -> np.ndarray:
    return np.array([bin(int(a)).count("1") for a in idx])


def subset_matrix(n: int) -> np.ndarray:
    """``S[X, B]`` is True when subset ``X`` is contained in subset ``B``."""
    idx = np.arange(1 << n)
    return (idx[:, None] & idx[None, :]) == idx[:, None]


def moebius_matrix(n: int) -> np.ndarray:
    """Commonality -> mass: ``m(A) = sum over B ⊇ A of (-1)**|B-A| q(B)``."""
    idx = np.arange(1 << n)
    sign = np.where(popcount(idx) % 2 == 1, -1.0, 1.0)
    return subset_matrix(n) * sign[:, None] * sign[None, :]


def conjunction_of_supports(weights: np.ndarray, n: int) -> np.ndarray:
    """Conjunctive combination of the simple supports ``A^weights[A]``.

    ``q(X)`` is the product of ``weights[A]`` over the subsets ``A`` that do
    not contain ``X``.
    """
    contains = subset_matrix(n)
    q = np.where(contains, 1.0, weights[None, :]).prod(axis=1)
    return moebius_matrix(n) @ q


# ---------------------------------------------------------------------------
# Decomposition of dense rows into (focal, weight) components
# ---------------------------------------------------------------------------


def chain_components(row: np.ndarray, n: int):
    """Canonical components of a consonant row, or None if it is not consonant.

    With nested focal sets ``F1 ⊂ ... ⊂ Fk`` and ``Q_i = m(F_i) + ... +
    m(F_k)``, the weight of ``F_i`` is ``Q_{i+1} / Q_i``.
    """
    full = (1 << n) - 1
    focals = np.flatnonzero(row)
    order = np.argsort(popcount(focals), kind="stable")
    chain = [int(a) for a in focals[order]]
    if chain[-1] != full or any(a & b != a for a, b in zip(chain, chain[1:])):
        return None
    q = np.cumsum(row[chain][::-1])[::-1]
    return [(a, float(q[i + 1] / q[i])) for i, a in enumerate(chain[:-1])]


def components(rows: np.ndarray, n: int):
    """Split dense rows into simple-support components.

    Returns ``(focal, weight, bad)``: one entry per component whose weight is
    below ``1 - 1e-12``, and the number of rows that are neither simple
    supports nor consonant.
    """
    full = (1 << n) - 1
    proper = rows[:, :full]
    simple = np.count_nonzero(proper, axis=1) == 1
    focal = [np.argmax(proper[simple], axis=1)]
    weight = [rows[simple, full]]
    bad = 0
    extra = []
    for row in rows[~simple]:
        comps = chain_components(row, n)
        if comps is None:
            bad += 1
            continue
        extra.extend(c for c in comps if c[1] < 1.0 - 1e-12)
    if extra:
        focal.append(np.array([c[0] for c in extra]))
        weight.append(np.array([c[1] for c in extra]))
    return np.concatenate(focal).astype(np.int64), np.concatenate(weight), bad


def dense_chunks(bbas, size: int = _CHUNK):
    """Dense ``(rows, 2**n)`` blocks of a list of mass functions."""
    for start in range(0, len(bbas), size):
        yield np.array([m.values for m in bbas[start : start + size]])


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def grouped(focal: np.ndarray, weight: np.ndarray, n: int, eta: float, approximate: bool):
    """``lns`` (or ``lnsa``) from component columns: group by focal set,
    pool each group, discount by its precision-weighted share, and conjoin
    the group representatives.  Returns ``(mass, counts)``.
    """
    size = 1 << n
    counts = np.bincount(focal, minlength=size)
    logw = np.bincount(focal, weights=np.log(weight), minlength=size)
    active = np.flatnonzero(counts)
    scaled = (n / popcount(active)) ** eta * counts[active]
    share = scaled / scaled.sum()
    g = np.ones(size)
    if approximate:
        g[active] = 1.0 - share
    else:
        g[active] = 1.0 - share + share * np.exp(logw[active])
    return conjunction_of_supports(g, n), counts


def cautious(focal: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
    """Subset-wise minimum of the canonical weights, recombined."""
    minw = np.ones(1 << n)
    np.minimum.at(minw, focal, weight)
    return conjunction_of_supports(minw, n)


def pooled(chunks, n: int, eta: float) -> dict:
    """References for every gen-combine rule from dense blocks of sources.

    ``average`` sums rows.  The other rules work on the component columns:
    every simple or consonant source is the conjunction of its components,
    so ``conjunctive`` conjoins one support per subset whose weight is the
    product of all component weights on it.  Also reports the lns group
    sizes and the number of rows that are neither simple nor consonant or
    do not sum to 1.
    """
    total = np.zeros(1 << n)
    focal, weight = [], []
    rows = bad = 0
    for block in chunks:
        f, w, b = components(block, n)
        focal.append(f)
        weight.append(w)
        bad += b + int((np.abs(block.sum(axis=1) - 1.0) > 1e-9).sum())
        rows += len(block)
        total += block.sum(axis=0)
    focal, weight = np.concatenate(focal), np.concatenate(weight)
    lns, counts = grouped(focal, weight, n, eta, approximate=False)
    logw = np.bincount(focal, weights=np.log(weight), minlength=1 << n)
    return {
        "fused": {
            "lns": lns,
            "lnsa": grouped(focal, weight, n, eta, approximate=True)[0],
            "cautious": cautious(focal, weight, n),
            "conjunctive": conjunction_of_supports(np.exp(logw), n),
            "average": total / rows,
        },
        "groups": {int(a): int(counts[a]) for a in np.flatnonzero(counts)},
        "bad_rows": bad,
    }


# ---------------------------------------------------------------------------
# Seeded generators, replayed draw for draw
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = (stream,) if stream else ()
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _simplex(rng, k):
    e = -np.log(np.maximum(rng.random(k), 1e-300))
    return e / e.sum()


def replay(kind: str, seed: int, stream: int, n: int, count: int, num_focals: int = 5) -> np.ndarray:
    """The first ``count`` assignments of a ``ssf`` or ``consonant`` stream."""
    rng = _rng(seed, stream)
    full = (1 << n) - 1
    out = np.zeros((count, 1 << n))
    for row in out:
        if kind == "ssf":
            focal = int(rng.choice(np.arange(1, full)))
            w = float(rng.random())
            row[full] = w
            row[focal] += 1.0 - w
        else:
            order = rng.permutation(n)
            sizes = np.sort(rng.choice(np.arange(1, n + 1), size=num_focals, replace=False))
            chain = [sum(1 << int(p) for p in order[: int(s)]) for s in sizes]
            if chain[-1] != full:
                chain.append(full)
            row[chain] = _simplex(rng, len(chain))
        row /= row.sum()
    return out


def two_gaussians(seed: int, n_per_class: int, separation: float, dim: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(n_per_class, dim))
    b = rng.normal(size=(n_per_class, dim))
    b[:, 0] += separation
    return np.vstack([a, b]), np.repeat([0, 1], n_per_class)


# ---------------------------------------------------------------------------
# Evidential K-NN over a two-class frame
# ---------------------------------------------------------------------------


def _fuse_two_class(cls: np.ndarray, w: np.ndarray, rule: str) -> np.ndarray:
    """Fuse simple supports on singleton ``{cls}`` with weights ``w``.

    Returns ``[m(∅), m({θ1}), m({θ2}), m(Ω)]``.  Product rules enumerate all
    ``2**K`` focal tuples at once; ``lns`` uses its two-group closed form.
    """
    focal = np.where(cls == 0, 1, 2)
    if rule == "lns":
        live = w < 1.0  # a weight of 1 is a vacuous source, left out of every group
        counts = np.array([(live & (cls == q)).sum() for q in (0, 1)])
        pooled = np.array([w[cls == q].prod() for q in (0, 1)])
        share = counts / counts.sum()  # both singletons have the same precision
        g = np.where(counts > 0, 1.0 - share + share * pooled, 1.0)
        return conjunction_of_supports(np.array([1.0, g[0], g[1], 1.0]), 2)
    k = len(w)
    pick = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(bool)
    mass = np.where(pick, 1.0 - w, w)
    subset = np.where(pick, focal, 3)
    p = mass.prod(axis=1)
    inter = np.bitwise_and.reduce(subset, axis=1)
    out = np.zeros(4)
    ok = inter != 0
    np.add.at(out, inter[ok], p[ok])
    clash = ~ok
    if rule == "dempster":
        return out / out.sum()
    if rule == "dp":
        out[3] += p[clash].sum()  # committed picks cover both classes
        return out
    if rule == "pcr6":
        share = mass[clash] * (p[clash] / mass[clash].sum(axis=1))[:, None]
        np.add.at(out, subset[clash].ravel(), share.ravel())
        return out
    raise ValueError(f"no two-class reference for rule {rule!r}")


def eknn_sweep(points, labels, ks, rules, alpha: float):
    """Leave-one-out reference for every (rule, K).

    Returns ``{(rule, k): (hits_low, hits_high, max_conflict)}``: decisions
    whose pignistic margin is below 1e-9 may go either way and widen the
    hit interval.
    """
    gamma = np.empty(2)
    for q in (0, 1):
        pts = points[labels == q]
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        gamma[q] = 1.0 / d[np.triu_indices(len(pts), k=1)].mean()
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    out = {}
    for rule in rules:
        for k in ks:
            low = high = 0
            worst = 0.0
            for i in range(len(points)):
                nb = order[i, :k]
                cls = labels[nb]
                w = 1.0 - alpha * np.exp(-gamma[cls] * dist[i, nb] ** 2)
                m = _fuse_two_class(cls, w, rule)
                margin = (m[1] - m[2]) / (1.0 - m[0])
                if rule == "lns":  # the other rules report zero conflict
                    worst = max(worst, m[0])
                if abs(margin) <= 1e-9:
                    high += 1
                elif (margin > 0) == (labels[i] == 0):
                    low += 1
                    high += 1
            out[(rule, k)] = (low, high, worst)
    return out
