"""Focal tuples enumerated by prefix expansion, for the dp and pcr6 rules.

A focal tuple picks one focal set of each of K sources; tuples come in
``itertools.product`` order, the last source fastest.  :func:`expand`
lists the tuples of many segments of K sources at once, in blocks of
bounded size, and builds each tuple's running values source by source,
one outer operation per source: each multiply is the IEEE operation of a
tuple-by-tuple loop, in the loop's order, so the rules that scatter the
values keep that loop's results bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def bits_dtype(count: int) -> np.dtype:
    """The narrowest signed integer dtype that holds ``count``-bit values:
    signed, so that adding an ``intp`` offset stays an integer."""
    return np.min_scalar_type(-(1 << count))


class _Layout:
    """How the focal tuples of sources with focal counts ``sizes`` are cut
    into blocks of ``budget`` tuples.

    The sources from ``split`` on are the longest suffix whose ``width``
    tuples fit in a block; a segment has ``prefixes`` tuples of the sources
    before them.  ``first`` gives each source's first column in a table of
    the segment's focal sets, source by source.
    """

    def __init__(self, sizes: tuple[int, ...], budget: int):
        split, width = len(sizes), 1
        while split and width * sizes[split - 1] <= budget:
            split -= 1
            width *= sizes[split]
        self.sizes, self.split, self.width = sizes, split, width
        self.prefixes = math.prod(sizes[:split])
        self.counts = np.array(sizes)
        self.first = np.cumsum(self.counts) - self.counts
        # layouts are shared through _layout's cache
        self.counts.setflags(write=False)
        self.first.setflags(write=False)
        self._suffix = None

    def suffix(self) -> np.ndarray:
        """The ``(width, k)`` table columns of each suffix tuple's picks;
        those of the sources before ``split`` are their first columns."""
        if self._suffix is None:
            strides = [1]
            for size in self.sizes[:0:-1]:
                strides.append(strides[-1] * size)
            digits = np.arange(self.width)[:, np.newaxis] // np.array(strides[::-1])
            self._suffix = digits % self.counts + self.first
            self._suffix.setflags(write=False)
        return self._suffix


#: Layouts are kept for the vectors of focal counts seen last: EkNN
#: leave-one-out meets the same few again and again, and a small call
#: would spend a tenth of its time on its layout.
_layout = functools.lru_cache(maxsize=8)(_Layout)


class _Group:
    """Segments that share one vector of focal counts, with its
    :class:`_Layout`: ``subsets`` and ``masses`` are ``(segments,
    sum(sizes))`` tables of their focal sets, source by source."""

    def __init__(self, segments, subsets, masses, layout: _Layout):
        self.segments, self.subsets, self.masses = segments, subsets, masses
        self.sizes, self.split, self.width = layout.sizes, layout.split, layout.width
        self.prefixes, self.first, self.suffix = layout.prefixes, layout.first, layout.suffix

    def heads(self, lo: int, hi: int, tables):
        """The prefixes ``lo:hi`` of the group, in order: the segment of
        each, the table columns of its picks, and per ``(ufunc, table)``
        the ``ufunc`` over its picks' values, from the first source on."""
        segment, digits = np.divmod(np.arange(lo, hi), self.prefixes)
        prefix = np.empty((hi - lo, self.split), dtype=np.intp)
        for j in range(self.split - 1, -1, -1):
            digits, prefix[:, j] = np.divmod(digits, self.sizes[j])
        prefix += self.first[: self.split]
        at = prefix + (segment * self.subsets.shape[1])[:, np.newaxis]
        heads = []
        for op, table in tables:
            flat = table.reshape(-1)
            value = flat.take(at[:, 0])
            for j in range(1, self.split):
                op(value, flat.take(at[:, j]), out=value)
            heads.append(value)
        return segment, prefix, heads


class Tuples:
    """One block of focal tuples from :func:`expand`: rows of
    ``width`` tuples each, in ``itertools.product`` order.

    ``segment`` gives the segment of each row, and ``values`` holds one flat
    array per field, row by row.
    """

    __slots__ = ("segment", "values", "width", "_group", "_rows", "_prefix")

    def __init__(self, segment, values, width, group, rows, prefix):
        self.segment, self.values, self.width = segment, values, width
        # each row's segment in the group, and the table columns of its prefix
        self._group, self._rows, self._prefix = group, rows, prefix

    def cells(self, subsets: np.ndarray, size: int) -> np.ndarray:
        """Each tuple's cell in the flat ``(G, size)`` output: its subset in
        ``subsets`` plus its row's offset."""
        rows = len(self.segment)
        return (subsets.reshape(rows, -1) + (self.segment * size)[:, np.newaxis]).reshape(-1)

    def picks(self, at: np.ndarray):
        """The ``(len(at), k)`` subsets and masses that the tuples at flat
        indices ``at`` of the block pick, source by source."""
        group, split = self._group, self._group.split
        row, col = np.divmod(at, self.width)
        cols = group.suffix().take(col, axis=0)
        if split:
            cols[:, :split] = self._prefix.take(row, axis=0)
        cols += (self._rows.take(row) * group.subsets.shape[1])[:, np.newaxis]
        return group.subsets.reshape(-1).take(cols), group.masses.reshape(-1).take(cols)


def _grow(op: np.ufunc, acc: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """``op`` of each of the ``(rows, width, 1)`` values so far with each of
    the ``(rows, 1, s)`` values of the next source, row-major:
    ``(rows, width * s, 1)``."""
    rows, width, _ = acc.shape
    s = leaf.shape[2]
    if rows * width * s < _GROW_CELLS:
        return op(acc, leaf).reshape(rows, -1, 1)
    # one call per column of leaf keeps numpy's inner loop long
    grown = np.empty((rows, width, s), dtype=acc.dtype)
    for d in range(s):
        op(acc[:, :, 0], leaf[:, :, d], out=grown[:, :, d])
    return grown.reshape(rows, -1, 1)


#: Below this many cells, :func:`_grow` makes its outer product in one
#: broadcast call; above, one call per column, whose inner loop runs along a
#: row.  A broadcast over a column of 2 steps 2 cells per inner loop: on a
#: 2-core Xeon at 2.0 GHz it took 6.8 us for 1024 cells against 4.7 us by
#: columns, and 2.8 against 4.4 us for 200.  eknn-sweep meets both sides
#: (K = 2..10 sources of 2 focal sets): a pass took a median 0.052 s with
#: this switch and 0.055 s with either form alone, over 5 runs each.
_GROW_CELLS = 512


def expand(values: np.ndarray, sizes: np.ndarray, k: int, fields, cells: int):
    """Every focal tuple of each segment of ``k`` consecutive rows of
    ``values`` (``sizes`` their focal counts), in blocks (see :class:`Tuples`)
    of at most ``cells // k`` tuples: ``cells`` bounds the picks (tuples x
    sources) of a block.

    A tuple picks one focal set of each source; the last source varies
    fastest, as in ``itertools.product``.  Segments with one vector of focal
    counts form a :class:`_Group`, and ``fields(subsets, masses)`` turns its
    tables into ``(ufunc, table)`` pairs.  Each block's ``values`` hold, per
    pair, ``ufunc`` over every tuple's picks from the first source to the
    last, built by prefix expansion: one outer ``ufunc`` per source, of the
    values so far with the next source's, so each tuple costs one operation
    per field, in the order of a tuple-by-tuple loop.  A segment with more
    tuples than a block expands only the suffix of its :class:`_Layout`;
    its prefixes are found by digits, a block's worth at a time, and carry
    on into the suffix.
    """
    size = values.shape[1]
    focal = values.reshape(-1).nonzero()[0]
    subsets = (focal & (size - 1)).astype(bits_dtype(size.bit_length() - 1))
    masses = values.reshape(-1)[focal]
    sizes = sizes.reshape(-1, k)
    budget = max(1, cells // k)
    if (sizes == sizes[0]).all():
        count = len(sizes)
        layout = _layout(tuple(sizes[0].tolist()), budget)
        groups = [
            _Group(np.arange(count), subsets.reshape(count, -1), masses.reshape(count, -1), layout)
        ]
    else:
        kinds, which = np.unique(sizes, axis=0, return_inverse=True)
        ends = np.cumsum(sizes.sum(axis=1))
        groups = []
        for g, row in enumerate(kinds):
            segments = np.flatnonzero(which == g)
            at = (ends[segments] - row.sum())[:, np.newaxis] + np.arange(row.sum())
            layout = _layout(tuple(row.tolist()), budget)
            groups.append(_Group(segments, subsets[at], masses[at], layout))
    for group in groups:
        tables = fields(group.subsets, group.masses)
        s, first, split = group.sizes, group.first.tolist(), group.split
        step = max(1, budget // group.width)
        total = len(group.segments) * group.prefixes
        # the prefixes of up to a block's worth of rows are found at once
        batch = step * max(1, budget // step)
        for lo in range(0, total, batch):
            hi = min(lo + batch, total)
            if split:
                segments, prefixes, heads = group.heads(lo, hi, tables)
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                if not split:
                    # whole segments, expanded from the first source
                    segment, start, prefix = np.arange(a, b), 1, None
                    rows = [t[a:b] for _, t in tables]
                    acc = [row[:, : s[0], np.newaxis] for row in rows]
                else:
                    segment, start = segments[a - lo : b - lo], split
                    prefix = prefixes[a - lo : b - lo]
                    acc = [head[a - lo : b - lo, np.newaxis, np.newaxis] for head in heads]
                    rows = [t.take(segment, axis=0) for _, t in tables]
                for j in range(start, k):
                    cols = slice(first[j], first[j] + s[j])
                    for i, (op, _) in enumerate(tables):
                        acc[i] = _grow(op, acc[i], rows[i][:, np.newaxis, cols])
                width = acc[0].shape[1]
                acc = [v.reshape(-1) for v in acc]
                yield Tuples(group.segments[segment], acc, width, group, segment, prefix)
