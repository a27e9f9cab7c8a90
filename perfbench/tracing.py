"""Spans recorded from the benchmark's own code around masscomb's entry points.

A :class:`Tracer` replaces module attributes such as ``masscomb.combine`` or
``masscomb.io.read_csv`` with wrappers that record one span per call.  The
package itself is never edited; :meth:`Tracer.unwrap` restores every
attribute.  Spans stay in memory and are written out as JSON at the end of
the run.

Times come from ``CLOCK_MONOTONIC``, which is system-wide on Linux, so spans
recorded in a child process line up with the parent's spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "pass_id", "attrs")

    def __init__(self, id, parent, name, start, pass_id, attrs):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.pass_id = pass_id
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pass": self.pass_id,
            "attrs": {k: v for k, v in self.attrs.items() if not k.startswith("_")},
        }


class Tracer:
    """In-memory span recorder for one process.

    ``pass_id`` tags every span opened while it is set, so the spans of one
    closed-loop pass can be told apart from the next.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent, name, now(), self.pass_id, attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self._open(name, attrs)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(args, kwargs)`` returns attributes known from the call;
        ``after(span, result)`` adds attributes from the result once the
        span has closed, so that its cost is not charged to the callee.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            sp = self._open(name, before(args, kwargs) if before else {})
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sp)
            if after:
                after(sp, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Attach spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for rec in records:
            sp = Span(
                base + rec["id"],
                parent.id if rec["parent"] is None else base + rec["parent"],
                rec["name"],
                rec["start"],
                parent.pass_id,
                rec["attrs"],
            )
            sp.end = rec["end"]
            self.spans.append(sp)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([sp.to_dict() for sp in self.spans], fh)


# ---------------------------------------------------------------------------
# Attributes taken from masscomb calls
# ---------------------------------------------------------------------------


def rule_of(args, kwargs) -> dict:
    """Before ``combine(ms, cfg)``: the rule, and for the enumeration rules
    the inputs, whose focal counts are taken after the run, off the clock."""
    ms, cfg = args[0], args[1]
    attrs = {"rule": cfg.rule}
    if cfg.rule in ("dp", "pcr6"):
        attrs["_inputs"] = ms
    return attrs


def fusion_attrs(sp: Span, res) -> None:
    """After ``combine``: the group count and, while masscomb reports it,
    the per-stage seconds of the grouped rules."""
    if res.groups is not None:
        sp.attrs["groups"] = len(res.groups)
    steps = getattr(res, "step_seconds", None)
    if steps:
        sp.attrs["step_seconds"] = dict(steps)


def resident_bytes(sp: Span, bbas) -> None:
    """After ``generate`` or a reader: bytes held by the returned masses."""
    sp.attrs["resident_bytes"] = sum(m.values.nbytes for m in bbas)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Calls are synchronous, so the children of one span never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.seconds
    return {sp.id: sp.seconds - child_time[sp.id] for sp in spans}
