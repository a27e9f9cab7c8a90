"""Reading and writing mass functions in the shared file formats.

Two formats round-trip losslessly:

* dense CSV: one assignment per row, ``2**n`` columns in natural order,
  header row of binary subset bitmasks (``000``, ``001`` ... with the
  first hypothesis in the lowest bit, so the all-ones column is the whole
  frame).  The CSV carries no hypothesis labels; readers may supply them.
* sparse JSON: ``{"frame": [labels], "bbas": [{"focal elements":
  [[label, ...], ...], "masses": [...]}]}``.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Sequence

import numpy as np

from .core import FrameOfDiscernment, MassFunction, _mass_rows
from .errors import ParameterError, ParseError

#: Tolerance on the mass total of a row read from a file, which absorbs
#: the rounding of printed values; rows are renormalised once on reading.
FILE_MASS_TOL = 1e-6

FORMATS = ("csv", "json")


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"theta{i + 1}" for i in range(n))


def bitmask_header(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1 << n)]


# ---------------------------------------------------------------------------
# Dense CSV
# ---------------------------------------------------------------------------


def write_csv(path, bbas: Sequence[MassFunction]) -> None:
    if not bbas:
        raise ParameterError("nothing to write")
    frame = bbas[0].frame
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(bitmask_header(frame.n))
        for m in bbas:
            writer.writerow([repr(v) for v in m.values.tolist()])


def read_csv(path, labels: Sequence[str] | None = None) -> list[MassFunction]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("empty file", line=1)
    header = [tok.strip() for tok in rows[0]]
    size = len(header)
    if size < 2 or size & (size - 1):
        raise ParseError(f"{size} columns is not a power-set size", line=1)
    n = size.bit_length() - 1
    if header != bitmask_header(n):
        raise ParseError("header must list binary subset bitmasks in natural order", line=1)
    frame = FrameOfDiscernment(tuple(labels) if labels else default_labels(n))
    if frame.n != n:
        raise ParameterError(f"{frame.n} labels supplied for {n}-element data")
    body = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]
    if not body:
        raise ParseError("no assignments in file", line=1)

    def fill(i: int, out: np.ndarray) -> None:
        lineno, row = body[i]
        if len(row) != size:
            raise ParseError(f"expected {size} values, found {len(row)}", line=lineno)
        try:
            out[:] = [float(tok) for tok in row]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None

    return _read_rows(frame, len(body), fill, lambda i, msg: ParseError(msg, line=body[i][0]))


def _read_rows(frame: FrameOfDiscernment, count: int, fill, error) -> list[MassFunction]:
    """Parse ``count`` assignments into one block, then validate it in one pass.

    ``fill(i, out)`` parses the ``i``-th assignment into the zeroed row
    ``out``, raising :class:`ParseError` on a malformed one.  ``error(i,
    message)`` builds the :class:`ParseError` for a row whose masses fail
    validation.  Whatever the kind of error, the one reported is the one
    earliest in the file.
    """
    block = np.zeros((count, frame.powerset_size))
    for i in range(count):
        try:
            fill(i, block[i])
        except ParseError:
            _validated(frame, block[:i], error)  # a bad row before this one wins
            raise
    return _validated(frame, block, error)


def _validated(frame: FrameOfDiscernment, block: np.ndarray, error) -> list[MassFunction]:
    try:
        return _mass_rows(frame, block, FILE_MASS_TOL)
    except ParameterError as exc:
        raise error(exc.row, str(exc)) from None


# ---------------------------------------------------------------------------
# Sparse JSON
# ---------------------------------------------------------------------------


def to_json_doc(bbas: Sequence[MassFunction]) -> dict:
    if not bbas:
        raise ParameterError("nothing to write")
    frame = bbas[0].frame
    return {
        "frame": list(frame.labels),
        "bbas": [
            {
                "focal elements": [
                    list(frame.subset_labels(int(a))) for a in m.focal_elements()
                ],
                "masses": [float(m.values[a]) for a in m.focal_elements()],
            }
            for m in bbas
        ],
    }


def write_json(path, bbas: Sequence[MassFunction]) -> None:
    doc = to_json_doc(bbas)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path) -> list[MassFunction]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or "frame" not in doc or "bbas" not in doc:
        raise ParseError("document must have 'frame' and 'bbas' keys")
    try:
        frame = FrameOfDiscernment(tuple(doc["frame"]))
    except ParameterError as exc:
        raise ParseError(f"bad frame: {exc}") from None
    bbas = doc["bbas"]
    if not isinstance(bbas, list):
        raise ParseError("'bbas' must be a list")
    if not bbas:
        raise ParseError("no assignments in file")

    def fill(pos: int, out: np.ndarray) -> None:
        entry = bbas[pos]
        if not isinstance(entry, dict):
            raise ParseError(f"bba {pos}: must be an object")
        focals = entry.get("focal elements")
        masses = entry.get("masses")
        if focals is None or masses is None:
            raise ParseError(f"bba {pos}: needs 'focal elements' and 'masses'")
        if len(focals) != len(masses):
            raise ParseError(
                f"bba {pos}: {len(focals)} focal elements but {len(masses)} masses"
            )
        seen = set()
        for members, mass in zip(focals, masses):
            try:
                idx = frame.subset_index(members)
            except Exception as exc:
                raise ParseError(f"bba {pos}: {exc}") from None
            if idx in seen:
                raise ParseError(
                    f"bba {pos}: duplicate focal element {frame.format_subset(idx)}"
                )
            seen.add(idx)
            try:
                out[idx] = float(mass)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bba {pos}: {exc}") from None

    return _read_rows(frame, len(bbas), fill, lambda pos, msg: ParseError(f"bba {pos}: {msg}"))


# ---------------------------------------------------------------------------
# Dispatch by format or extension
# ---------------------------------------------------------------------------


def _resolve_format(path, fmt: str | None) -> str:
    if fmt:
        if fmt not in FORMATS:
            raise ParameterError(f"unknown format {fmt!r}; choose from {FORMATS}")
        return fmt
    ext = os.path.splitext(str(path))[1].lower().lstrip(".")
    return ext if ext in FORMATS else "csv"


def read_bbas(path, fmt: str | None = None, labels: Sequence[str] | None = None) -> list[MassFunction]:
    if _resolve_format(path, fmt) == "json":
        return read_json(path)
    return read_csv(path, labels=labels)


def write_bbas(path, bbas: Sequence[MassFunction], fmt: str | None = None) -> None:
    if _resolve_format(path, fmt) == "json":
        write_json(path, bbas)
    else:
        write_csv(path, bbas)
