"""Reading and writing mass functions in the shared file formats.

Two formats round-trip losslessly:

* dense CSV: one assignment per row, ``2**n`` columns in natural order,
  header row of binary subset bitmasks (``000``, ``001`` ... with the
  first hypothesis in the lowest bit, so the all-ones column is the whole
  frame).  The CSV carries no hypothesis labels; readers may supply them.
* sparse JSON: ``{"frame": [labels], "bbas": [{"focal elements":
  [[label, ...], ...], "masses": [...]}]}``, written one assignment per
  line; any valid JSON document of that shape is read.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from typing import Sequence

import numpy as np

from . import rules
from .core import FrameOfDiscernment, MassFunction, _mass_rows
from .errors import ParameterError, ParseError

#: Tolerance on the mass total of a row read from a file, which absorbs
#: the rounding of printed values; rows are renormalised once on reading.
FILE_MASS_TOL = 1e-6

FORMATS = ("csv", "json")


def bitmask_header(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1 << n)]


# ---------------------------------------------------------------------------
# Dense CSV
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _sink(target, **open_kw):
    """Yield ``target`` if it is an open text stream, else the file it names,
    opened for writing; either way the bytes written are the same."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", **open_kw) as fh:
            yield fh


#: Cells per block of assignments that the writers format at once.
_WRITE_CELLS = 1 << 18


def _to_write(bbas: Sequence[MassFunction]):
    """The assignments' frame, and their values in blocks of about
    ``_WRITE_CELLS`` cells, views of the producers' blocks where it can.

    Every assignment must share the first one's frame size, then its frame
    (see :func:`rules._batch`), before anything is written."""
    if not bbas:
        raise ParameterError("nothing to write")
    frame = bbas[0].frame
    if any(len(m.values) != frame.powerset_size for m in bbas):
        raise ParameterError("assignments to write must share one frame size")
    chunks = rules._batch(bbas).chunks(max(1, _WRITE_CELLS // frame.powerset_size))
    return frame, (chunk.values() for chunk in chunks)


def _sparse_rows(block: np.ndarray, mask: np.ndarray) -> tuple[list, list, list]:
    """The columns of ``block`` where ``mask`` holds, their values, and the end
    of each row's run in those two lists."""
    rows, cols = np.nonzero(mask)
    ends = np.cumsum(np.bincount(rows, minlength=len(block)))
    return cols.tolist(), block[rows, cols].tolist(), ends.tolist()


def write_csv(target, bbas: Sequence[MassFunction]) -> None:
    """Write one row per assignment, each cell the ``repr`` of its mass, lines
    ending in CRLF as :mod:`csv` writes them."""
    frame, blocks = _to_write(bbas)
    zeros = ",".join(["0.0"] * frame.powerset_size)  # a row of +0.0; cell i starts at 4 * i
    with _sink(target, newline="") as fh:
        fh.write(",".join(bitmask_header(frame.n)) + "\r\n")
        for block in blocks:
            # every cell but +0.0, -0.0 included, is spliced into the zero row
            cols, values, ends = _sparse_rows(block, (block != 0) | np.signbit(block))
            out = []
            start = 0
            for end in ends:
                pos = 0
                for col, value in zip(cols[start:end], values[start:end]):
                    out += (zeros[pos : 4 * col], repr(value))
                    pos = 4 * col + 3
                out += (zeros[pos:], "\r\n")
                start = end
            fh.write("".join(out))


def read_csv(path, labels: Sequence[str] | None = None) -> list[MassFunction]:
    """Read a dense CSV file.

    The body is parsed by one :func:`numpy.loadtxt` call, which agrees with
    ``float()`` on every cell it accepts.  Whatever it refuses (quoted
    cells, ``1_0``, ragged or bad rows), or a block that fails validation,
    goes to the token parser, which reports the earliest bad line.
    """
    if isinstance(labels, str):  # it would read as one label per character
        raise ParameterError("labels must be a sequence of label strings, not one string")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        frame = _csv_frame(next(reader, None), labels)
        try:
            return _mass_rows(frame, _loadtxt_body(fh, frame.powerset_size), FILE_MASS_TOL)
        except (ValueError, ParameterError):
            pass
        fh.seek(0)
        rows = list(csv.reader(fh))
    size = frame.powerset_size
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


def _csv_frame(header: list[str] | None, labels: Sequence[str] | None) -> FrameOfDiscernment:
    """The frame a CSV header row describes, named by ``labels`` if given."""
    if header is None:
        raise ParseError("empty file", line=1)
    header = [tok.strip() for tok in header]
    size = len(header)
    if size < 2 or size & (size - 1):
        raise ParseError(f"{size} columns is not a power-set size", line=1)
    n = size.bit_length() - 1
    if header != bitmask_header(n):
        raise ParseError("header must list binary subset bitmasks in natural order", line=1)
    frame = FrameOfDiscernment(tuple(labels)) if labels else FrameOfDiscernment.numbered(n)
    if frame.n != n:
        raise ParameterError(f"{frame.n} labels supplied for {n}-element data")
    return frame


def _loadtxt_body(fh, size: int) -> np.ndarray:
    """The rest of ``fh`` as one ``(S, size)`` block; a ``ValueError`` if
    :func:`numpy.loadtxt` cannot parse it, it is empty, or its width is not
    ``size``."""
    for first in fh:
        if first.strip("\r\n"):
            break
    else:
        raise ValueError("no assignments")  # checked first: loadtxt warns on no data
    block = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
    if block.shape[1] != size:
        raise ValueError(f"{block.shape[1]} columns")
    return block


def _read_rows(frame: FrameOfDiscernment, count: int, fill, error) -> list[MassFunction]:
    """Parse ``count`` assignments into one block, then validate the block.

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


def write_json(target, bbas: Sequence[MassFunction]) -> None:
    """Write the sparse JSON document, one assignment per line."""
    frame, blocks = _to_write(bbas)
    encode = json.JSONEncoder(allow_nan=False).encode  # the C encoder: no indent
    members = {}  # focal index -> its label list, built on first sight
    with _sink(target) as fh:
        fh.write(f'{{"frame": {encode(list(frame.labels))}, "bbas": [\n')
        sep = ""
        for block in blocks:
            focals, masses, ends = _sparse_rows(block, block != 0)
            members.update((a, list(frame.subset_labels(a))) for a in set(focals) - members.keys())
            lines = []
            start = 0
            for end in ends:
                lines.append(encode({
                    "focal elements": [members[a] for a in focals[start:end]],
                    "masses": masses[start:end],
                }))
                start = end
            fh.write(sep + ",\n".join(lines))
            sep = ",\n"
        fh.write("\n]}\n")


def read_json(path) -> list[MassFunction]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or "frame" not in doc or "bbas" not in doc:
        raise ParseError("document must have 'frame' and 'bbas' keys")
    labels = doc["frame"]  # a string would read as one label per character
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise ParseError("'frame' must be a list of label strings")
    try:
        frame = FrameOfDiscernment(tuple(labels))
    except ParameterError as exc:
        raise ParseError(f"bad frame: {exc}") from None
    bbas = doc["bbas"]
    if not isinstance(bbas, list):
        raise ParseError("'bbas' must be a list")
    if not bbas:
        raise ParseError("no assignments in file")
    indices = {}  # label tuple -> subset index, filled on first sight

    def fill(pos: int, out: np.ndarray) -> None:
        entry = bbas[pos]
        if not isinstance(entry, dict):
            raise ParseError(f"bba {pos}: must be an object")
        focals = entry.get("focal elements")
        masses = entry.get("masses")
        if focals is None or masses is None:
            raise ParseError(f"bba {pos}: needs 'focal elements' and 'masses'")
        if not isinstance(focals, list) or not isinstance(masses, list):
            raise ParseError(f"bba {pos}: 'focal elements' and 'masses' must be lists")
        if len(focals) != len(masses):
            raise ParseError(
                f"bba {pos}: {len(focals)} focal elements but {len(masses)} masses"
            )
        seen = set()
        for members, mass in zip(focals, masses):
            if isinstance(members, str):  # it would read as one label per character
                raise ParseError(f"bba {pos}: focal element {members!r} is not a list of labels")
            try:
                idx = indices[tuple(members)]
            except (KeyError, TypeError):
                try:
                    idx = frame.subset_index(members)
                except Exception as exc:
                    raise ParseError(f"bba {pos}: {exc}") from None
                indices[tuple(members)] = idx  # labels are strings, so hashable
            if idx in seen:
                raise ParseError(
                    f"bba {pos}: duplicate focal element {frame.format_subset(idx)}"
                )
            seen.add(idx)
            if isinstance(mass, bool) or not isinstance(mass, (int, float)):
                raise ParseError(f"bba {pos}: mass {mass!r} is not a number")
            try:
                out[idx] = float(mass)
            except OverflowError as exc:  # an integer beyond the float range
                raise ParseError(f"bba {pos}: {exc}") from None

    return _read_rows(frame, len(bbas), fill, lambda pos, msg: ParseError(f"bba {pos}: {msg}"))


# ---------------------------------------------------------------------------
# Dispatch by format or extension
# ---------------------------------------------------------------------------


def _resolve_format(target, fmt: str | None) -> str:
    if fmt:
        if fmt not in FORMATS:
            raise ParameterError(f"unknown format {fmt!r}; choose from {FORMATS}")
        return fmt
    if hasattr(target, "write"):
        return "csv"  # an open stream has no extension to go by
    ext = os.path.splitext(str(target))[1].lower().lstrip(".")
    if ext not in FORMATS:
        raise ParameterError(
            f"cannot tell the format of {str(target)!r} from its extension;"
            " name it .csv or .json, or choose one with --format"
        )
    return ext


def read_bbas(path, fmt: str | None = None) -> list[MassFunction]:
    if _resolve_format(path, fmt) == "json":
        return read_json(path)
    return read_csv(path)


def write_bbas(target, bbas: Sequence[MassFunction], fmt: str | None = None) -> None:
    """Write to the file ``target`` names, or to ``target`` itself if it is an
    open text stream."""
    if _resolve_format(target, fmt) == "json":
        write_json(target, bbas)
    else:
        write_csv(target, bbas)
