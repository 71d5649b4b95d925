"""JSON and CSV document formats used by the CLI and reusable directly.

Rationals travel as decimal-integer or "p/q" strings so files round-trip
exactly, at any length and whatever sys.int_max_str_digits is set to; parse
failures name the offending position in the document.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import TYPE_CHECKING

from .algebra import Poly, Rational, Series, _rational_parts, _rational_text, _text_int
from .errors import DomainError, FormatError, OutOfRange
from .identify import IdentifyResult
from .transforms import PiecewisePoly, RatioExpansion, sin_maclaurin, step_example

if TYPE_CHECKING:
    import numpy as np

    from .auction import AuctionModel, DistSpec


def parse_rational(value, where: str) -> Rational:
    """Parse a JSON value holding a rational: an integer or a 'p/q' string."""
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Rational(value)
    if isinstance(value, str):
        parts = _rational_parts(value)
        if parts is None:
            raise FormatError(
                f"{where}: malformed rational {value!r} (use an integer or 'p/q')"
            )
        if not parts[1]:
            raise FormatError(f"{where}: zero denominator in {value!r}")
        return Rational(*parts)
    raise FormatError(f"{where}: expected a rational string or integer, got {type(value).__name__}")


def format_rational(value: Rational) -> str:
    return _rational_text(value)


def _require(doc, key, where, kind=None):
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object")
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    value = doc[key]
    bad_bool = kind is int and isinstance(value, bool)
    if kind is not None and (bad_bool or not isinstance(value, kind)):
        raise FormatError(
            f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}"
        )
    return value


def _rational_list(values, where) -> list[Rational]:
    if not isinstance(values, list):
        raise FormatError(f"{where}: expected a list")
    return [parse_rational(v, f"{where}[{i}]") for i, v in enumerate(values)]


def function_from_document(doc, where: str = "function"):
    """Parse a function description into a Poly or PiecewisePoly.

    Kinds: {"kind": "poly", "coeffs": [...]},
    {"kind": "piecewise", "breakpoints": [...], "pieces": [[...], ...], "tail": [...]},
    {"kind": "builtin", "name": "sin" | "step_example", "order" | "n_max": int}.
    """
    kind = _require(doc, "kind", where, str)
    if kind == "poly":
        return Poly(_rational_list(_require(doc, "coeffs", where), f"{where}.coeffs"))
    if kind == "piecewise":
        breakpoints = _rational_list(
            _require(doc, "breakpoints", where), f"{where}.breakpoints"
        )
        if not breakpoints or breakpoints[0] != 0:
            raise FormatError(f"{where}.breakpoints[0]: must be 0")
        for i in range(1, len(breakpoints)):
            if breakpoints[i] <= breakpoints[i - 1]:
                raise FormatError(f"{where}.breakpoints[{i}]: must be strictly increasing")
        pieces_doc = _require(doc, "pieces", where, list)
        if len(pieces_doc) != len(breakpoints) - 1:
            raise FormatError(
                f"{where}.pieces: expected {len(breakpoints) - 1} pieces for"
                f" {len(breakpoints)} breakpoints, got {len(pieces_doc)}"
            )
        pieces = [
            Poly(_rational_list(p, f"{where}.pieces[{i}]")) for i, p in enumerate(pieces_doc)
        ]
        tail = Poly(_rational_list(_require(doc, "tail", where), f"{where}.tail"))
        return PiecewisePoly(breakpoints, pieces + [tail])
    if kind == "builtin":
        name = _require(doc, "name", where, str)
        if name == "sin":
            order = _require(doc, "order", where, int)
            if order < 0:
                raise FormatError(f"{where}.order: must be nonnegative")
            return sin_maclaurin(order)
        if name == "step_example":
            n_max = _require(doc, "n_max", where, int)
            if n_max < 1:
                raise FormatError(f"{where}.n_max: must be at least 1")
            return step_example(n_max)
        raise FormatError(f"{where}.name: unknown builtin {name!r}")
    raise FormatError(f"{where}.kind: unknown kind {kind!r}")


def function_to_document(fn) -> dict:
    if isinstance(fn, Poly):
        return {"kind": "poly", "coeffs": [format_rational(c) for c in fn.coeffs]}
    if isinstance(fn, PiecewisePoly):
        return {
            "kind": "piecewise",
            "breakpoints": [format_rational(b) for b in fn.breakpoints],
            "pieces": [
                [format_rational(c) for c in p.coeffs] for p in fn.pieces[:-1]
            ],
            "tail": [format_rational(c) for c in fn.pieces[-1].coeffs],
        }
    raise TypeError(f"cannot serialize {type(fn).__name__}")


def ratio_expansion_from_document(doc, where: str = "expansion") -> RatioExpansion:
    """Parse {"lead": int, "tail": ["r0", "r1", ...]}."""
    lead = _require(doc, "lead", where, int)
    tail = _rational_list(_require(doc, "tail", where), f"{where}.tail")
    if not tail:
        raise FormatError(f"{where}.tail: must be nonempty")
    if not tail[0]:
        raise FormatError(f"{where}.tail[0]: must be nonzero")
    return RatioExpansion(lead, Series(tail, len(tail) - 1))


def ratio_expansion_to_document(H: RatioExpansion) -> dict:
    return {"lead": H.lead, "tail": [format_rational(c) for c in H.tail.coeffs]}


def identify_result_to_document(result: IdentifyResult) -> dict:
    return {
        "coeffs": [format_rational(c) for c in result.poly.coeffs],
        "ambiguous_sign": result.ambiguous_sign,
        "k": result.k,
    }


def _number(doc, key, where):
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}.{key}: expected a number")
    if not math.isfinite(value):
        raise FormatError(f"{where}.{key}: expected a finite number")
    return float(value)


def dist_from_document(doc, where: str) -> DistSpec:
    from .auction import Exponential, Lognormal, PointMass, Shifted

    kind = _require(doc, "kind", where, str)
    try:
        if kind == "exponential":
            return Exponential(_number(doc, "theta", where))
        if kind == "lognormal":
            return Lognormal(
                _number(doc, "mu", where), _number(doc, "sigma", where)
            )
        if kind == "point_mass":
            return PointMass(_number(doc, "v", where))
        if kind == "shifted":
            base = dist_from_document(_require(doc, "base", where, dict), f"{where}.base")
            return Shifted(base, _number(doc, "offset", where))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"{where}: {exc}") from exc
    raise FormatError(f"{where}.kind: unknown distribution kind {kind!r}")


def model_from_document(doc, where: str = "model") -> AuctionModel:
    from .auction import AuctionModel

    common = dist_from_document(_require(doc, "common", where, dict), f"{where}.common")
    idio = dist_from_document(
        _require(doc, "idiosyncratic", where, dict), f"{where}.idiosyncratic"
    )
    n = _require(doc, "N", where, int)
    if n < 2:
        raise FormatError(f"{where}.N: must be an integer >= 2")
    return AuctionModel(common, idio, n)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_text_int)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc


def _not_utf8(path) -> FormatError:
    """FormatError at the line of path's first byte that is not UTF-8.  A
    text file decodes chunk by chunk, so the error's own offset counts from
    its chunk; the whole file is decoded again to place it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}:{line}: not UTF-8 text: {exc.reason}")
    return FormatError(f"{path}: not UTF-8 text")


# rows per formatted write of save_samples: one format string and one
# write per block keep memory flat at any table size
SAVE_BLOCK_ROWS = 8192


def save_samples(path, table: np.ndarray) -> None:
    """Write a (rows, 2) sample table as CSV with header top,second and
    CRLF line ends, as csv.writer does; floats use shortest round-trip
    decimal form (repr), which never needs quoting.  Rows go out in blocks
    of SAVE_BLOCK_ROWS, each one %-expansion and one write, so the bytes
    are those of one csv.writer row per line.  A table of another shape
    raises DomainError, and a non-finite bid OutOfRange, before the file is
    opened, as load_samples would refuse it."""
    import numpy as np

    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise DomainError(f"expected a (rows, 2) sample table, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise OutOfRange("sample table holds a non-finite bid")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("top,second\r\n")
        for start in range(0, len(table), SAVE_BLOCK_ROWS):
            block = table[start : start + SAVE_BLOCK_ROWS]
            fh.write(("%r,%r\r\n" * len(block)) % tuple(block.ravel().tolist()))


def load_samples(path) -> np.ndarray:
    """Read a table written by save_samples; blank lines are skipped, and a
    malformed or non-finite cell raises FormatError naming path:line.

    One of two readers runs, picked from the file alone.  numpy's loadtxt
    reads a regular file whose header cells strip to top and second and
    whose lines hold no quote and fit within csv.field_size_limit(); it
    parses each cell with float()'s parser.  The csv module reads every other file, and any that
    loadtxt refuses, reads as another shape or reads with a non-finite
    bid; it alone reads quoted cells and words every FormatError.  The
    arrays, the accepted files and the messages are the csv module's."""
    table = _numpy_samples(path)
    if table is not None:
        return table
    import numpy as np

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["top", "second"]:
                raise FormatError(f"{path}:1: expected header 'top,second'")
            values = []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num  # a quoted cell may span lines
                if len(row) != 2:
                    raise FormatError(f"{path}:{lineno}: expected two columns")
                try:
                    top, second = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
                if not (math.isfinite(top) and math.isfinite(second)):
                    raise FormatError(f"{path}:{lineno}: bids must be finite, got {row!r}")
                values.append(top)
                values.append(second)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not values:
        raise FormatError(f"{path}: no sample rows")
    return np.array(values).reshape(-1, 2)


def _numpy_samples(path) -> np.ndarray | None:
    """The sample table by numpy's reader, or None where load_samples'
    csv loop must decide.  Only a regular file is read here, since a pipe
    can be read once only."""
    import numpy as np

    if not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            if not _plain_lines(fh, csv.field_size_limit()):
                return None
            fh.seek(0)
            if [h.strip() for h in fh.readline().split(",")] != ["top", "second"]:
                return None
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if table.shape[1] != 2 or not len(table) or not np.isfinite(table).all():
        return None
    return table


def _plain_lines(fh, limit: int) -> bool:
    """One streaming pass over a text file opened with universal newlines:
    true if no quote appears, no line is longer than limit, and a line
    after the first is not empty.  Then csv.reader splits each line at its
    commas alone, as loadtxt does, and loadtxt has rows to read."""
    size = max(1, min(limit, 1 << 16))  # a line inside a chunk is shorter than limit
    line = 0  # length of the line still open at the end of the last chunk
    header = None  # length of the first line, once it has ended
    ink = 0  # characters that are not line ends
    while chunk := fh.read(size):
        if '"' in chunk:
            return False
        ends = chunk.count("\n")
        ink += len(chunk) - ends
        if ends:
            first = line + chunk.index("\n")
            if first > limit:
                return False
            if header is None:
                header = first
            line = len(chunk) - chunk.rindex("\n") - 1
        else:
            line += len(chunk)
            if line > limit:
                return False
    return header is not None and ink > header
