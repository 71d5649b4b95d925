"""JSON and CSV document formats used by the CLI and reusable directly.

Rationals travel as decimal-integer or "p/q" strings so files round-trip
exactly, at any length and whatever sys.int_max_str_digits is set to; parse
failures name the offending position in the document.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
from typing import TYPE_CHECKING

from .algebra import Poly, Rational, Series, _rational_parts, _rational_text, _text_int
from .errors import DomainError, FormatError, OutOfRange
from .transforms import PiecewisePoly, RatioExpansion, sin_maclaurin, step_example

if TYPE_CHECKING:
    import numpy as np

    from .auction import AuctionModel, DistSpec
    from .identify import IdentifyResult


def parse_rational(value, where: str) -> Rational:
    """Parse a JSON value holding a rational: an integer or a 'p/q' string."""
    if isinstance(value, str):
        parts = _rational_parts(value)
        if parts is None:
            raise FormatError(
                f"{where}: malformed rational {value!r} (use an integer or 'p/q')"
            )
        if not parts[1]:
            raise FormatError(f"{where}: zero denominator in {value!r}")
        return Rational(*parts)
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Rational(value)
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
    """parse_rational of each entry of a JSON list.  The entry's label
    where[i] is built only to word a FormatError, by parsing again."""
    if not isinstance(values, list):
        raise FormatError(f"{where}: expected a list")
    try:
        return [parse_rational(v, where) for v in values]
    except FormatError:
        for i, v in enumerate(values):
            parse_rational(v, f"{where}[{i}]")
        raise


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
    """The JSON document at path, read once as bytes, so a pipe works too,
    and decoded as a UTF-8 text file with universal newlines."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), parse_int=_text_int)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc


def _not_utf8(path, data: bytes) -> FormatError:
    """FormatError at the line of the first byte that is not UTF-8 in data,
    the bytes read from path.  A text reader decodes chunk by chunk, so the
    error's own offset counts from its chunk; data is decoded whole to
    place it."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}:{line}: not UTF-8 text: {exc.reason}")
    return FormatError(f"{path}: not UTF-8 text")


# rows per write of save_samples: the encoder's scratch, about 500 bytes a
# row, peaks at 0.6 times a 100 000-row table's bytes at 2048 rows (2.4 at
# 8192), inside the tracemalloc bound of twice the table that
# tests/test_fileformats.py holds save to
SAVE_BLOCK_ROWS = 2048
# bytes per read of load_samples' vectorized reader: about 2048 rows of the
# 40-byte lines save_samples writes for 17-digit cells
LOAD_BLOCK_BYTES = 80 * 1024


def save_samples(path, table: np.ndarray) -> None:
    """Write a (rows, 2) sample table as CSV with header top,second and
    CRLF line ends, as csv.writer does; floats use shortest round-trip
    decimal form (repr), which never needs quoting.  The bytes of each
    block of SAVE_BLOCK_ROWS rows come from a vectorized shortest
    round-trip encoder (Ryu digits in numpy lanes, laid out as repr lays
    them out), one write per block, and are those of one csv.writer row
    of repr cells per line.

    Before the file is opened, a table numpy cannot turn into doubles, one
    of another shape and one with no rows raise DomainError, and a
    non-finite bid OutOfRange: load_samples would refuse each."""
    import numpy as np

    try:
        table = np.asarray(table)
        if table.dtype.kind == "c":  # the cast would drop the imaginary parts
            raise TypeError("complex values")
        table = np.ascontiguousarray(table, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"sample table is not a table of doubles: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 2:
        raise DomainError(f"expected a (rows, 2) sample table, got shape {table.shape}")
    if not len(table):
        raise DomainError("sample table has no rows")
    if not np.isfinite(table).all():
        raise OutOfRange("sample table holds a non-finite bid")
    from ._ryu import lines

    with open(path, "wb") as fh:
        fh.write(b"top,second\r\n")
        for block in lines(table, SAVE_BLOCK_ROWS):
            fh.write(block)


def load_samples(path) -> np.ndarray:
    """Read a table written by save_samples; blank lines are skipped, and a
    malformed or non-finite cell raises FormatError naming path:line.

    The path is opened once, so a pipe works too: it is read whole first.
    Two readers run, the second only where the first declines.  A
    vectorized reader takes the file LOAD_BLOCK_BYTES at a time while it
    holds the header top,second and lines of two cells of the grammar
    [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, each within csv.field_size_limit()
    and finite, with LF or CR LF line ends; it rounds each cell as float()
    does (Eisel-Lemire on numpy lanes, float() itself where that cannot
    decide).  Any other file goes to the csv module, from its start: it
    alone reads quoted cells, padded cells and blank lines, and words
    every FormatError.  The arrays, the accepted files and the messages
    are the csv module's."""
    import csv

    import numpy as np

    from ._eisel_lemire import read

    try:
        with open(path, "rb") as raw:
            info = os.fstat(raw.fileno())
            if stat.S_ISREG(info.st_mode):
                fh, size = raw, info.st_size
            else:
                data = raw.read()
                fh, size = io.BytesIO(data), len(data)
            table = read(fh, size, csv.field_size_limit(), LOAD_BLOCK_BYTES)
            if table is not None:
                return table
            if fh is raw:
                raw.seek(0)
                data = raw.read()
        with io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8") as fh:
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
        raise _not_utf8(path, data) from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not values:
        raise FormatError(f"{path}: no sample rows")
    return np.array(values).reshape(-1, 2)
