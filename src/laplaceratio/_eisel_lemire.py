"""Decimal text to doubles, vectorized: the values of float().

load_samples alone imports this module.  read(fh, size, limit,
block_bytes) reads a sample table from a binary file at its start and
returns it as a (rows, 2) float64 array, or None where the file leaves
the strict form below, so that load_samples' csv loop decides.

The form: the header line "top,second", then lines of two cells of the
grammar [+-]?(d+(\\.d*)?|\\.d+)([eE][+-]?d+)?, each line ending in LF or
CR LF, the last one maybe in neither; no cell is longer than the csv
field limit, and every value is finite.  A file of that form is one the
csv loop accepts, with the same values, so this reader returns the csv
loop's table or nothing.

The file is read block_bytes at a time into one buffer; the part line at
a block's end moves to the buffer's front, before the next read.  Every
byte that is not a digit is a mark: the comma and line ends, the sign,
the point and the exponent's e.  One pass finds the marks, and each
cell's structure comes from its marks alone.  Where every line of a
block reads point, comma, point and its line end, the form save_samples
writes for positive values in positional form, the marks' positions give
the cells at once; any other block takes a general pass over its marks.

A cell's mantissa takes three lanes: its integer digits, as the 8 bytes
that end at the point, and its fraction, as the 8 bytes that end where
the mantissa ends and the 8 before those.  Bytes outside the digit run
are masked to zero, and each lane's 8 digits are combined by SWAR
(fast_float's parse_eight_digits).  With at most 8 integer digits, 16
fraction digits and 19 in all, the mantissa is an integer w < 10**19 and
the value w * 10**q, q the exponent less the fraction's digits.  A cell
with an exponent takes a fourth lane for it, on those cells alone.

w * 10**q is rounded by Eisel-Lemire (Lemire, "Number parsing at a
gigabyte per second", Software: Practice and Experience 51 (2021) 1700):
w, normalized to 64 bits, times a 128-bit truncation of 5**q, gives the
double's 54 leading bits with their exponent from q alone.  Lanes this
cannot decide take float() of the cell's bytes, the reference parser: a
product whose low word is all ones, a subnormal result, a value past the
double range, more digits than the lanes hold and an exponent of more
than 8 digits.

Every operation on uint64 lanes takes np.uint64 operands only: numpy 1.x
promotes uint64 with int64 to float64, which would lose digits silently.
"""

from __future__ import annotations

import functools
import math

import numpy as np

U = np.uint64
_PAD = 16  # bytes before the buffer's data, so every lane's word lies inside it
_ZEROS = U(0x3030303030303030)
_POW10 = np.array([10**k for k in range(20)], dtype=U)
# the last n bytes of a little-endian word, for n = 0..8
_KEEP = np.array([((1 << 64) - 1) ^ ((1 << (64 - 8 * n)) - 1) for n in range(9)], dtype=U)
_LO32 = U(0xFFFFFFFF)
_PAIRS = U(0x000000FF000000FF)
_Q_MIN, _Q_MAX = -342, 308  # w * 10**q < 2**-1075 below, past the double range above


@functools.cache
def _powers_of_five():
    """Per q = -342..308: the 128-bit truncation of 5**q as (high, low)
    words, 5**q with its leading bit moved to bit 127 for q >= 0 and
    floor(2**b / 5**-q) + 1 cut to 128 bits for q < 0, as fast_float's
    table has them; and floor(q * log2(10)) + 1085, the biased exponent,
    less one, of 10**q times a normalized w, before its own leading bit
    and leading zeros."""
    values = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        if q < 0:
            z = p.bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
        else:
            c = p << 128
        values.append(c >> (c.bit_length() - 128))
    words = np.frombuffer(b"".join(c.to_bytes(16, "little") for c in values), "<u8").astype(U)
    q = np.arange(_Q_MIN, _Q_MAX + 1, dtype=np.int64)
    tables = words[1::2].copy(), words[0::2].copy(), ((q * 217706) >> 16) + 1085
    for t in tables:
        t.flags.writeable = False
    return tables


def _swar(v):
    """The integer of the 8 decimal digits of each lane, digit values 0..9
    in its bytes, the first in the low byte, in place (fast_float's
    parse_eight_digits_unrolled)."""
    t = v >> U(8)
    v *= U(10)
    v += t
    np.right_shift(v, U(16), out=t)
    t &= _PAIRS
    t *= U(1 + (10000 << 32))
    v &= _PAIRS
    v *= U(100 + (1000000 << 32))
    v += t
    v >>= U(32)
    return v


def _mul_high(a, b):
    """The high 64 bits of a * b per lane."""
    a0 = a & _LO32
    a1 = a >> U(32)
    b0 = b & _LO32
    b1 = b >> U(32)
    mid = a0 * b0
    mid >>= U(32)
    a0 *= b1  # a0 * b1
    b0 *= a1  # a1 * b0
    a1 *= b1  # a1 * b1, the high product
    for part in a0, b0:
        mid += part & _LO32
        part >>= U(32)
        a1 += part
    mid >>= U(32)
    a1 += mid
    return a1


def _nearest(w, q):
    """(bits, undecided) per lane: the bit pattern of the positive double
    nearest w * 10**q, for 0 <= w < 2**64 and any q, and the lanes whose
    bits this cannot decide, those past the double range among them."""
    high, low, scale = _powers_of_five()
    zero = w == U(0)
    undecided = np.zeros(len(w), dtype=bool)
    if q.min() < _Q_MIN or q.max() > _Q_MAX:
        zero |= q < _Q_MIN
        undecided |= q > _Q_MAX
        q = np.clip(q, _Q_MIN, _Q_MAX)
    # the leading zeros of w, from its double, one less where that rounded up
    lz = w.astype(np.float64).view(U)
    lz >>= U(52)
    np.subtract(U(1086), lz, out=lz)
    w = w << lz
    fix = w >> U(63)
    fix ^= U(1)
    w <<= fix
    lz += fix
    del fix
    row = q - _Q_MIN
    t = high.take(row)
    hi = _mul_high(w, t)
    lo = w * t
    del t
    # the power's low word can carry into the product's 55 leading bits
    # only where the 9 bits below them are all ones
    lanes = np.flatnonzero((hi & U(0x1FF)) == U(0x1FF))
    if len(lanes):
        extra = _mul_high(w[lanes], low.take(row[lanes]))
        sum_lo = lo[lanes] + extra
        hi[lanes] += (sum_lo < extra).astype(U)
        lo[lanes] = sum_lo
    del w
    upper = hi >> U(63)
    shift = upper + U(9)
    mant = hi >> shift
    power2 = scale.take(row)
    power2 += upper.view(np.int64)
    power2 -= lz.view(np.int64)
    del row, upper, lz
    undecided |= power2 < 0  # a subnormal
    lanes = np.flatnonzero(lo + U(1) <= U(2))
    if len(lanes):
        ql = q[lanes]
        m = mant[lanes]
        # an all-ones low word, where 5**q is not exact in the 128 bits
        undecided[lanes[(lo[lanes] == U((1 << 64) - 1)) & ((ql < -27) | (ql > 55))]] = True
        # halfway between two doubles, where 5**q is exact: round to even
        tie = (lo[lanes] <= U(1)) & (ql >= -4) & (ql <= 23) & ((m & U(3)) == U(1))
        tie &= (m << shift[lanes]) == hi[lanes]
        mant[lanes[tie]] -= U(1)
    del hi, lo, shift
    mant += mant & U(1)
    mant >>= U(1)
    # past the range where the exponent, after a carry out of the mantissa,
    # reaches 2047
    undecided |= power2 + (mant >> U(53)).view(np.int64) >= 2046
    # the mantissa's leading bit adds one to the exponent, a carry out of it
    # one more
    power2 <<= 52
    mant += power2.view(U)
    if zero.any():
        mant[zero] = U(0)
        undecided &= ~zero
    return mant, undecided


def _plain_cells(marks, chars):
    """(starts, points, ends) of the cells of a block whose every line is
    digits, a point and digits, twice, the form save_samples writes for a
    positive value in positional form; else None.  marks are the positions
    of the bytes that are not digits, chars those bytes."""
    pattern = b".,.\r\n" if chars[3:4].tobytes() == b"\r" else b".,.\n"
    rows = len(marks) // len(pattern)
    if chars.tobytes() != pattern * rows:
        return None
    m = marks.reshape(rows, len(pattern))
    if len(pattern) == 5 and (m[:, 4] - m[:, 3] != 1).any():
        return None  # a CR not before a LF
    starts = np.empty(2 * rows, dtype=marks.dtype)
    starts[0] = _PAD
    starts[1::2] = m[:, 1] + 1
    starts[2::2] = m[:-1, -1] + 1
    return starts, m[:, [0, 2]].ravel(), m[:, [1, 3]].ravel()


def _cells(marks, chars, data, words):
    """The cells of a block in any form of the grammar: (starts, firsts,
    points, mantissa ends, ends, the negative cells, the exponent cells,
    their exponents, and those of more than 8 digits), from the positions
    of the bytes that are not digits and those bytes; None where a line
    leaves the form.  A cell without a point has its
    point at its mantissa's end, and one without an exponent its
    mantissa's end at its end."""
    term = (chars == 44) | (chars == 10)
    ends = marks[term]
    # two cells a line, so no blank line: the ends read ",\n" per line
    if chars[term].tobytes() != b",\n" * (len(ends) // 2):
        return None
    starts = np.empty_like(ends)
    starts[0] = _PAD
    starts[1:] = ends[:-1] + 1
    crlf = data[ends[1::2] - 1] == 13
    ends[1::2] -= crlf
    other = ~term
    other &= chars != 13
    if len(chars) - np.count_nonzero(other) != len(ends) + np.count_nonzero(crlf):
        return None  # a CR not before a LF
    pos = marks[other]
    chars = chars[other]
    cell = np.searchsorted(ends, pos)
    dot = chars == 46
    exp = (chars | 32) == 101
    sign = (chars == 43) | (chars == 45)
    if np.count_nonzero(dot) + np.count_nonzero(exp) + np.count_nonzero(sign) != len(chars):
        return None
    mend = ends.copy()
    xcell = cell[exp]
    mend[xcell] = pos[exp]
    dcell = cell[dot]
    point = mend.copy()
    point[dcell] = pos[dot]
    if (dcell[1:] == dcell[:-1]).any() or (xcell[1:] == xcell[:-1]).any() or (point > mend).any():
        return None
    scell = cell[sign]
    spos = pos[sign]
    neg = chars[sign] == 45
    lead = spos == starts[scell]
    after = ~lead
    if not (spos[after] == mend[scell[after]] + 1).all():
        return None
    first = starts.copy()
    first[scell[lead]] += 1
    # an exponent's digits: past the e and its sign, as one lane
    xfirst = mend + 1
    xfirst[scell[after]] += 1
    xn = ends[xcell] - xfirst[xcell]
    if (xn < 1).any():
        return None
    lane = words.take(ends[xcell] - 8)
    lane ^= _ZEROS
    lane &= _KEEP[np.minimum(xn, 8)]
    e10 = _swar(lane).astype(np.int64)
    xneg = np.zeros(len(ends), dtype=bool)
    xneg[scell[after]] = neg[after]
    e10[xneg[xcell]] *= -1
    return starts, first, point, mend, ends, scell[lead][neg[lead]], xcell, e10, xcell[xn > 8]


def _block(data, words, stop, limit):
    """The cells of the whole lines in the buffer's bytes data[_PAD:stop],
    which end with a line end, as doubles in line order, or None where a
    line leaves the form; words views the buffer as a uint64 at each byte."""
    text = data[_PAD:stop]
    letters = text.max() > 57
    marks = np.flatnonzero((text < 48) | (text > 57) if letters else text < 48)
    marks += _PAD
    chars = data.take(marks)
    plain = None if letters else _plain_cells(marks, chars)
    if plain:
        starts, point, ends = plain
        first, mend = starts, ends
    else:
        cells = _cells(marks, chars, data, words)
        if cells is None:
            return None
        starts, first, point, mend, ends, neg, xcell, e10, xlong = cells
    del marks, chars
    k = point - first
    f = mend - point
    f -= 1
    np.maximum(f, 0, out=f)
    if (k + f).min() < 1 or (ends - starts).max() > limit:
        return None

    # the mantissa's lanes: the 8 bytes that end at the point, and the 8
    # that end at the mantissa's end and the 8 before those
    at = np.stack([point, mend, mend])
    at[2] -= 8
    at -= 8
    lanes = words.take(at)
    del at  # each (3, cells) array is dropped once spent, to keep the scratch small
    lanes ^= _ZEROS
    n = np.stack([k, f, f])
    n[2] -= 8
    np.maximum(n, 0, out=n)
    np.minimum(n, 8, out=n)
    mask = _KEEP.take(n)
    del n
    lanes &= mask
    del mask
    lanes = _swar(lanes)
    np.minimum(f, 19, out=f)
    w = lanes[0] * _POW10.take(f)
    w += lanes[2] * U(10**8)
    w += lanes[1]
    del lanes
    undecided = (k > 8) | (f > 16) | (k + f > 19)
    q = -f
    if not plain:
        q[xcell] += e10
        undecided[xlong] = True

    bits, more = _nearest(w, q)
    undecided |= more
    if not plain:
        bits[neg] |= U(1 << 63)
    values = bits.view(np.float64)
    for i in np.flatnonzero(undecided).tolist():
        values[i] = float(data[starts[i] : ends[i]].tobytes())
        if not math.isfinite(values[i]):
            return None
    return values


def read(fh, size, limit, block_bytes):
    """The (rows, 2) table of a sample CSV read from the binary file fh at
    its start, or None where it leaves the form this reader takes.  size,
    the file's length in bytes, sizes the table; limit is the csv field
    limit; block_bytes bounds a read, and a line longer than it is left to
    the csv loop."""
    if limit < 6 or fh.readline(13) not in (b"top,second\n", b"top,second\r\n"):
        return None
    buf = bytearray(_PAD + block_bytes + 1)
    view = memoryview(buf)
    data = np.frombuffer(buf, dtype=np.uint8)
    # the 8 bytes at each offset as a little-endian word, first byte lowest
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    out = None
    rows = 0
    held = 0  # bytes of a part line at the buffer's front
    while True:
        got = fh.readinto(view[_PAD + held : _PAD + block_bytes])
        stop = _PAD + held + got
        if got:
            cut = buf.rfind(b"\n", _PAD + held, stop) + 1
            if not cut:
                if stop == _PAD + block_bytes:
                    return None
                held += got
                continue
        elif held:
            buf[stop] = 10  # the last line, without its line end
            cut = stop = stop + 1
        else:
            break
        values = _block(data, words, cut, limit)
        if values is None:
            return None
        if out is None:
            # the table's rows from the first block's bytes a row, a tenth
            # more, so that it rarely grows
            guess = int(size * len(values) / (2 * (cut - _PAD)) * 1.1) + 16
            out = np.empty((guess, 2))
        more = len(values) // 2
        if rows + more > len(out):
            out.resize((max(rows + more, len(out) + len(out) // 4), 2), refcheck=False)
        out[rows : rows + more] = values.reshape(-1, 2)
        rows += more
        held = stop - cut
        buf[_PAD : _PAD + held] = buf[cut:stop]
        if not got:
            break
    if not rows:
        return None
    out.resize((rows, 2), refcheck=False)
    return out
