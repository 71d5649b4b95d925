"""Shortest round-trip text of doubles, vectorized: the bytes of repr.

save_samples alone imports this module.  lines(table, block_rows) yields
the CSV lines of a (rows, 2) table of finite doubles, "repr,repr\\r\\n"
per row, block by block, without building a Python float or string per
cell.

Digits come from Ryu (Adams, PLDI 2018) run on numpy uint64 lanes.  A
double 4*m2 * 2**e2 (Ryu's e2) rounds back from any value in the interval
(4*m2 - 1 - s, 4*m2 + 2) * 2**e2, s = 0 at the bottom of a binade and 1
elsewhere; each bound, times a 126-bit multiplier (2**k / 5**q or 5**i,
per IEEE exponent) and shifted right by 118 to 125 bits, gives vm, vr
and vp in a decimal scale 10**e10.  The multiplier is held as five
28-bit limbs, so a limb product is below 2**56 and a column sum of two
products and a carry stays below 2**58; the product is split once at
2**118 and then shifted by the lane's remaining 0 to 7 bits.  The
digits to drop are the largest r with vp // 10**r > vm // 10**r, found
from the digit count of vp - vm and one division, and vr // 10**r is
rounded as Ryu rounds it, round-half-even where vr's dropped digits are
exact.

The text is laid out as Python's repr lays out dtoa's digits: positional
for -4 < decpt <= 16, where the value is 0.DIGITS * 10**decpt, else
d.ddde+XX; "-" on a negative value, -0.0 included, and ".0" on an
integer.  Each cell fills a fixed 64-byte slot that holds every piece any
layout needs, the digits twice (the part before the point and the part
after), and a mask picked per cell from a table keyed by its sign, digit
count and layout keeps the bytes of its repr; one boolean index over the
block compacts the slots into the lines.

Every lane operation takes np.uint64 operands only: numpy 1.x promotes
uint64 with int64 to float64, which would lose digits silently.  Indices
are intp and only index tables.
"""

from __future__ import annotations

import functools

import numpy as np

U = np.uint64
_LIMB = U((1 << 28) - 1)
_POW10 = np.array([10**k for k in range(20)], dtype=U)
_POW5 = np.array([5**k for k in range(22)], dtype=U)
# floor(log10(2**(b - 1023))) for a double's biased exponent b, 0 below 1023
_LOG10_BY_EXPONENT = ((np.maximum(np.arange(2048) - 1023, 0) * 78913) >> 18).astype(np.intp)
_SLOT = 64  # bytes per cell
_LAYOUTS = 22  # decpt -3..16 positional, then exponent |e| < 100, |e| >= 100


@functools.cache
def _exponent_tables():
    """Per IEEE biased exponent 0..2046: the multiplier's limbs (5, 2047),
    its shift past 2**118, the decimal scale e10, and the facts Ryu's
    trailing-zero rules need."""
    ieee = np.arange(2047, dtype=np.int64)
    e2 = np.maximum(ieee, 1) - 1077
    big = e2 >= 0
    ep = np.where(big, e2, 0)
    en = np.where(big, 0, -e2)
    # q = floor(log10(2**e2)) - (e2 > 3), or floor(log10(5**-e2)) - (-e2 > 1)
    q = np.where(big, ((ep * 78913) >> 18) - (ep > 3), ((en * 732923) >> 20) - (en > 1))
    i = np.where(big, 0, en - q)

    def bits5(k):  # bit length of 5**k
        return ((k * 1217359) >> 19) + 1

    shift = np.where(big, q - ep + 124 + bits5(q), q - bits5(i) + 125) - 118
    e10 = np.where(big, q, q + e2)

    inverse = int(q[big].max()) + 1
    forward = int(i.max()) + 1
    powers = [1]
    for _ in range(max(inverse, forward)):
        powers.append(powers[-1] * 5)
    muls = [(1 << (124 + p.bit_length())) // p + 1 for p in powers[:inverse]]
    for p in powers[:forward]:
        b = p.bit_length()
        muls.append(p >> (b - 125) if b >= 125 else p << (125 - b))
    words = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in muls), "<u8").astype(U)
    lo, hi = words[0::2], words[1::2]
    limbs = np.stack([lo, lo >> U(28), (lo >> U(56)) | (hi << U(8)), hi >> U(20), hi >> U(48)])
    limbs &= _LIMB
    limbs = limbs[:, np.where(big, q, inverse + i)]

    # vr's dropped digits are exact where mv is a multiple of 2**q (e2 < 0,
    # 1 < q < 63), and always where q <= 1; a mask of all ones never holds
    tz = np.full(2047, (1 << 63) - 1, dtype=U)
    small = ~big & (q <= 1)
    mid = ~big & (q > 1) & (q < 63)
    tz[small] = U(0)
    tz[mid] = (U(1) << q[mid].astype(U)) - U(1)
    # e2 >= 0 and q <= 21: exactness by divisibility by 5**q
    five = big & (q <= 21)
    tables = (
        limbs,
        shift.astype(U),
        e10,
        tz,
        small,
        five,
        np.where(five, q, 0).astype(np.intp),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _mulshift(m, limbs, shift):
    """(m * mul) >> (118 + shift) per lane, exactly, for m < 2**55 and a
    126-bit mul in 28-bit limbs."""
    a0 = m & _LIMB
    a1 = m >> U(28)
    t = (a0 * limbs[0]) >> U(28)
    for k in range(1, 5):
        t += a0 * limbs[k]
        t += a1 * limbs[k - 1]
        if k < 4:
            t >>= U(28)
    return ((t >> U(6)) + ((a1 * limbs[4]) << U(22))) >> shift


def _digit_count_less_one(v):
    """floor(log10(v)) per lane, 0 for v = 0: from v's binary exponent,
    read off its double, and one comparison."""
    g = _LOG10_BY_EXPONENT[(v.astype(np.float64).view(U) >> U(52)).astype(np.intp)]
    return g + (v >= _POW10[g + 1])


def shortest(x):
    """(digits, e10) per lane of a float64 array of finite values: the
    shortest decimal that reads back as x, as the integer DIGITS with
    abs(x) = DIGITS * 10**e10, the digits dtoa's mode 0 and Ryu give.  A
    zero gives (0, 0)."""
    limbs, shift, e10, tz, small, five, q5 = _exponent_tables()
    bits = x.view(U) & U((1 << 63) - 1)
    zero = bits == U(0)
    bits[zero] = U(0x3FF0000000000000)  # 1.0 stands in, its digits zeroed below
    ieee = (bits >> U(52)).astype(np.intp)
    mant = bits & U((1 << 52) - 1)
    del bits  # lanes are dropped once spent, to keep a block's scratch small
    mmshift = (mant != U(0)) | (ieee <= 1)
    mv = mant | ((ieee != 0).astype(U) << U(52))
    del mant
    even = (mv & U(1)) == U(0)
    mv <<= U(2)
    mm = mv - (U(1) + mmshift.astype(U))
    lane_limbs = limbs.take(ieee, axis=1)
    lane_shift = shift[ieee]
    vr = _mulshift(mv, lane_limbs, lane_shift)
    vp = _mulshift(mv + U(2), lane_limbs, lane_shift)
    vm = _mulshift(mm, lane_limbs, lane_shift)
    del lane_limbs, lane_shift

    vr_exact = (mv & tz[ieee]) == U(0)
    small = small[ieee]
    vm_exact = small & even & mmshift
    vp -= (small & ~even).astype(U)
    lanes = np.flatnonzero(five[ieee])
    if len(lanes):
        p5 = _POW5[q5[ieee[lanes]]]
        mvl = mv[lanes]
        by5 = (mvl % U(5)) == U(0)
        ev = even[lanes]
        vr_exact[lanes] = by5 & (mvl % p5 == U(0))
        vm_exact[lanes] = ~by5 & ev & (mm[lanes] % p5 == U(0))
        vp[lanes] -= (~by5 & ~ev & ((mvl + U(2)) % p5 == U(0))).astype(U)

    # r = the largest r with vp // 10**r > vm // 10**r.  With 10**t <=
    # vp - vm < 10**(t + 1), every r <= t qualifies, and past t only a
    # multiple c of 10**(t + 1) in (vm, vp] can: r = t + 1 + the trailing
    # decimal zeros of c / 10**(t + 1).
    t = _digit_count_less_one(vp - vm)
    p = _POW10[t + 1]
    top = vp // p
    up = top > vm // p
    r = t + up
    lanes = np.flatnonzero(up & (top % U(10) == U(0)))
    top = top[lanes]
    while len(lanes):
        top //= U(10)
        r[lanes] += 1
        keep = top % U(10) == U(0)
        lanes, top = lanes[keep], top[keep]

    p = _POW10[r]
    vmq = vm // p
    # Ryu's general case: vm exact and its dropped digits zero lets the
    # trailing zeros of vm // 10**r go too
    lanes = np.flatnonzero(vm_exact)
    if len(lanes):
        vq = vmq[lanes]
        keep = vm[lanes] == vq * p[lanes]
        vm_exact[lanes] = keep
        lanes, vq = lanes[keep], vq[keep]
        while len(lanes):
            more = (vq % U(10) == U(0)) & (vq != U(0))
            lanes, vq = lanes[more], vq[more] // U(10)
            r[lanes] += 1
            vmq[lanes] = vq
        p = _POW10[r]

    out = vr // p
    rem2 = (vr - out * p) << U(1)
    half_even = (rem2 == p) & vr_exact & ((out & U(1)) == U(0))
    out += (((out == vmq) & ~(even & vm_exact)) | ((rem2 >= p) & ~half_even)).astype(U)
    out[zero] = U(0)
    scale = e10[ieee] + r
    scale[zero] = 0
    return out, scale


@functools.cache
def _layout_tables():
    """The ASCII of 0000..9999 as uint32 words; the slot mask per layout
    code; and the 8 tail bytes "e", sign, three exponent digits and the
    line's separator per (decpt + 330) * 2 + column."""
    ascii = np.arange(48, 58, dtype=np.uint8)
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quad[..., place] = ascii.reshape([10 if axis == place else 1 for axis in range(4)])
    quad = quad.view(np.uint32).ravel()

    code = np.arange(2 * 2 * _LAYOUTS * 17)
    n = code % 17 + 1
    layout = code // 17 % _LAYOUTS
    neg = code // (17 * _LAYOUTS) % 2 == 1
    second = code // (17 * _LAYOUTS * 2) == 1
    positional = layout < 20
    decpt = np.where(positional, layout - 3, 1)
    point = (decpt >= 1) & (positional | (n > 1))
    before = np.where(positional, np.maximum(decpt, 0), 1)
    through = np.where(positional, np.maximum(n, decpt + 1), n)
    k = np.arange(17)
    mask = np.zeros((len(code), _SLOT), dtype=bool)
    mask[:, 0] = neg
    mask[:, 1:3] = (positional & (decpt <= 0))[:, None]
    for z in range(3):
        mask[:, 3 + z] = positional & (decpt <= -1 - z)
    mask[:, 11:28] = k < before[:, None]
    mask[:, 28] = point
    mask[:, 35:52] = (k >= before[:, None]) & (k < through[:, None])
    mask[:, [56, 57, 59, 60]] = ~positional[:, None]
    mask[:, 58] = layout == 21
    mask[:, 61] = True
    mask[:, 62] = second

    e = np.arange(-330, 331) - 1
    tail = np.zeros((len(e), 2, 8), dtype=np.uint8)
    tail[..., 0] = ord("e")
    tail[..., 1] = np.where(e < 0, ord("-"), ord("+"))[:, None]
    for j, digit in enumerate([abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10]):
        tail[..., 2 + j] = (digit + 48)[:, None]
    tail[:, 0, 5] = ord(",")
    tail[:, 1, 5:7] = [ord("\r"), ord("\n")]
    tables = quad, mask, tail.view(U).ravel()
    for t in tables:
        t.flags.writeable = False
    return tables


def lines(table, block_rows):
    """Yield the CSV lines of a C-contiguous (rows, 2) float64 table of
    finite values, "repr,repr\\r\\n" per row, as a uint8 array per block
    of block_rows rows.

    A cell's 64-byte slot: "-" at 0, "0.000" at 1..5, the 17 digits left-
    aligned to 17 places at 11..27 (the part before the point), the point
    at 28, the same digits at 35..51 (the part after it), and the tail at
    56..63."""
    quad, masks, tails = _layout_tables()
    slots = np.zeros((2 * min(block_rows, len(table)), _SLOT), dtype=np.uint8)
    slots[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    slots[:, 28] = ord(".")
    words = slots.view(np.uint32)
    column = np.arange(len(slots)) & 1
    for start in range(0, len(table), block_rows):
        x = table[start : start + block_rows].ravel()
        cells = len(x)
        digits, e10 = shortest(x)
        n = _digit_count_less_one(digits) + 1
        decpt = e10 + n
        col = column[:cells]
        slots.view(U)[:cells, 7] = tails[(decpt + 330) * 2 + col]
        positional = (decpt > -4) & (decpt <= 16)
        layout = np.where(positional, decpt + 3, 20 + (np.abs(decpt - 1) >= 100))
        code = (col * 2 + (x.view(U) >> U(63)).astype(np.intp)) * _LAYOUTS + layout
        code = code * 17 + n - 1
        del e10, decpt, positional, layout  # a generator's locals outlive its yield
        # the digits left-aligned to 17 places, as 1 + 4 * 4 ASCII digits
        digits *= _POW10[17 - n]
        del n
        first = digits // U(10**16)
        digits -= first * U(10**16)
        hi8 = digits // U(10**8)
        digits -= hi8 * U(10**8)
        quads = [first, hi8 // U(10**4), hi8 % U(10**4), digits // U(10**4), digits % U(10**4)]
        for w, group in enumerate(quads):
            chars = quad[group.astype(np.intp)]
            words[:cells, 2 + w] = chars
            words[:cells, 8 + w] = chars
        del digits, first, hi8, quads, group, chars
        yield slots[:cells][masks[code]]
