"""Exact vectorized ``repr`` of float64 values, for the sample CSV writer.

:func:`format_rows` returns for a block of float64 rows exactly the text
``"\\n".join(",".join(map(repr, row)) for row in block.tolist())``, in a
fraction of the time of calling ``repr`` on every value.  Each value goes
through five steps:

1. Scale.  With |x| = mf * 2^e (mf in [1, 2)) and k = 17 - floor(log10 |x|),
   V = |x| * 10^k lies in about [1e17, 1e18); k comes from x's exponent and
   one comparison of mf.  V is computed as a double-double: Dekker's exact
   product of mf with 10^k = (hi + lo) * 2^f (hi in [1, 2)), whose split
   halves a table built once from exact integer arithmetic stores, times the
   power of two 2^(e + f).  Every intermediate is near 1 or near V.
2. Interval.  The values that round to x lie within half the spacing of
   doubles on either side of it, h between 5.5 and 111 once scaled.
3. Digits.  repr prints the multiple of 10^p nearest V inside the interval,
   for the largest p that has one.  With V = 1000 q + r, the multiples of
   10, 100 and 1000 nearest V are read off r in floats: the one of 10 is
   always inside, one of 100 or 1000 when it is within h of V, and no other
   multiple of 1000 can be.  The multiple, divided by 10, is repr's digits
   with trailing zeros, a 17-digit integer.
4. Layout.  A value's text is four little-endian 64-bit words of ASCII,
   built from tables without sorting or gathering bytes: the leading digit
   after the sign and any ``0.000`` prefix, the other 16 digits cut to the
   digit count with the decimal point shifted in, and the exponent or ``.0``
   tail.  One pass over the block's bytes then strips the NULs between them.
5. Fallback.  The double-double error is about 1e-13 at V ~ 1e18.  A value
   that the kernel cannot decide with a margin of TOL = 1e-6 (a tie between
   two candidates, or an interval end within TOL of a multiple of 100) goes
   to ``repr`` itself, as does every zero, non-finite, subnormal value and
   power of two, whose interval is lopsided.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["format_rows"]

# k = 17 - floor(log10 |x|) over the normal doubles, one step of slack each side
_K_MIN, _K_MAX = -292, 326


def _pow10_table():
    """10^k = (hi + lo) * 2^f for k = _K_MIN.._K_MAX: hi in [1, 2) holds the
    first 53 bits, lo the next 53, and hi is stored as Dekker's split hi1 + hi2."""
    hi, lo, f = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        e = num.bit_length() - den.bit_length()
        if num << max(-e, 0) < den << max(e, 0):
            e -= 1
        # m = round(10^k * 2^(110 - e)), an integer of 111 bits
        num, den = (num << 110 - e, den) if e <= 110 else (num, den << e - 110)
        m = (2 * num + den) // (2 * den)
        top = (m + (1 << 57)) >> 58
        hi.append(top * 2.0**-52)
        lo.append(float(m - (top << 58)) * 2.0**-110)
        f.append(e)
    hi = np.array(hi)
    hi1 = (hi.view(np.uint64) & _UPPER_26).view(np.float64)
    return hi1, hi - hi1, np.array(lo), np.array(f, dtype=np.int64)


_MANTISSA = np.uint64((1 << 52) - 1)
_ONE = np.uint64(1023 << 52)  # the exponent bits of 1.0
_UPPER_26 = ~np.uint64((1 << 27) - 1)  # the top 26 of the 53 significant bits
_LOG10_2 = 0.30102999566398120
TOL = 1e-6


def _scale_table():
    """Step 1's tables.  Per top = x's sign and exponent bits, the mf from
    which |x| >= 10^(t + 1), t = floor(log10 2^e); its relative error of
    about 1e-13 may leave V just below 1e17 or just above 1e18, which every
    step allows.  Per j = 2 top + (mf >= that), k = 17 - t - (j odd) and the
    row hi1, hi2, lo, 2^(e + f), h / 100, h / 1000 and decpt = 18 - k.
    Zeros, subnormals and non-finite values, which fall back, get 1.0's."""
    hi1, hi2, lo, f = _pow10_table()
    biased = np.arange(4096) & 0x7FF
    e = np.where((biased == 0) | (biased == 0x7FF), 0, biased - 1023)
    t = np.floor(e * _LOG10_2)
    threshold = 10.0 ** (t + 1 - e * _LOG10_2)
    k = ((17 - t.astype(np.int64))[:, None] - np.arange(2)).ravel()
    i = k - _K_MIN
    scale = np.ldexp(1.0, np.repeat(e, 2) + f[i])
    half = (hi1[i] + hi2[i]) * scale * 2.0**-53  # lo would add about 1e-14
    rows = np.column_stack((hi1[i], hi2[i], lo[i], scale, half * 0.01, half * 0.001, 18.0 - k))
    return threshold, rows


_THRESHOLD, _SCALES = _scale_table()


def _shortest(x):
    """repr's digits of every finite normal value of x that is not a power of two.

    Returns (digits, decpt, fallback): wherever ``fallback`` is False, repr
    prints |x| as 0.D * 10^decpt, D the 17 decimal digits of the integer
    ``digits`` in [10^16, 10^17) with the trailing zeros removed.
    """
    bits = x.view(np.uint64)
    top = (bits >> np.uint64(52)).view(np.int64)
    mf = ((bits & _MANTISSA) | _ONE).view(np.float64)
    j = 2 * top + (mf >= _THRESHOLD.take(top))
    hi1, hi2, lo, scale, h100, h1000, decpt = _SCALES.take(j, axis=0).T
    # step 1: V = mf * (hi + lo) * scale, the product mf * hi exact
    mf1 = ((bits & (_MANTISSA & _UPPER_26)) | _ONE).view(np.float64)
    mf2 = mf - mf1
    prod = mf * (hi1 + hi2)
    err = ((mf1 * hi1 - prod) + mf1 * hi2 + mf2 * hi1) + mf2 * hi2 + mf * lo
    v = (prod * scale).astype(np.int64)  # an integer, since V > 2^53
    q = v // 1000
    r = (v - 1000 * q) + err * scale  # V = 1000 q + r
    # steps 2 and 3: the multiples of 10, 100 and 1000 nearest V, in units of
    # each, and how far outside the interval those of 100 and 1000 are
    tens, hundreds, thousands = r * 0.1, r * 0.01, r * 0.001
    units, hundred, thousand = np.rint(tens), np.rint(hundreds), np.rint(thousands)
    off100 = np.abs(hundreds - hundred)
    out100 = off100 - h100
    out1000 = np.abs(thousands - thousand) - h1000
    two, three = out100 <= 0, out1000 <= 0
    pick = np.where(three, 100.0 * thousand, np.where(two, 10.0 * hundred, units))
    digits = 100 * q + pick.astype(np.int64)
    # step 5: zero, subnormal, inf, nan or a power of two; an end near a
    # multiple of 100 or 1000; a tie between two multiples of 100, or of 10
    fallback = (((top + 1) & 0x7FF) <= 1) | (mf == 1.0) | (np.abs(out100) < 0.01 * TOL)
    fallback |= (np.abs(out1000) < 0.001 * TOL) | two & ~three & (off100 > 0.5 - 0.01 * TOL)
    fallback |= ~two & (np.abs(tens - units) > 0.5 - 0.1 * TOL)
    decpt = decpt.astype(np.int64)
    # V just below 1e17 or from just below 1e18 up: digits has 16 or 18 digits
    odd = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    if odd.size:
        big = digits[odd] >= 10**17
        digits[odd] = np.where(big, digits[odd] // 10, digits[odd] * 10)
        decpt[odd] += np.where(big, 1, -1)
    return digits, decpt, fallback


# step 4.  A value's text is four NUL-padded words: [sign, prefix, leading
# digit] [digits 1-8] [digits 9-16] [digit shifted out, tail, separator].
# Its shape is (sign, decpt clipped to -4..17, digit count): -3..16 print
# positionally, -4 and 17 stand for the exponent forms
_ASCII4 = sum((np.arange(10000, dtype=np.uint64) // 10**(3 - b) % 10 + 48) << np.uint64(8 * b)
              for b in range(4))  # "%04d" as a little-endian word
_ZEROS = np.uint64(0x3030303030303030)
# digit count by the exponent bits of 2^64 z2 + z1, z1 and z2 digits 1-8 and
# 9-16 XOR ASCII zeros: 2 plus the index of the last nonzero byte, else 1
_COUNT = np.maximum(((np.arange(2048) - 1023) >> 3) + 2, 1).astype(np.uint64)
_EXP_RANGE = 350  # |decpt| bound of the form table
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)


def _layout_table():
    """Per shape, eight words: the prefix; the bytes of digits 1-16 kept, of
    those that move up one byte to make room for the decimal point, and the
    point itself, two words each; the tail with its separator."""
    rows = []
    for sign, decpt, count in itertools.product((b"", b"-"), range(-4, 18), range(18)):
        positional = -3 <= decpt <= 16
        at = decpt if positional else 1  # the point follows digit `at`
        prefix = sign + (b"0." + b"0" * -decpt if positional and decpt <= 0 else b"")
        kept = max(count, at, 1) - 1
        inside = 1 <= at < count
        moved = b"\0" * (at - 1) + b"\xff" * (kept - at + 1) if inside else b""
        point = b"\0" * (at - 1) + b"." if inside else b""
        tail = b".0" if positional and at >= max(count, 1) else b""
        masks = (m.ljust(16, b"\0") for m in (b"\xff" * kept, moved, point))
        rows += [prefix.rjust(7, b"\0") + b"\0", *masks, tail.rjust(7, b"\0") + b","]
    return np.frombuffer(b"".join(rows), dtype=np.uint64).reshape(-1, 8)


def _form_table():
    """By decpt + _EXP_RANGE: the first row of the decpt's shapes in the
    layout table, and the exponent tail ``e±dd[d]`` (0 where decpt is
    positional)."""
    rows = [((min(max(d, -4), 17) + 4) * 18).to_bytes(8, "little")
            + (bytes(8) if -3 <= d <= 16 else (b"e%+03d" % (d - 1)).rjust(7, b"\0") + b"\0")
            for d in range(-_EXP_RANGE, _EXP_RANGE + 1)]
    return np.frombuffer(b"".join(rows), dtype=np.uint64).reshape(-1, 2)


_LAYOUT = _layout_table()
_FORMS = _form_table()


def format_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float block as repr'd values, comma-separated, one
    line per row, without a final newline."""
    width = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, decpt, fallback = _shortest(x)
    # the leading digit, and digits 1-8 and 9-16 as two words of ASCII
    upper = digits // 10**8
    lead = upper // 10**8
    eights = np.stack((upper - lead * 10**8, digits - upper * 10**8))
    fours = eights // 10**4
    low, high = _ASCII4.take(fours) | _ASCII4.take(eights - fours * 10**4) << np.uint64(32)
    z1, z2 = ((word ^ _ZEROS).view(np.int64).astype(np.float64) for word in (low, high))
    count = _COUNT.take((z2 * 2.0**64 + z1).view(np.uint64) >> np.uint64(52))
    form, exponent = _FORMS.take(decpt + _EXP_RANGE, axis=0).T
    shape = form + count + (x.view(np.uint64) >> np.uint64(63)) * np.uint64(396)
    prefix, keep1, keep2, shift1, shift2, dot1, dot2, tail = _LAYOUT.take(shape, axis=0).T
    words = np.empty((x.size, 4), dtype=np.uint64)
    np.bitwise_or(prefix, (lead + ord("0")).view(np.uint64) << np.uint64(56), out=words[:, 0])
    # insert the point: the kept bytes from it up move one byte up, the
    # top one into the last word
    up1, up2 = low & shift1, high & shift2
    np.add((low & keep1) + up1 * np.uint64(255), dot1, out=words[:, 1])
    np.add((high & keep2) + up2 * np.uint64(255) + dot2, up1 >> np.uint64(56), out=words[:, 2])
    np.bitwise_or((up2 >> np.uint64(56)) | tail, exponent, out=words[:, 3])
    words[width - 1::width, 3] ^= _NEWLINE
    # step 5
    back = np.flatnonzero(fallback)
    if back.size:
        text = b"".join(repr(v).encode().ljust(31, b"\0") for v in x[back].tolist())
        words.view(np.uint8)[back, :31] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 31)
    # no separator after the last value
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")
