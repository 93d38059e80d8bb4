"""Exact vectorized ``repr`` of float64 values, for the sample CSV writer.

:func:`format_rows` returns for a block of float64 rows exactly the text
``"\\n".join(",".join(map(repr, row)) for row in block.tolist())``, in
about a third of the time of calling ``repr`` on every value.  Each value
goes through five steps:

1. Scale.  With |x| = mf * 2^e (mf in [1, 2)) and k = 17 - floor(log10 |x|),
   V = |x| * 10^k lies in about [1e17, 1e18).  It is computed as a
   double-double: Dekker's exact product of mf with the table entry
   10^k = (hi + lo) * 2^f (hi in [1, 2)), whose split halves the table
   stores, times the power of two 2^(e + f).  The table is built once from
   exact integer arithmetic, and every intermediate is near 1 or near V, so
   nothing overflows or underflows.
2. Interval.  The values that round to x lie within half the spacing of
   doubles on either side of it (a quarter below a power of two).  Scaled
   the same way, the interval reaches at least 5.5 on either side of V.
3. Digits.  repr prints the multiple of 10^p nearest V inside the interval,
   for the largest p that has one.  The interval is wider than 10, so p = 1
   always has one, and a multiple of 10^(p + 1) is one of 10^p.  p = 1 and
   2 are tried on every value, in floats relative to V rounded down to a
   multiple of 100.  The interval is narrower than 223, so it holds at most
   one multiple of 1000; only the values that have one are iterated, to
   count the trailing zeros that give p >= 3.
4. Layout.  A shape is the sign, the position of the decimal point (or the
   exponent width) and the digit count.  Every value of one shape is laid
   out by one cached list of columns of its row of source characters.
5. Fallback.  The double-double error is about 1e-13 at V ~ 1e18.  A value
   that the kernel cannot decide with a margin of TOL = 1e-6 (a tie between
   two candidates, or an interval end within TOL of a candidate) goes to
   ``repr`` itself, as does every zero, non-finite or subnormal value.
"""

from __future__ import annotations

import functools

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
_UPPER_26 = ~np.uint64((1 << 27) - 1)  # the top 26 of the 53 significant bits
_HI1, _HI2, _LO, _F = _pow10_table()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_LOG10_2 = 0.30102999566398120
TOL = 1e-6


def _shortest(x):
    """repr's digits of every finite normal value of x.

    Returns (digits, count, decpt, fallback): repr prints |x| as the integer
    ``digits``, of ``count`` digits, times 10^(decpt - count), wherever
    ``fallback`` is False.
    """
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    mantissa = bits & _MANTISSA
    fallback = (biased == 0) | (biased == 0x7FF)
    biased[fallback] = 1023  # keeps their arithmetic finite; repr formats them
    e = biased - 1023
    mf = (mantissa | np.uint64(1023 << 52)).view(np.float64)
    # floor(log10 |x|) may be one off within about 1e-13 of a power of ten;
    # V is then just below 1e17 or just above 1e18, which every step allows
    k = 17 - np.floor(np.log10(mf) + e * _LOG10_2).astype(np.int64)
    i = k - _K_MIN
    # step 1: V = mf * (hi + lo) * scale, the product mf * hi exact
    scale = ((e + _F[i] + 1023) << 52).view(np.float64)
    hi1, hi2 = _HI1[i], _HI2[i]
    hi = hi1 + hi2
    mf1 = (mf.view(np.uint64) & _UPPER_26).view(np.float64)
    mf2 = mf - mf1
    prod = mf * hi
    err = ((mf1 * hi1 - prod) + mf1 * hi2 + mf2 * hi1) + mf2 * hi2 + mf * _LO[i]
    v = (prod * scale).astype(np.int64)  # an integer, since V > 2^53
    # V = 100 q + r with r in [0, 100)
    q = v // 100
    r = (v - 100 * q) + err * scale
    carry = np.floor(r * 0.01)
    q += carry.astype(np.int64)
    r -= 100.0 * carry
    # step 2: the interval [V - below, V + above]; lo would add about 1e-14
    above = hi * scale * 2.0**-53
    below = np.where((mantissa == 0) & (biased > 1), 0.5 * above, above)
    lower, upper = r - below, r + above
    # step 3, p = 1 and 2: the nearest multiples of 10 and 100 in the interval,
    # in floats relative to 100 q
    tens = r * 0.1
    units1 = np.minimum(np.maximum(np.round(tens), np.ceil(lower * 0.1)), np.floor(upper * 0.1))
    first, last = np.ceil(lower * 0.01), np.floor(upper * 0.01)
    units2 = np.minimum(np.maximum(np.round(r * 0.01), first), last)
    two = first <= last
    # an end near a multiple of 10 matters where p = 1; where p >= 2 only one
    # near a multiple of 100 does, which is near one of 10 as well
    near = np.zeros(x.size, dtype=bool)
    for end in (lower, upper):
        near |= np.abs(end * 0.1 - np.round(end * 0.1)) < 0.1 * TOL
    check = np.flatnonzero(near & two)
    near[check] = False
    for end in (lower[check], upper[check]):
        near[check] |= np.abs(end * 0.01 - np.round(end * 0.01)) < 0.01 * TOL
    fallback |= near
    # p >= 3: the interval, narrower than 223, holds at most one multiple of
    # 1000 and so no tie; p is 2 plus the trailing zeros of that multiple
    hundreds = q + first.astype(np.int64)  # the lowest multiple of 100 inside, / 100
    thousands = -(-hundreds // 10)
    three = two & (10 * thousands <= q + last.astype(np.int64))
    tie1 = (np.abs(tens - np.floor(tens) - 0.5) < 0.1 * TOL) & (below > 5.0) & (above > 5.0)
    tie2 = (np.abs(r - 50.0) < TOL) & (below > 50.0) & (above > 50.0)
    fallback |= (two & tie2 & ~three) | (~two & tie1)
    p = 1 + two + three
    digits = np.where(two, q + units2.astype(np.int64), 10 * q + units1.astype(np.int64))
    digits[three] = thousands[three]
    live = np.flatnonzero(three)
    while live.size:
        quot, rem = np.divmod(digits[live], 10)
        live = live[rem == 0]
        digits[live] = quot[rem == 0]
        p[live] += 1
    whole = digits * _POW10[p]
    places = 17 + (whole >= _POW10[17]) + (whole >= _POW10[18])
    return digits, places - p, places - k, fallback


# digits right-aligned in bytes 0..19 of a value's 32-byte source row (four
# per word), its exponent as "0ddd" in 20..23, then "-.0e", the exponent's
# sign and the separator that follows the value in the text
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype=np.uint32)
_CONSTANTS = np.frombuffer(b"-.0e", dtype=np.uint32)[0]
_MINUS, _POINT, _ZERO, _E, _EXP_SIGN, _SEP = 24, 25, 26, 27, 28, 29
_FORMS = 22  # decpt = -3..16 printed positionally, then exponents of 2 and 3 digits


@functools.lru_cache(maxsize=None)
def _columns(shape: int) -> np.ndarray:
    """Source columns of one shape's text, separator included."""
    negative, rest = divmod(shape, _FORMS * 17)
    form, count = divmod(rest, 17)
    count += 1
    digit = list(range(20 - count, 20))
    cols = [_MINUS] if negative else []
    if form < 20:
        decpt = form - 3
        if decpt <= 0:
            cols += [_ZERO, _POINT] + [_ZERO] * -decpt + digit
        elif decpt < count:
            cols += digit[:decpt] + [_POINT] + digit[decpt:]
        else:
            cols += digit + [_ZERO] * (decpt - count) + [_POINT, _ZERO]
    else:
        cols += digit[:1] + ([_POINT] + digit[1:] if count > 1 else [])
        cols += [_E, _EXP_SIGN] + list(range(24 - (form - 18), 24))
    return np.array(cols + [_SEP], dtype=np.intp)


# values formatted at a time: a chunk's temporaries of 2^13 doubles (64 KB)
# stay under glibc's 128 KB mmap threshold, so they reuse heap memory.  Chunks
# of 2^16 values map and unmap theirs anew: writing the golden PP samples at
# n = 500, 1000 in one process took 26,900 page faults and 0.07 s system time
# that way, against 330 and 0.02 s (2 vCPUs, numpy 2.4.6)
_CHUNK_VALUES = 2**13


def format_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float block as repr'd values, comma-separated, one
    line per row, without a final newline."""
    step = max(1, _CHUNK_VALUES // block.shape[1])
    return "\n".join(_format_chunk(block[a:a + step]) for a in range(0, block.shape[0], step))


def _format_chunk(block: np.ndarray) -> str:
    width = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, count, decpt, fallback = _shortest(x)
    exp = decpt - 1
    groups = np.empty((6, x.size), dtype=np.int64)  # 4-digit groups, then the exponent
    for i, scale in enumerate((10**16, 10**12, 10**8, 10**4)):  # np.divmod is slower
        groups[i] = digits // scale
        digits = digits - groups[i] * scale
    groups[4] = digits
    groups[5] = np.abs(exp)
    src = np.empty((x.size, 8), dtype=np.uint32)
    src[:, :6] = _DIGITS4.take(groups).T
    src[:, 6] = _CONSTANTS
    src[:, 7] = 0
    chars = src.view(np.uint8)
    chars[:, _EXP_SIGN] = np.where(exp < 0, ord("-"), ord("+"))
    chars[:, _SEP] = ord(",")
    chars[width - 1::width, _SEP] = ord("\n")
    # step 4: one gather per shape, over the values sorted by shape (a stable
    # sort, which numpy does by radix on int16)
    form = np.where((decpt > -4) & (decpt <= 16), decpt + 3, np.where(np.abs(exp) < 100, 20, 21))
    shape = ((np.signbit(x) * _FORMS + form) * 17 + count - 1).astype(np.int16)
    shape[fallback] = -1
    order = np.argsort(shape, kind="stable")
    shape = shape[order]
    sorted_chars = src.view(np.uint64).take(order, axis=0).view(np.uint8)
    text = np.zeros((x.size, 32), dtype=np.uint8)
    cuts = [0, *(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), x.size]
    for a, b, kind in zip(cuts[:-1], cuts[1:], shape[cuts[:-1]].tolist()):
        if kind >= 0:
            cols = _columns(kind)
            np.take(sorted_chars[a:b], cols, axis=1, out=text[a:b, :cols.size], mode="clip")
            continue
        for j in range(a, b):  # step 5
            value = repr(float(x[order[j]])) + chr(sorted_chars[j, _SEP])
            text[j, :len(value)] = np.frombuffer(value.encode(), dtype=np.uint8)
    rank = np.empty_like(order)
    rank[order] = np.arange(x.size)
    text = text.view(np.uint64).take(rank, axis=0).tobytes()
    return text.translate(None, b"\0")[:-1].decode("ascii")  # no separator after the last value
