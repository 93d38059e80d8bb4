"""Compare the sample writer's float kernel with ``repr`` on random doubles.

    python3 scripts/repr_sweep.py [--values 10000000] [--seed 1]

Draws the values in bands of |x|, each double in a band about equally likely
per binary exponent, with a random sign and mantissa, plus one band of
random 64-bit patterns (NaN, inf and subnormals included).  Each band is
formatted in blocks of 256 x 256 values by
``circfreg.floatfmt.format_rows`` and compared value by value with
``repr``.  Prints, per band, the values drawn, the mismatches (which must be
0) and the share of values the kernel hands to ``repr`` itself.  Exits 1 on
any mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from circfreg.floatfmt import _shortest, format_rows  # noqa: E402

# decimal exponent ranges [a, b): 10^a <= |x| < 10^b
BANDS = ((-324, -308), (-308, -200), (-200, -100), (-100, -20), (-20, -5), (-5, 0),
         (0, 16), (16, 23), (23, 100), (100, 200), (200, 309))
BLOCK = (256, 256)


def _band_bits(rng, size, band):
    """Random doubles with |x| in [10^a, 10^b), one binary exponent as likely as another."""
    a, b = band
    lo = max(math.floor(a * math.log2(10)), -1075)
    hi = min(math.ceil(b * math.log2(10)), 1024)
    x = np.empty(0)
    while x.size < size:
        e2 = rng.integers(lo, hi, size)  # |x| in [2^e2, 2^(e2 + 1))
        biased = np.maximum(e2 + 1023, 0).astype(np.uint64)
        bits = (biased << np.uint64(52)) | rng.integers(0, 2**52, size, dtype=np.uint64)
        bits |= rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
        y = bits.view(np.float64)
        with np.errstate(divide="ignore"):
            mag = np.log10(np.abs(y))
        x = np.concatenate((x, y[(mag >= a) & (mag < b) & (y != 0.0)]))
    return x[:size]


def _compare(x):
    """(mismatches, values left to repr) over x, in blocks of BLOCK values."""
    bad = fallback = 0
    step = BLOCK[0] * BLOCK[1]
    for start in range(0, x.size - step + 1, step):
        block = x[start:start + step]
        text = format_rows(block.reshape(BLOCK)).replace("\n", ",").split(",")
        bad += sum(a != b for a, b in zip(text, map(repr, block.tolist())))
        bad += len(text) != step
        fallback += int(_shortest(block)[2].sum())
    return bad, fallback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10**7,
                        help="values in all bands together (default 10^7)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    step = BLOCK[0] * BLOCK[1]
    per_band = -(-args.values // ((len(BANDS) + 1) * step)) * step  # at least --values in all
    print(f"{'band':<28}{'values':>10}{'mismatches':>12}{'to repr':>10}")
    total = total_bad = 0
    bands = [(f"1e{a} <= |x| < 1e{b}", _band_bits(rng, per_band, (a, b))) for a, b in BANDS]
    bands.append(("random bit patterns",
                  rng.integers(0, 2**64, per_band, dtype=np.uint64).view(np.float64)))
    for name, x in bands:
        bad, fallback = _compare(x)
        total, total_bad = total + x.size, total_bad + bad
        print(f"{name:<28}{x.size:>10}{bad:>12}{fallback / x.size:>10.2%}")
    print(f"{'all':<28}{total:>10}{total_bad:>12}")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
