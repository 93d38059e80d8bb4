import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfreg.floatfmt import format_rows


def _reference(block) -> str:
    return "\n".join(",".join(map(repr, row)) for row in np.asarray(block).tolist())


def _edge_values() -> list:
    values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.9e-5, 1e22, 1e23,
              2.0**53 + 2, 0.1, 0.5, 1.0, 123.0, 1e15, 1e17, 1e-5, 1.5e16, 1e300, 1e-300]
    # exact ties between two shortest candidates
    values += [1e15 + 0.25, 1e15 + 0.75, 9 * 2.0**-23, 11 * 2.0**-23]
    powers = [2.0**e for e in range(-1074, 1024)]
    powers += [float(f"1e{e}") for e in range(-323, 309)]
    for v in powers:
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return values + [-v for v in values]


def test_edge_values_match_repr():
    values = _edge_values()
    values += [0.0] * (-len(values) % 8)
    block = np.array(values).reshape(-1, 8)
    assert format_rows(block) == _reference(block)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(2026).integers(0, 2**64, size=2**18, dtype=np.uint64)
    block = bits.view(np.float64).reshape(2**9, 2**9)
    assert format_rows(block) == _reference(block)


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 5), (4, 7)])
def test_block_shapes(shape):
    block = np.random.default_rng(shape[0] * 10 + shape[1]).standard_normal(shape)
    block[0, 0] = -0.0
    assert format_rows(block) == _reference(block)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_match_repr(values):
    block = np.array(values).reshape(1, -1)
    assert format_rows(block) == ",".join(map(repr, values))


def _shape(text: str) -> tuple:
    """(negative, form, digit count) of a repr: the form is decpt where the
    value prints positionally, else the exponent's sign and digit count."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    count = len((whole + fraction).strip("0"))
    if exponent:
        return text.startswith("-"), exponent[0] + str(len(exponent) - 1), count
    decpt = len(whole) if whole != "0" else len(fraction.lstrip("0")) - len(fraction)
    return text.startswith("-"), decpt, count


def _decimal_digits(count: int, trial: int) -> str:
    digits = "".join(str((3 * i + 1) % 9 + 1) for i in range(count))
    return digits if trial == 0 else digits[:-3] + f"{trial:03d}"


def test_every_layout_shape_matches_repr():
    """Both signs, every positional decpt -3..16 with every digit count 1-17,
    and exponents of 2 and 3 digits of both signs at 1 and 17 digits.  Up to
    15 digits a decimal string round-trips; at 16 and 17 the last three
    digits are varied until repr prints all of them."""
    texts = [f"0.{{}}e{decpt}" for decpt in range(-3, 17)]
    texts += [f"{{}}e{exponent}" for exponent in (-5, -99, -100, -300, 16, 99, 100, 300)]
    values, shapes = [100.0, 1000000000000000.0, 9999999999999998.0, 1e16], set()
    for text in texts:
        for count in range(1, 18) if "0." in text else (1, 17):
            for trial in range(1000):
                digits = _decimal_digits(count, trial)
                value = float(text.format(digits if "0." in text else digits[0] + "." + digits[1:]))
                if _shape(repr(value))[2] == count:
                    break
            values += [value, -value]
            shapes |= {_shape(repr(value)), _shape(repr(-value))}
    assert len(shapes) == 2 * (20 * 17 + 4 * 2)
    assert {_shape(repr(v)) for v in values[:4]} == {(False, 3, 1), (False, 16, 1), (False, 16, 16),
                                                     (False, "+2", 1)}
    block = np.array(values).reshape(-1, 2)
    assert format_rows(block) == _reference(block)
