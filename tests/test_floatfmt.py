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
