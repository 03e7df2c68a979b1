"""The report's float writer against ``float.__repr__``, value by value.

``io_cli._float_lines`` prints a float64 array as ``repr`` prints each value,
one to a line. These cases hold over a million doubles: random bit patterns,
normal draws, decimals of 0 to 8 places, multiples of 1/8, the powers of ten
and of two with their neighbours, the switches between fixed and exponent
notation, digit carries, zeros, subnormals and the ends of the range. Each
runs once on the long-double writer and once with it switched off, where
every value goes to ``repr``.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eivreg import io_cli


def assert_writes_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = io_cli._float_lines(values)
    want = "\n".join(map(repr, values.tolist()))
    if got != want:
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ from repr, the first {bad[:10]}")


def rng(*key):
    return np.random.default_rng([20_261_020, *key])


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_random_bit_patterns(float_writer):
    bits = rng(1).integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_writes_repr(values[np.isfinite(values)])


def test_normal_draws(float_writer):
    assert_writes_repr(rng(2).normal(1.0, 2.0, 200_000))


@pytest.mark.parametrize("places", range(9))
def test_decimals_rounded_to_places(float_writer, places):
    draws = rng(3, places).normal(0.0, 1.0, 50_000) * 10.0 ** rng(4, places).integers(-3, 6, 50_000)
    assert_writes_repr(np.round(draws, places))


def test_multiples_of_an_eighth(float_writer):
    assert_writes_repr(rng(5).integers(-10**7, 10**7, 100_000) / 8)


def test_powers_of_ten_and_two_with_neighbours(float_writer):
    tens = np.array([float(f"1e{j}") for j in range(-320, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_writes_repr(neighbours(np.concatenate([tens, -tens, twos, -twos])))


def test_notation_switches_and_carries(float_writer):
    edges = [1e-4, 1e-5, 9.9999e-5, 0.00011, 1e15, 1e16, 9999999999999998.0, 1e17,
             9.5, 0.95, 99.5, 0.995, 9.999999999999999e15, 9.999999999999999e22, 1e23,
             0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-324, 2.2250738585072014e-308, 1e-291, 1e-292]
    steps = np.arange(-64, 65)
    assert_writes_repr(np.concatenate([edge + steps * np.spacing(edge) for edge in edges]))


def test_zeros_subnormals_and_the_ends_of_the_range(float_writer):
    subnormals = rng(6).integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    low = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min]
    top = [sys.float_info.max, -sys.float_info.max]
    assert_writes_repr(np.concatenate([subnormals, -subnormals, neighbours(low), top,
                                       np.nextafter(top, 0.0)]))


def test_non_finite_values_write_as_repr(float_writer):
    assert_writes_repr([np.nan, np.inf, -np.inf, 1.5, -np.nan])


def test_arrays_longer_than_one_chunk(float_writer):
    values = rng(7).normal(0.0, 10.0, 3 * io_cli._REPR_CHUNK + 5)
    values[io_cli._REPR_CHUNK - 1: io_cli._REPR_CHUNK + 1] = [1e300, -1e-300]
    assert_writes_repr(values)
    assert_writes_repr(values[:0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@example([0.0, -0.0, 5e-324, sys.float_info.max, 1e16, 9999999999999998.0, 1e-4, 9.5])
def test_any_finite_doubles(values):
    assert_writes_repr(values)


@pytest.mark.skipif(not io_cli._EXACT_LONGDOUBLE, reason="no long-double writer here")
def test_few_normal_draws_fall_back(monkeypatch):
    """Of normal draws, the long-double writer leaves well under 1% to repr."""
    left = []
    lay_out = io_cli._repr_rows

    def count(values, digits, exponent, count, fallback):
        left.append(int(np.count_nonzero(fallback)))
        return lay_out(values, digits, exponent, count, fallback)

    monkeypatch.setattr(io_cli, "_repr_rows", count)
    io_cli._float_lines(rng(8).normal(1.0, 2.0, 100_000))
    assert sum(left) < 500
