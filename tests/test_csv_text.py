"""Exactness of the whole-array CSV renderer in ``marketsel.cli``.

``cli._csv_lines`` must write exactly ``format(v, ".17g")`` for every
double, in every layout and chunking, and its longdouble shortcut must
only ever change the speed: the power-of-ten table is correctly rounded,
and with the margin widened past 0.5 every value takes the per-value
path and the text is unchanged.
"""

import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketsel import cli

LARGEST_SUBNORMAL = 2.2250738585072009e-308
SMALLEST_NORMAL = 2.2250738585072014e-308
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]


def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


PINNED = (
    [0.0, -0.0, math.inf, -math.inf, math.nan, NEGATIVE_NAN]
    + [5e-324, -5e-324, LARGEST_SUBNORMAL, SMALLEST_NORMAL]
    + [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in _neighbours(x)]
    # 17-digit roundings that carry to 10**17: the doubles nearest 1e-14
    # and 1e-305 lie below them and print as "1e-14" and "1e-305"
    + [1e-14, -1e-305, 1e98]
    # an exact tie at the 17th digit: 2251799813685247.75
    + [(2.0**53 - 1) / 4]
    # three-digit exponents
    + [1.7976931348623157e308, -2.5e-300, 1e100, 1e-100, 4.9406564584124654e-320]
    + [0.5, 1.0, 123.0, 0.1, 1.0 / 3.0, -12345678901234567.0]
)


def reference(table):
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())


def rendered(table, chunk=cli.CSV_CHUNK_VALUES):
    with mock.patch.object(cli, "CSV_CHUNK_VALUES", chunk):
        return "".join(cli._csv_lines((table,)))


def as_table(bits, columns):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = np.resize(values, -(-values.size // columns) * columns)
    return values.reshape(-1, columns)


def bits_of(values):
    return [struct.unpack("<Q", struct.pack("<d", v))[0] for v in values]


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400),
    columns=st.sampled_from([1, 2, 163]),
    chunk=st.sampled_from([1, 5, 64, 4096]),
)
@example(bits=bits_of(PINNED), columns=1, chunk=4096)
@example(bits=bits_of(PINNED), columns=2, chunk=5)
@example(bits=bits_of(PINNED), columns=163, chunk=64)
def test_matches_format_on_raw_bit_patterns(bits, columns, chunk):
    table = as_table(bits, columns)
    assert rendered(table, chunk) == reference(table)


@pytest.mark.parametrize("columns", [1, 2, 163])
def test_pinned_values_match_format(columns):
    table = as_table(bits_of(PINNED), columns)
    assert rendered(table, 7) == reference(table)


def test_every_value_falls_back_where_the_margin_passes_one_half():
    """A longdouble no wider than double gives a margin above 0.5: the
    per-value path must then render every value, with the same text."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal(3000) * 10.0 ** rng.integers(-320, 300, 3000)
    table = np.concatenate([values, PINNED]).reshape(-1, 1)
    fast = rendered(table)
    with mock.patch.object(cli, "MARGIN", 1.0):
        assert rendered(table) == fast == reference(table)


def test_powers_of_ten_are_within_half_an_ulp():
    """MARGIN counts one rounding of the power of ten, half an ulp at most."""
    q0 = 16 - cli._G17_K_MAX
    assert cli._POW10.size == cli._G17_K_MAX - cli._G17_K_MIN + 1
    for i, p in enumerate(cli._POW10):
        if not np.isfinite(p):  # a plain-double longdouble overflows; N then falls back
            continue
        exact = Fraction(10) ** (q0 + i)
        half_ulp = Fraction(*np.spacing(p).as_integer_ratio()) / 2
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= half_ulp, q0 + i
