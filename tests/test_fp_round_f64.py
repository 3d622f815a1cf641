"""Tests for :func:`repro.fp.simd_formats.round_f64_many`.

The float64 -> format rounding primitive is pinned to the scalar oracle
(:meth:`BinaryFormat.float_to_bits` decoded back to float64) for every
registered format: exhaustively over every finite value, every midpoint
between neighbouring values and both float64 neighbours of each midpoint,
the normal/subnormal boundary and the overflow threshold, plus the special
values and a hypothesis property over arbitrary float64 inputs.  Binary16
rounds with numpy's native cast, so the format-generic kernel is checked on
it separately.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FORMATS, FP16
from repro.fp.simd_formats import _round_f64_generic, round_f64_many
from repro.fp.vector import quantize

FORMAT_NAMES = sorted(FORMATS)


def _oracle(value: float, fmt) -> float:
    return fmt.bits_to_float(fmt.float_to_bits(float(value)))


def _assert_same(got: np.ndarray, want: np.ndarray, inputs: np.ndarray) -> None:
    """Bit-for-bit float64 equality, any NaN matching any NaN."""
    same = (got.view(np.uint64) == want.view(np.uint64)) | (
        np.isnan(got) & np.isnan(want)
    )
    if not same.all():
        bad = np.flatnonzero(~same)[:5]
        raise AssertionError(
            f"{bad.size} mismatches, e.g. inputs {inputs[bad].tolist()} -> "
            f"{got[bad].tolist()} (want {want[bad].tolist()})"
        )


def _special_values(fmt) -> np.ndarray:
    max_finite = fmt.max_finite_value
    half_ulp = 2.0 ** (fmt.emax - fmt.man_bits - 1)
    tiny = 2.0 ** fmt.emin
    nan_payloads = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
         0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64)
    values = [
        0.0, math.inf, max_finite, max_finite + half_ulp,
        np.nextafter(max_finite + half_ulp, 0.0), max_finite + 2 * half_ulp,
        tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, math.inf),
        2.0 ** fmt.subnormal_exp / 2, 1e300, 5e-324, np.finfo(np.float64).max,
    ]
    values = np.array(values, dtype=np.float64)
    return np.concatenate([values, -values, nan_payloads])


@lru_cache(maxsize=None)
def _exhaustive_case(name: str):
    """Every finite value, each midpoint with its float64 neighbours, the
    boundaries and specials -- with the scalar oracle's answer for each."""
    fmt = FORMATS[name]
    finite = np.unique([
        fmt.bits_to_float(bits) for bits in range(1 << fmt.storage_bits)
        if fmt.is_finite(bits)
    ])
    midpoints = (finite[1:] + finite[:-1]) / 2
    inputs = np.concatenate([
        finite,
        midpoints,
        np.nextafter(midpoints, math.inf),
        np.nextafter(midpoints, -math.inf),
        _special_values(fmt),
    ])
    want = np.array([_oracle(v, fmt) for v in inputs], dtype=np.float64)
    return inputs, want


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_exhaustive_against_scalar_oracle(name):
    inputs, want = _exhaustive_case(name)
    _assert_same(round_f64_many(inputs, FORMATS[name]), want, inputs)


def test_generic_kernel_matches_oracle_on_binary16():
    """The increment-and-mask kernel is format-generic; binary16 normally
    takes the native cast, so check the generic path on it too."""
    inputs, want = _exhaustive_case(FP16.name)
    _assert_same(_round_f64_generic(inputs, FP16), want, inputs)


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_boundaries(name):
    fmt = FORMATS[name]
    max_finite = fmt.max_finite_value
    half_ulp = 2.0 ** (fmt.emax - fmt.man_bits - 1)
    tiny = 2.0 ** fmt.emin
    threshold = max_finite + half_ulp
    got = round_f64_many(
        [threshold, np.nextafter(threshold, 0.0), -threshold, tiny,
         np.nextafter(tiny, 0.0), -0.0, 0.0, math.inf, -math.inf, math.nan],
        fmt,
    )
    assert got[0] == math.inf
    assert got[1] == max_finite
    assert got[2] == -math.inf
    assert got[3] == tiny
    # Just below the smallest normal rounds up into it (RNE).
    assert got[4] == tiny
    assert math.copysign(1.0, got[5]) == -1.0 and got[5] == 0.0
    assert math.copysign(1.0, got[6]) == 1.0 and got[6] == 0.0
    assert got[7] == math.inf and got[8] == -math.inf
    assert math.isnan(got[9])


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_shape_and_scalar_inputs(name):
    fmt = FORMATS[name]
    grid = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    rounded = round_f64_many(grid[:, ::2, :], fmt)
    assert rounded.shape == (2, 2, 4) and rounded.dtype == np.float64
    want = np.array([_oracle(v, fmt) for v in grid[:, ::2, :].ravel()])
    _assert_same(rounded.ravel(), want, grid[:, ::2, :].ravel())
    assert round_f64_many(1.1, fmt) == _oracle(1.1, fmt)
    assert round_f64_many([], fmt).shape == (0,)


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_quantize_is_round_f64_many(name):
    inputs, want = _exhaustive_case(name)
    _assert_same(quantize(inputs, name), want, inputs)


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FORMAT_NAMES),
       values=st.lists(any_float, min_size=1, max_size=16),
       scale_exp=st.integers(min_value=-160, max_value=140))
def test_random_float64_matches_scalar_oracle(name, values, scale_exp):
    """Arbitrary float64 inputs, also scaled into the format's range so
    subnormal, normal and overflowing magnitudes all get drawn."""
    fmt = FORMATS[name]
    inputs = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        inputs = np.concatenate([inputs, np.ldexp(inputs, scale_exp)])
    want = np.array([_oracle(v, fmt) for v in inputs], dtype=np.float64)
    _assert_same(round_f64_many(inputs, fmt), want, inputs)
    _assert_same(_round_f64_generic(inputs, fmt), want, inputs)
