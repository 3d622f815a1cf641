"""Scalar bit-exact arithmetic backends for the structural FMA models.

The structural models (:mod:`repro.redmule.fma_unit`,
:mod:`repro.redmule.row`) issue one FMA per active unit per cycle through
this small interface:

* :class:`BitExactFp16` -- bit-exact IEEE binary16 FMA built on
  :func:`repro.fp.fma.fma16`, with selectable rounding and optional
  exception-flag tracking; its results match the silicon exactly.
* :class:`BitExactFormat` -- the same for any registered element format.

Both backends speak bit patterns, the same representation used by the
memory system, so the structural models never depend on how an FMA is
evaluated.
"""

from __future__ import annotations

import abc

from repro.fp.flags import ExceptionFlags
from repro.fp.float16 import bits_to_float, float_to_bits
from repro.fp.fma import add16, fma16, mul16
from repro.fp.rounding import RoundingMode


class Fp16Arithmetic(abc.ABC):
    """Abstract FP16 arithmetic backend (operates on 16-bit patterns)."""

    #: Human-readable backend name (used in reports and tracing).
    name: str = "abstract"

    @abc.abstractmethod
    def fma(self, a: int, b: int, c: int) -> int:
        """Return the pattern of ``a * b + c`` rounded once to binary16."""

    @abc.abstractmethod
    def mul(self, a: int, b: int) -> int:
        """Return the pattern of ``a * b`` rounded to binary16."""

    @abc.abstractmethod
    def add(self, a: int, b: int) -> int:
        """Return the pattern of ``a + b`` rounded to binary16."""

    def to_float(self, bits: int) -> float:
        """Decode a pattern into the exact float it represents."""
        return bits_to_float(bits)

    def from_float(self, value: float) -> int:
        """Encode a float into the nearest binary16 pattern (RNE)."""
        return float_to_bits(value)


class BitExactFp16(Fp16Arithmetic):
    """Reference backend: bit-exact IEEE binary16 with selectable rounding."""

    name = "bit-exact"

    def __init__(self, mode: RoundingMode = RoundingMode.RNE,
                 track_flags: bool = False) -> None:
        self.mode = mode
        #: Accumulated exception flags when ``track_flags`` is enabled.
        self.flags = ExceptionFlags() if track_flags else None

    def fma(self, a: int, b: int, c: int) -> int:
        return fma16(a, b, c, self.mode, self.flags)

    def mul(self, a: int, b: int) -> int:
        return mul16(a, b, self.mode, self.flags)

    def add(self, a: int, b: int) -> int:
        return add16(a, b, self.mode, self.flags)


class BitExactFormat(Fp16Arithmetic):
    """Bit-exact backend for any registered element format.

    Generalises :class:`BitExactFp16` to the multi-precision formats: the
    operands and results are patterns of ``fmt`` (a
    :class:`~repro.fp.formats.BinaryFormat` or its registry name), evaluated
    with the format-generic scalar kernels.  Used by the scalar structural
    models (:mod:`repro.redmule.fma_unit`, :mod:`repro.redmule.row`) to
    cross-check the vectorised datapath in every precision.
    """

    def __init__(self, fmt=None, mode: RoundingMode = RoundingMode.RNE,
                 track_flags: bool = False) -> None:
        from repro.fp.formats import FP16, get_format

        self.fmt = get_format(fmt) if fmt is not None else FP16
        self.name = f"bit-exact-{self.fmt.name}"
        self.mode = mode
        self.flags = ExceptionFlags() if track_flags else None

    def fma(self, a: int, b: int, c: int) -> int:
        from repro.fp.formats import fma_bits

        return fma_bits(a, b, c, self.fmt, self.mode, self.flags)

    def mul(self, a: int, b: int) -> int:
        from repro.fp.formats import mul_bits

        return mul_bits(a, b, self.fmt, self.mode, self.flags)

    def add(self, a: int, b: int) -> int:
        from repro.fp.formats import add_bits

        return add_bits(a, b, self.fmt, self.mode, self.flags)

    def to_float(self, bits: int) -> float:
        return self.fmt.bits_to_float(bits)

    def from_float(self, value: float) -> int:
        return self.fmt.float_to_bits(value)
