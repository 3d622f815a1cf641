"""Arithmetic strategies for the datapath simulator.

All ``L`` rows of the RedMulE array execute the same schedule on different
data, so the cycle-accurate engine processes one *row vector* (one value per
row per lane) per column per cycle.  That schedule is data-independent
(Section II-C): when each operand line moves and each FMA issues depends only
on the tile geometry, and every output element is one in-order FMA chain over
the inner dimension.  Two interchangeable strategies build on that:

* :class:`ExactVectorOps` -- vectors are lists of bit patterns and every FMA
  is evaluated with the bit-exact scalar implementation
  (:func:`repro.fp.formats.fma_bits`) as it issues.  Slow; the independent
  ground-truth oracle.
* :class:`ExactSimdVectorOps` -- the same event-stepped loop runs as a
  value-free *control plane*: every per-cycle call returns a constant token
  and does no arithmetic.  At job start one *data-plane* call
  (:func:`replay_dataplane`) computes the whole Z matrix from the operands in
  the TCDM, one guarded SIMD FMA per inner-dimension step over the full
  ``M x K`` output, and every finished tile stores its lines from that
  result.  Bit-identical to :class:`ExactVectorOps`; the default backend
  (:data:`DEFAULT_BACKEND`).

Every strategy is constructed for one element format
(:class:`~repro.fp.formats.BinaryFormat`, default binary16).  For the 8-bit
formats each 16-bit datapath slot packs ``lanes = 2`` elements along the
output (K) dimension, so a slot-level FMA broadcasts one X element against a
``lanes``-wide W slot and a ``lanes``-wide accumulator slice -- the
FPnew-style packed vectorial mode of the FP8 follow-on.  Vectors over the
array are stored flat in ``[row][lane]`` order (length ``L * lanes``); X
operand vectors stay one element per row (length ``L``).

The engine is written against the small interface below, so switching
strategy changes only the cost of simulating a cycle, never the structure of
the machine: the streamer traffic, cycle counts, stalls and TCDM writes are
the same for both.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.fp.flags import ExceptionFlags
from repro.fp.formats import FP16, BinaryFormat, fma_bits, get_format
from repro.fp.simd_formats import (
    bits_to_f64_many,
    f64_to_bits_many,
    fma_many_fmt,
    format_dtype,
)
from repro.redmule.functional import matmul_hw_order_simd_fmt

#: Datapath slot width in bits (one FPnew FMA register).
_SLOT_BITS = 16


class VectorOps(abc.ABC):
    """Arithmetic strategy of the datapath: per-cycle calls plus per-job hooks.

    The engine calls :meth:`begin_job` once per job and runs the job on the
    strategy it returns; the per-cycle methods then build, combine and
    gather the values the datapath carries, and :meth:`tile_lines` turns a
    finished tile into the Z lines it stores.
    """

    #: Strategy name used in traces, reports and the backend registry.
    name: str = "abstract"

    def __init__(self, fmt: Union[str, BinaryFormat, None] = None) -> None:
        self.fmt = get_format(fmt) if fmt is not None else FP16
        #: Elements packed per 16-bit datapath slot (1 or 2).
        self.lanes = _SLOT_BITS // self.fmt.storage_bits

    # -- per-job hooks -------------------------------------------------------
    def begin_job(self, tcdm, job) -> "VectorOps":
        """Prepare ``job`` (operands already in ``tcdm``); returns the
        strategy that runs it.  Strategies that carry values through the
        datapath have nothing to prepare."""
        return self

    @abc.abstractmethod
    def tile_lines(self, tile, columns: Sequence) -> Sequence:
        """Per-row Z pattern lines of a finished ``tile``.

        ``columns[s]`` is the datapath's result vector of output slot ``s``;
        ``lines[row]`` must hold at least ``tile.cols`` patterns.
        """

    # -- per-cycle interface ---------------------------------------------------
    @abc.abstractmethod
    def from_bits(self, bits: Sequence[int]):
        """Build an X/Y line or a vector from a sequence of patterns."""

    @abc.abstractmethod
    def zeros(self, n: int):
        """Return a vector of ``n`` positive zeros."""

    @abc.abstractmethod
    def fma(self, x_vector, w_slot, acc_vector):
        """Return ``x (*) w_slot + acc`` element-wise, rounded once per element.

        ``x_vector`` holds one element per row; ``w_slot`` is a slot operand
        (a scalar for single-lane formats, ``lanes`` values for packed ones,
        as :meth:`w_slot` returns it); ``acc_vector`` is a flat
        ``[row][lane]`` vector.  The result has the accumulator's shape.
        """

    @abc.abstractmethod
    def gather(self, lines: Sequence, offset: int):
        """Build an X vector from element ``offset`` of each per-row line."""

    @abc.abstractmethod
    def gather_slot(self, lines: Sequence, slot: int):
        """Build a flat ``[row][lane]`` vector from slot ``slot`` of each line
        (seeds the accumulators from pre-loaded Z lines)."""

    @abc.abstractmethod
    def w_slot(self, line, k: int):
        """Slot operand broadcast by a column at cycle ``k`` of its chunk."""

    @abc.abstractmethod
    def from_line(self, line):
        """Convert a raw pattern line into the strategy's W-line storage."""

    @abc.abstractmethod
    def zero_line(self, n: int):
        """A W line of ``n`` positive zeros."""


class ExactVectorOps(VectorOps):
    """Bit-exact scalar strategy: vectors are lists of bit patterns."""

    name = "exact"

    def tile_lines(self, tile, columns: Sequence) -> List[List[int]]:
        return self.to_lines(columns)

    def from_bits(self, bits: Sequence[int]) -> List[int]:
        return [int(v) for v in bits]

    def to_bits(self, vector: Sequence[int]) -> List[int]:
        """Convert a vector back to a list of bit patterns."""
        return [int(v) for v in vector]

    def zeros(self, n: int) -> List[int]:
        return [0] * n

    def fma(self, x_vector: Sequence[int], w_slot,
            acc_vector: Sequence[int]) -> List[int]:
        fmt = self.fmt
        if self.lanes == 1:
            w = int(w_slot)
            return [fma_bits(int(x), w, int(acc), fmt)
                    for x, acc in zip(x_vector, acc_vector)]
        lanes = self.lanes
        w = [int(v) for v in w_slot]
        out: List[int] = []
        for row, x in enumerate(x_vector):
            x = int(x)
            base = row * lanes
            out.extend(
                fma_bits(x, w[j], int(acc_vector[base + j]), fmt)
                for j in range(lanes)
            )
        return out

    def gather(self, lines: Sequence[Sequence[int]], offset: int) -> List[int]:
        return [int(line[offset]) for line in lines]

    def gather_slot(self, lines: Sequence[Sequence[int]], slot: int) -> List[int]:
        if self.lanes == 1:
            return self.gather(lines, slot)
        base = slot * self.lanes
        return [int(line[base + j]) for line in lines
                for j in range(self.lanes)]

    def w_slot(self, line, k: int):
        if self.lanes == 1:
            return line[k]
        return line[k * self.lanes : (k + 1) * self.lanes]

    def from_line(self, line) -> List[int]:
        return [int(v) for v in line]

    def zero_line(self, n: int) -> List[int]:
        return [0] * n

    def to_lines(self, columns: Sequence) -> List[List[int]]:
        """Transpose per-slot result vectors into per-row pattern lines.

        ``columns[s]`` is the flat ``[row][lane]`` result vector of slot
        ``s``; ``lines[row]`` collects ``columns[s][row * lanes + j]`` at
        element index ``s * lanes + j``.
        """
        lanes = self.lanes
        column_bits = [self.to_bits(c) for c in columns]
        n_rows = len(column_bits[0]) // lanes if column_bits else 0
        lines = []
        for row in range(n_rows):
            line: List[int] = []
            for bits in column_bits:
                line.extend(bits[row * lanes : (row + 1) * lanes])
            lines.append(line)
        return lines


#: What the value-free control plane carries instead of values (never
#: ``None``: the X block buffer reads ``None`` as "line not loaded").
_TOKEN = True


def _token(self, *args):
    return _TOKEN


class ExactSimdVectorOps(VectorOps):
    """Bit-exact strategy: value-free control plane, one data plane per job.

    :meth:`begin_job` computes the job's whole Z matrix with
    :func:`replay_dataplane` from the X, W (and, for accumulation jobs, Z)
    operands in the TCDM; :meth:`tile_lines` hands each finished tile its
    slice.  Every per-cycle method returns a constant token, so the engine's
    event-stepped loop tracks timing only.

    Reading every operand up front is exact as long as no Z store can reach
    a byte the job still has to read.  A job whose Z region overlaps X, W or
    its own rows breaks that, so :meth:`begin_job` hands it to the scalar
    :class:`ExactVectorOps` strategy, which reads operands as the streamer
    delivers them.
    """

    name = "exact-simd"

    def __init__(self, fmt: Union[str, BinaryFormat, None] = None) -> None:
        super().__init__(fmt)
        self._fallback = ExactVectorOps(self.fmt)
        self._z: Optional[np.ndarray] = None

    def begin_job(self, tcdm, job) -> VectorOps:
        if z_overlaps_operands(job):
            return self._fallback
        x = _read_matrix(tcdm, job.x_addr, job.m, job.n, job.x_stride, self.fmt)
        w = _read_matrix(tcdm, job.w_addr, job.n, job.k, job.w_stride, self.fmt)
        if job.accumulate:
            acc = _read_matrix(tcdm, job.z_addr, job.m, job.k, job.z_stride,
                               self.fmt)
        else:
            acc = np.zeros((job.m, job.k), dtype=format_dtype(self.fmt))
        self._z = replay_dataplane(x, w, acc, self.fmt)
        return self

    def tile_lines(self, tile, columns: Sequence) -> np.ndarray:
        return self._z[tile.m0 : tile.m0 + tile.rows,
                       tile.k0 : tile.k0 + tile.cols]

    from_bits = zeros = fma = gather = gather_slot = _token
    w_slot = from_line = zero_line = _token


def z_overlaps_operands(job) -> bool:
    """True when a Z store of ``job`` can overwrite a byte the job reads
    later: Z overlaps the X or W region, or Z rows overlap each other."""
    eb = job.element_bytes
    if job.z_stride < job.k * eb:
        return True
    z_lo = job.z_addr
    z_hi = job.z_addr + (job.m - 1) * job.z_stride + job.k * eb
    x_hi = job.x_addr + (job.m - 1) * job.x_stride + job.n * eb
    w_hi = job.w_addr + (job.n - 1) * job.w_stride + job.k * eb
    return ((z_lo < x_hi and job.x_addr < z_hi)
            or (z_lo < w_hi and job.w_addr < z_hi))


def _read_matrix(tcdm, addr: int, n_rows: int, n_cols: int, stride: int,
                 fmt: BinaryFormat) -> np.ndarray:
    """Pattern matrix of an operand whose rows are ``stride`` bytes apart
    (any byte stride), read without charging TCDM traffic."""
    row_bytes = n_cols * fmt.storage_bytes
    image = np.frombuffer(
        tcdm.dump_image(addr, (n_rows - 1) * stride + row_bytes),
        dtype=np.uint8)
    rows = np.lib.stride_tricks.as_strided(
        image, shape=(n_rows, row_bytes), strides=(stride, 1))
    dtype = np.dtype(format_dtype(fmt)).newbyteorder("<")
    return np.ascontiguousarray(rows).view(dtype)


def replay_dataplane(
    x_bits: np.ndarray,
    w_bits: np.ndarray,
    acc_bits: np.ndarray,
    fmt: BinaryFormat,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """The data plane of a job: ``acc + X . W`` in the array's FMA order.

    ``x_bits`` is ``(M, N)``, ``w_bits`` ``(N, K)`` and ``acc_bits``
    ``(M, K)`` pattern arrays.  Every output element is one chain of
    single-rounded FMAs over ``n = 0 .. N-1`` in order -- exactly the order
    the engine's chunk/column schedule consumes the inner dimension (padding
    lanes beyond ``N`` are operand-gated and leave the accumulator
    untouched) -- so the result is bit-identical to the event-stepped scalar
    datapath and to :func:`repro.redmule.functional.matmul_hw_order_exact_fmt`.

    Without ``flags`` each step runs the guarded float64 kernel over the
    whole output (lanes at double-rounding risk fall back to the integer
    kernels).  With ``flags`` every step runs the integer kernels outright
    and aggregates the IEEE exception flags -- bit-identical values,
    scalar-oracle flags.
    """
    if flags is not None:
        dtype = format_dtype(fmt)
        acc = np.array(acc_bits, dtype=dtype)
        x = np.asarray(x_bits, dtype=dtype)
        w = np.asarray(w_bits, dtype=dtype)
        for n in range(x.shape[1]):
            a = np.broadcast_to(x[:, n, None], acc.shape)
            b = np.broadcast_to(w[n, None, :], acc.shape)
            acc = fma_many_fmt(a, b, acc, fmt, flags=flags)
        return acc
    z = matmul_hw_order_simd_fmt(bits_to_f64_many(x_bits, fmt),
                                 bits_to_f64_many(w_bits, fmt), fmt,
                                 bits_to_f64_many(acc_bits, fmt))
    return f64_to_bits_many(z, fmt)


#: Registry of vector-ops strategies keyed by backend name.
VECTOR_OPS_REGISTRY: Dict[str, Callable[..., VectorOps]] = {
    ExactVectorOps.name: ExactVectorOps,
    ExactSimdVectorOps.name: ExactSimdVectorOps,
}

#: Valid backend names, in oracle-first order (CLI choices, docs).
VECTOR_OPS_BACKENDS = tuple(VECTOR_OPS_REGISTRY)

#: Backend engines, clusters and farms simulate with unless told otherwise.
DEFAULT_BACKEND = ExactSimdVectorOps.name


def backend_schedule_compiled(backend: str) -> bool:
    """Whether ``backend`` engines replay recorded cycle schedules instead of
    event-stepping them.  No backend does: both event-step every cycle."""
    validate_backend_name(backend)
    return False


def validate_backend_name(backend: str) -> str:
    """Check a backend name against the registry; returns it unchanged."""
    if backend not in VECTOR_OPS_REGISTRY:
        raise ValueError(
            f"unknown vector-ops backend {backend!r}; "
            f"available: {', '.join(VECTOR_OPS_BACKENDS)}"
        )
    return backend


def make_vector_ops(
    backend: str = DEFAULT_BACKEND,
    fmt: Union[str, BinaryFormat, None] = None,
) -> VectorOps:
    """Build the strategy registered under ``backend`` for element format ``fmt``.

    ``fmt`` defaults to binary16.
    """
    return VECTOR_OPS_REGISTRY[validate_backend_name(backend)](fmt)
