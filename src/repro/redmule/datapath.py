"""The semi-systolic FMA array (column-pipeline implementation).

All ``L`` rows of the array execute the same schedule, so the cycle-accurate
model keeps one pipeline per *column* whose entries carry a vector of ``L``
values (one per row).  An entry issued into column ``c`` at cycle ``t``
completes at ``t + P + 1`` and its result vector becomes the accumulation
input of column ``c + 1`` (or the feedback / output of the row when ``c`` is
the last column), exactly reproducing the wiring of Fig. 2b.

The datapath does not know about tiles, memory or stalls -- the engine decides
when to issue what.  It only enforces structural legality (one issue per
column per cycle, bounded pipeline depth) and hands the arithmetic to a
:class:`~repro.redmule.vector_ops.VectorOps` strategy (the engine sets the
strategy per job; a value-free one makes the pipelines carry timing only).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.redmule.config import RedMulEConfig
from repro.redmule.vector_ops import VectorOps, make_vector_ops


@dataclass
class ColumnEntry:
    """An FMA operation (for all L rows at once) in flight in one column."""

    #: Tag identifying the operation: (chunk index, k index within the tile).
    chunk: int
    k: int
    #: Result vector (evaluated at issue; the pipeline models latency only).
    values: object
    #: Remaining cycles until the result is available downstream.
    remaining: int


class Datapath:
    """``H`` column pipelines of ``L``-wide FMA vectors.

    ``vector_ops`` is the arithmetic strategy (see
    :mod:`repro.redmule.vector_ops`); it defaults to the default backend in
    the configuration's element format.
    """

    def __init__(self, config: RedMulEConfig,
                 vector_ops: Optional[VectorOps] = None) -> None:
        self.config = config
        if vector_ops is None:
            vector_ops = make_vector_ops(fmt=config.binary_format)
        self.ops = vector_ops
        self._pipes: List[Deque[ColumnEntry]] = [
            deque() for _ in range(config.height)
        ]
        self._issued_this_cycle = [False] * config.height
        #: Total column issues performed (each is ``L * lanes`` MAC lanes).
        self.column_issues = 0
        #: Total MAC lanes issued (``column_issues * L * elements_per_slot``).
        self.fma_issues = 0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while any column still has operations in flight."""
        return any(self._pipes)

    def occupancy(self, column: int) -> int:
        """Number of in-flight entries in ``column``."""
        return len(self._pipes[column])

    def tick(self) -> Dict[int, ColumnEntry]:
        """Advance one cycle.

        Returns a map ``column -> entry`` of the operations that completed
        this cycle (at most one per column).  Must be called exactly once per
        simulated cycle, before any :meth:`issue` of that cycle.
        """
        completed: Dict[int, ColumnEntry] = {}
        for column, pipe in enumerate(self._pipes):
            self._issued_this_cycle[column] = False
            for entry in pipe:
                entry.remaining -= 1
            if pipe and pipe[0].remaining == 0:
                completed[column] = pipe.popleft()
        return completed

    def _enqueue(self, column: int, chunk: int, k: int, values) -> None:
        """Structural-legality checks plus bookkeeping shared by both issues."""
        config = self.config
        if not (0 <= column < config.height):
            raise IndexError(f"column {column} out of range")
        if self._issued_this_cycle[column]:
            raise RuntimeError(f"column {column}: second issue in the same cycle")
        pipe = self._pipes[column]
        latency = config.latency
        if len(pipe) >= latency:
            raise RuntimeError(
                f"column {column}: pipeline overflow "
                f"({len(pipe)} entries, latency {latency})"
            )
        pipe.append(
            ColumnEntry(chunk=chunk, k=k, values=values, remaining=latency)
        )
        self._issued_this_cycle[column] = True
        self.column_issues += 1
        self.fma_issues += config.length * config.elements_per_slot

    def issue(self, column: int, chunk: int, k: int, x_vector, w_bits: int,
              acc_vector) -> None:
        """Issue ``x * w + acc`` into ``column`` for tag ``(chunk, k)``."""
        self._enqueue(column, chunk, k,
                      self.ops.fma(x_vector, w_bits, acc_vector))

    def issue_gated(self, column: int, chunk: int, k: int, acc_vector) -> None:
        """Issue a padding slot: the accumulator passes through unchanged.

        Inner-dimension padding lanes (``n >= N`` in the last chunk) are
        operand-gated in the array -- the slot still occupies its pipeline
        stage (same timing, same issue accounting) but performs no
        arithmetic, so a signed-zero accumulator is not disturbed by a
        ``x * (+0)`` product the real gated lane never computes.
        """
        self._enqueue(column, chunk, k, acc_vector)

    def flush(self) -> None:
        """Drop all in-flight operations (between jobs)."""
        for pipe in self._pipes:
            pipe.clear()
        self._issued_this_cycle = [False] * self.config.height
