"""Closed-form RedMulE performance model.

The cycle-accurate engine is the ground truth but is too slow (in Python) for
wide design-space sweeps and for workloads with hundreds of millions of MACs.
This model reproduces the engine's cycle count analytically by following the
same execution structure:

* the job is split into ``ceil(M/L) * ceil(K/elements_per_line)`` tiles
  (``elements_per_line = block_k`` for 16-bit formats and ``2 * block_k``
  for the packed FP8 formats);
* each tile issues for ``(H-1)*(P+1) + ceil(N/H)*block_k`` cycles, then takes
  ``P+1`` extra cycles to drain the last column;
* before the first issue of a tile the streamer must load the first X block
  (one line per valid row) and the initial W lines through the single wide
  port (one access per cycle), which stalls the array;
* a non-accumulating tile pays one extra boundary cycle when its first Z row
  is handed to the store path (an accumulating tile hides it behind the Y
  pre-load of the next tile);
* after the last tile the remaining Z lines trickle out at one line per
  cycle.

A tile's cost depends only on its number of valid rows, and a job's tiles
fall into at most two *row blocks* (:meth:`TileSchedule.row_blocks
<repro.redmule.scheduler.TileSchedule.row_blocks>`): the full-height tiles
(``L`` rows) and the last tile row (``M - (ceil(M/L) - 1) * L`` rows).  The
estimate and the exactness check are therefore arithmetic over those blocks:
their cost is O(H) (the initial-W-line count walks the array columns) and
does not depend on the number of tiles.

On the *uncontended* domain -- where the wide port has enough spare slots per
``block_k``-cycle chunk window to serve the mid-tile W and X refills (see
:meth:`RedMulEPerfModel.is_exact`) -- the estimate is **bit-exact**: it equals
the engine's measured cycle count on every shape, which the property tests in
``tests/test_dse_properties.py`` assert over randomized (M, N, K) x (H, L, P)
samples.  Outside that domain the port saturates, the engine stalls mid-tile
and the closed form becomes a lower bound; the farm's validation mode and the
DSE cross-validation pass quantify the gap.

The optional ``memory_latency`` parameter extends the model beyond the
paper's single-cycle TCDM: each tile's pre-load pays the extra access latency
once (subsequent accesses pipeline behind it).  It defaults to 0, which is
the configuration the exactness guarantee applies to: ``is_exact`` is
``False`` on every job of a model with a non-zero latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import TileSchedule


@dataclass(frozen=True)
class PerfEstimate:
    """Cycle-level performance estimate for one matmul job."""

    job: MatmulJob
    config: RedMulEConfig
    #: Estimated total cycles (trigger to last store).
    cycles: int
    #: Cycles an ideal array (H*L MACs every cycle, no overhead) would need.
    ideal_cycles: int
    #: Cycles lost to per-tile preload, drain and final store flush.
    overhead_cycles: int
    #: Number of tiles.
    n_tiles: int

    @property
    def total_macs(self) -> int:
        """Useful MACs of the job."""
        return self.job.total_macs

    @property
    def macs_per_cycle(self) -> float:
        """Useful MAC throughput."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Fraction of the array's peak throughput actually achieved."""
        return self.macs_per_cycle / self.config.ideal_macs_per_cycle

    @property
    def fraction_of_ideal(self) -> float:
        """Ideal cycles divided by estimated cycles (the paper's Fig. 4a metric)."""
        if self.cycles == 0:
            return 0.0
        return self.ideal_cycles / self.cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a given clock frequency."""
        return self.cycles / frequency_hz

    def throughput_gmacs(self, frequency_hz: float) -> float:
        """Throughput in GMAC/s at a given clock frequency."""
        return self.macs_per_cycle * frequency_hz / 1e9

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS (2 ops per MAC) at a given clock frequency."""
        return 2.0 * self.throughput_gmacs(frequency_hz)


@dataclass(frozen=True)
class ProgramEstimate:
    """Analytic timing of a whole lowered workload-graph program.

    ``serial_cycles`` is the single-cluster back-to-back execution time (the
    quantity :meth:`repro.farm.SimulationFarm.time_program` measures through
    its records) and ``critical_path_cycles`` the dependency-aware makespan
    floor: no pool of clusters, however large, can finish the program faster
    than its longest chain of dependent jobs.
    """

    graph_name: str
    config: RedMulEConfig
    #: Number of accelerator jobs in the lowered stream.
    n_jobs: int
    #: Useful MACs over the whole program.
    total_macs: int
    #: Single-cluster serial cycles (sum over jobs + offload cost).
    serial_cycles: float
    #: Longest dependent-job chain (infinite-cluster makespan floor).
    critical_path_cycles: float
    #: Per-node cycle totals, keyed by lowered-node name.
    node_cycles: Dict[str, float]

    @property
    def parallelism(self) -> float:
        """Average exploitable parallelism (serial / critical path)."""
        if self.critical_path_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.critical_path_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Serial-execution throughput of the program."""
        if self.serial_cycles <= 0:
            return 0.0
        return self.total_macs / self.serial_cycles

    @property
    def utilisation(self) -> float:
        """Serial throughput relative to the array's peak."""
        return self.macs_per_cycle / self.config.ideal_macs_per_cycle

    def runtime_s(self, frequency_hz: float) -> float:
        """Serial wall-clock runtime at a given clock frequency."""
        return self.serial_cycles / frequency_hz

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Serial throughput in GFLOPS at a given clock frequency."""
        return 2.0 * self.macs_per_cycle * frequency_hz / 1e9


class RedMulEPerfModel:
    """Analytical cycle model of a RedMulE instance (uncontended TCDM).

    ``memory_latency`` models a TCDM whose first access of every tile
    pre-load takes that many extra cycles (DSE memory-hierarchy axis); the
    default 0 reproduces the engine's single-cycle memory bit-exactly on the
    :meth:`is_exact` domain.
    """

    def __init__(self, config: Optional[RedMulEConfig] = None,
                 memory_latency: int = 0) -> None:
        if memory_latency < 0:
            raise ValueError("memory_latency must be >= 0")
        self.config = config if config is not None else RedMulEConfig.reference()
        self.memory_latency = memory_latency

    # ------------------------------------------------------------------
    def _initial_w_lines(self, n: int) -> int:
        """W lines enqueued before the first issue of a tile.

        These are the lines whose first broadcast falls within the
        streamer's prefetch horizon (``w_prefetch_lines * block_k`` cycles
        into the tile), and whose inner index lies inside the real matrix
        (padding rows are not fetched).  Column ``col`` first needs chunk
        ``c``'s line at cycle ``col * (P+1) + c * block_k``; it holds real
        data for ``ceil((n - col) / H)`` chunks.
        """
        cfg = self.config
        horizon = cfg.block_k * cfg.w_prefetch_lines
        count = 0
        # col * (P+1) < block_k <= horizon, so every counted column has at
        # least one chunk inside the horizon and one inside the matrix.
        for col in range(min(cfg.height, n)):
            in_horizon = (horizon - col * cfg.latency) // cfg.block_k + 1
            in_matrix = -(-(n - col) // cfg.height)
            count += min(in_horizon, in_matrix)
        return count

    def _tile_cycles(self, job: MatmulJob,
                     schedule: TileSchedule) -> Tuple[int, int]:
        """``(fixed, per_row)``: a tile of ``rows`` valid rows takes
        ``fixed + per_row * rows`` cycles on a single-cycle memory.

        Stall cycles before the first issue: the wide port serves the
        initial W lines (higher priority), the Z pre-load lines of an
        accumulation job, and the first X block (one line per valid row),
        one access per cycle; the first issue happens on the cycle the last
        of those lands.  The tile then issues for
        ``(H-1)*(P+1) + n_chunks*block_k`` cycles and drains its last column
        for ``P+1``.  A non-accumulating tile pays one boundary cycle
        handing its first Z row to the store path; an accumulating tile
        hides it behind the Y pre-load (measured against the engine, see the
        module docstring).
        """
        cfg = self.config
        issue_cycles = ((cfg.height - 1) * cfg.latency
                        + schedule.n_chunks * cfg.block_k)
        boundary = 0 if job.accumulate else 1
        fixed = (self._initial_w_lines(job.n) - 1 + issue_cycles
                 + cfg.latency + boundary)
        per_row = 2 if job.accumulate else 1  # X block line (+ Y line)
        return fixed, per_row

    def is_exact(self, job: MatmulJob) -> bool:
        """True when the closed form provably equals the engine on ``job``.

        Two port-capacity conditions define the domain:

        * **mid-tile refills** -- per ``block_k``-cycle chunk window the
          port must deliver up to ``min(H, N)`` W lines plus -- whenever a
          tile needs more than one X block -- one X line per valid row;
          when that demand exceeds the ``block_k`` slots of the window the
          engine stalls mid-tile and the estimate becomes a lower bound;
        * **Z-backlog hiding** -- the Z lines a tile queues at its end drain
          through the *next* tile's spare port slots (stores have lowest
          priority).  A tile whose duration minus its own access count is
          smaller than the previous tile's row count cannot absorb that
          backlog, the leftover lines lengthen the final drain, and the
          estimate undercounts (a corner first caught by the
          multi-precision property tests: tiny tiles after full-height
          ones).  Only consecutive row heights matter, so the check runs
          over the (at most three) distinct pairs of
          :meth:`TileSchedule.row_blocks`, never over the tiles.

        A model with ``memory_latency > 0`` is never exact: the engine has
        no slow-memory counterpart to equal.
        """
        if self.memory_latency > 0:
            return False
        cfg = self.config
        schedule = TileSchedule(job, cfg)
        w_demand = min(cfg.height, job.n)
        x_demand = min(job.m, cfg.length) if schedule.n_blocks > 1 else 0
        if w_demand + x_demand > cfg.block_k:
            return False

        # Z-backlog condition: every non-first tile needs enough spare
        # slots (duration minus every access it performs itself) to drain
        # the previous tile's queued rows before its own compute ends.  A
        # tile performs one access per real W line (``job.n`` of them), one
        # per X line of every block and, when accumulating, one per Y line.
        fixed, per_row = self._tile_cycles(job, schedule)
        previous_rows = None
        for rows, count in schedule.row_blocks():
            y_lines = rows if job.accumulate else 0
            accesses = job.n + rows * schedule.n_blocks + y_lines
            spare = fixed + per_row * rows - accesses
            # The run's first tile follows the previous run's last tile;
            # each later one follows a tile of its own height.
            if previous_rows is not None and spare < previous_rows:
                return False
            if count > 1 and spare < rows:
                return False
            previous_rows = rows
        return True

    def estimate(self, job: MatmulJob) -> PerfEstimate:
        """Estimate the cycle count of ``job`` on this configuration."""
        cfg = self.config
        schedule = TileSchedule(job, cfg)
        fixed, per_row = self._tile_cycles(job, schedule)
        # With a slow memory each tile's first access additionally waits out
        # the extra latency before the pipelined stream starts.
        fixed += self.memory_latency
        blocks = schedule.row_blocks()
        total = sum(count * (fixed + per_row * rows) for rows, count in blocks)

        # Final Z drain: the last tile's lines leave the Z queue at one line
        # per cycle (queue -> streamer -> memory) once compute has finished.
        total += blocks[-1][0]

        ideal = -(-job.total_macs // cfg.ideal_macs_per_cycle)
        return PerfEstimate(
            job=job,
            config=cfg,
            cycles=total,
            ideal_cycles=ideal,
            overhead_cycles=total - ideal,
            n_tiles=schedule.n_tiles,
        )

    # -- convenience -------------------------------------------------------
    def estimate_gemm(self, m: int, n: int, k: int) -> PerfEstimate:
        """Estimate a dense GEMM of the given shape (addresses are dummies)."""
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k)
        return self.estimate(job)

    # -- whole programs ----------------------------------------------------
    def estimate_program(self, program,
                         offload_cycles_per_job: float = 0.0) -> ProgramEstimate:
        """Estimate a lowered workload-graph program analytically.

        ``program`` is a :class:`~repro.graph.lower.LoweredProgram` (duck
        typed: anything with ``graph_name``, ``nodes`` carrying ``jobs``,
        and ``job_deps()`` works).  Every job is estimated with the closed
        form; the serial total reproduces
        :meth:`repro.farm.SimulationFarm.time_program` and the critical path
        is the longest dependent chain through the flat job stream.
        """
        if offload_cycles_per_job < 0:
            raise ValueError("offload_cycles_per_job must be >= 0")
        job_costs: List[float] = []
        node_cycles: Dict[str, float] = {}
        total_macs = 0
        for node in program.nodes:
            for job in node.jobs:
                cycles = self.estimate(job).cycles + offload_cycles_per_job
                job_costs.append(cycles)
                node_cycles[node.name] = node_cycles.get(node.name, 0.0) + cycles
                total_macs += job.total_macs
        critical = critical_path_cycles(program.job_deps(), job_costs)
        return ProgramEstimate(
            graph_name=program.graph_name,
            config=self.config,
            n_jobs=len(job_costs),
            total_macs=total_macs,
            serial_cycles=float(sum(job_costs)),
            critical_path_cycles=critical,
            node_cycles=node_cycles,
        )


def critical_path_cycles(deps: List[Tuple[int, ...]],
                         costs: List[float]) -> float:
    """Longest weighted chain through a flat dependency-annotated job stream.

    ``deps[i]`` holds the prerequisite indices of job ``i`` (all smaller than
    ``i``, which the lowering pass guarantees), ``costs[i]`` its cycles.
    Public shared helper: :meth:`repro.graph.lower.LoweredProgram.
    critical_path_cycles` delegates here with its own ``job_deps()``.
    """
    if len(deps) != len(costs):
        raise ValueError(
            f"dependency annotation covers {len(deps)} jobs but "
            f"{len(costs)} costs were given"
        )
    finish: List[float] = []
    for prereqs, cost in zip(deps, costs):
        start = max((finish[p] for p in prereqs), default=0.0)
        finish.append(start + cost)
    return max(finish, default=0.0)
