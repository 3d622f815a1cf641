"""Cycle-accurate RedMulE engine.

This module ties together the datapath, buffers, streamer, scheduler and
controller into a cycle-by-cycle simulation of a complete matmul job:

* operands are read from (and results written to) the simulated TCDM through
  the HCI shallow branch, one wide access per cycle at most;
* the datapath issues at most one vector FMA per column per cycle, following
  the semi-systolic schedule of Section II-C (X operands held for
  ``H*(P+1)`` cycles, W operands broadcast every cycle, feedback after the
  last column);
* the whole array stalls when a W line or an X block is not resident when a
  column crosses a chunk boundary (ready/valid back-pressure);
* computed Z lines are queued in the Z buffer and drained through spare port
  slots.

The engine reports cycle counts, stall breakdowns and utilisation, and -- by
construction -- leaves the bit-exact result of the computation in the
TCDM, so functional and timing verification use the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.interco.hci import Hci, HciConfig
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.obs import active as _telemetry_active
from repro.redmule.buffers import WLineBuffer, XBlockBuffer, ZStoreBuffer, ZStoreRequest
from repro.redmule.config import RedMulEConfig
from repro.redmule.controller import RedMulEController
from repro.redmule.datapath import Datapath
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import Tile, TileSchedule
from repro.redmule.streamer import Streamer, StreamRequest, StreamerStats
from repro.redmule.vector_ops import DEFAULT_BACKEND, make_vector_ops


@dataclass
class RedMulEResult:
    """Outcome of one simulated job."""

    job: MatmulJob
    #: Total cycles from trigger to the last Z store leaving the streamer.
    cycles: int
    #: Cycles in which the datapath was frozen waiting for operands.
    stall_cycles: int
    #: Cycles in which the datapath issued at least one operation.
    active_cycles: int
    #: Useful multiply-accumulates (M*N*K).
    total_macs: int
    #: FMA slots actually issued by the array (padding included).
    issued_macs: int
    #: Number of tiles processed.
    n_tiles: int
    #: Peak throughput of the instance that ran the job (H * L MAC/cycle).
    #: Required so manually-built results cannot silently desync from
    #: non-reference H/L configurations; the engine fills it from
    #: ``config.ideal_macs_per_cycle``.
    peak_macs_per_cycle: int
    #: Port-level streamer statistics.
    streamer: StreamerStats = field(default_factory=StreamerStats)

    @property
    def macs_per_cycle(self) -> float:
        """Useful MACs per cycle (the paper's throughput metric)."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Useful MACs per cycle divided by the array's peak (H*L)."""
        if self.cycles == 0 or self.peak_macs_per_cycle == 0:
            return 0.0
        return self.macs_per_cycle / self.peak_macs_per_cycle

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.job.describe()}: {self.cycles} cycles, "
            f"{self.macs_per_cycle:.2f} MAC/cycle, "
            f"{self.stall_cycles} stalls, {self.n_tiles} tiles"
        )


@dataclass
class _JobState:
    """Mutable per-job cycle accounting shared by the tile loop and the drain."""

    max_cycles: int
    total_cycles: int = 0
    stall_cycles: int = 0
    active_cycles: int = 0


class RedMulE:
    """Cycle-accurate model of one RedMulE instance attached to an HCI.

    The arithmetic backend is selected by ``backend``, a name from the
    vector-ops registry (``"exact"`` or ``"exact-simd"``); it defaults to
    :data:`~repro.redmule.vector_ops.DEFAULT_BACKEND`.  Both backends are
    bit-exact and step the same control schedule cycle by cycle, so the
    choice only changes the simulation cost (see
    :mod:`repro.redmule.vector_ops`).
    """

    def __init__(
        self,
        config: Optional[RedMulEConfig] = None,
        hci: Optional[Hci] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.config = config if config is not None else RedMulEConfig.reference()
        if hci is None:
            tcdm = Tcdm(TcdmConfig())
            hci = Hci(tcdm, HciConfig(n_wide_ports=self.config.n_mem_ports))
        self.hci = hci
        self.ops = make_vector_ops(backend, self.config.binary_format)
        #: Name of the arithmetic backend driving the datapath.
        self.backend = self.ops.name
        self.datapath = Datapath(self.config, vector_ops=self.ops)
        self.controller = RedMulEController()
        self.streamer = Streamer(self.config, hci)
        #: Results of every job run on this instance.
        self.history: List[RedMulEResult] = []

    # ------------------------------------------------------------------
    @property
    def tcdm(self) -> Tcdm:
        """The TCDM this instance reads and writes."""
        return self.hci.tcdm

    def offload(self, job: MatmulJob, max_cycles: Optional[int] = None) -> RedMulEResult:
        """Full software-style offload: program the register file, run, finish.

        If the simulation aborts mid-job (e.g. the ``max_cycles`` watchdog
        fires), the controller context is released before the exception
        propagates, so the instance stays usable -- otherwise every later
        ``offload`` would fail with "RedMulE is busy".
        """
        if self.controller.acquire() != 0:
            raise RuntimeError("RedMulE is busy")
        completed = False
        try:
            self.controller.program_job(job)
            triggered = self.controller.trigger()
            result = self.run_job(triggered, max_cycles=max_cycles)
            self.controller.fsm.tick(result.cycles)
            self.controller.finish()
            completed = True
            return result
        finally:
            if completed:
                self.controller.clear()
            else:
                self.controller.abort()

    # ------------------------------------------------------------------
    def run_job(self, job: MatmulJob, max_cycles: Optional[int] = None) -> RedMulEResult:
        """Simulate one matmul job cycle by cycle.

        The result matrix is written into the TCDM at ``job.z_addr`` and the
        timing statistics are returned.  If the simulation aborts (e.g. the
        ``max_cycles`` watchdog fires), the transient engine state -- queued
        streamer requests and in-flight datapath operations -- is flushed
        before the exception propagates, so the instance can run further
        jobs without the dead job's residue corrupting them.

        Jobs in the mapped engine-hang domain are rejected with a clear
        ``ValueError`` up front: a tile whose live-row count exceeds the Z
        store queue can never drain (the tile-exit condition
        ``occupancy + rows <= depth`` is unsatisfiable), so the engine would
        spin until the watchdog instead of making progress.
        """
        cfg = self.config
        if job.element_bytes != cfg.element_bytes:
            raise ValueError(
                f"job element width ({8 * job.element_bytes} bits) does not "
                f"match the configured {cfg.format} elements "
                f"({cfg.element_bits} bits)"
            )
        live_rows = min(cfg.length, job.m)
        if cfg.z_queue_depth < live_rows:
            raise ValueError(
                f"z_queue_depth={cfg.z_queue_depth} is below the live-row "
                f"requirement of this job (min(L={cfg.length}, M={job.m}) = "
                f"{live_rows}): the engine would deadlock waiting for Z "
                f"queue space that can never exist"
            )
        try:
            return self._run_job(job, max_cycles)
        except BaseException:
            self.streamer.flush()
            self.datapath.flush()
            raise

    def _run_job(self, job: MatmulJob, max_cycles: Optional[int]) -> RedMulEResult:
        cfg = self.config

        schedule = TileSchedule(job, cfg)
        xbuf = XBlockBuffer(cfg, capacity_blocks=2)
        wbuf = WLineBuffer(cfg)
        zbuf = ZStoreBuffer(cfg)
        self.datapath.flush()
        # The strategy that runs this job (the backend's, or the scalar one
        # for jobs its data plane cannot serve); the datapath issues with it.
        self.datapath.ops = self.ops.begin_job(self.tcdm, job)
        self.streamer.reset_stats()
        fma_issues_at_start = self.datapath.fma_issues

        if max_cycles is None:
            max_cycles = 20_000 + 4 * schedule.issued_macs() // cfg.n_fma
        state = _JobState(max_cycles=max_cycles)

        # W lines in the order the datapath will need them.
        w_need_order = sorted(
            (col * cfg.latency + chunk * cfg.block_k, col, chunk)
            for chunk in range(schedule.n_chunks)
            for col in range(cfg.height)
        )

        # Per-tile spans are stamped in *engine cycles* on a per-job lane,
        # so the exported timeline is identical across backends.  The
        # disabled path costs one check per tile.
        obs = _telemetry_active()
        monitor = obs.enabled
        if monitor:
            obs.declare_track("engine", "cycles")
            lane = f"job{len(self.history)}"

        for tile in schedule:
            if monitor:
                tile_start = state.total_cycles
                stalls_before = state.stall_cycles
                active_before = state.active_cycles
            self._run_tile(job, schedule, tile, xbuf, wbuf, zbuf,
                           w_need_order, state)
            if monitor:
                obs.complete_span(
                    f"tile{tile.index}", tile_start, state.total_cycles,
                    track="engine", lane=lane, cat="tile",
                    rows=tile.rows, cols=tile.cols,
                    stall_cycles=state.stall_cycles - stalls_before,
                    active_cycles=state.active_cycles - active_before)

        # Drain the remaining Z stores.
        if monitor:
            drain_start = state.total_cycles
        while not zbuf.empty or self.streamer.busy:
            state.total_cycles += 1
            if state.total_cycles > state.max_cycles:
                raise RuntimeError(
                    "simulation exceeded max_cycles during Z drain")
            self._drain_zbuf(zbuf)
            self.streamer.cycle()
        if monitor:
            obs.complete_span("z_drain", drain_start, state.total_cycles,
                              track="engine", lane=lane, cat="drain")

        result = RedMulEResult(
            job=job,
            cycles=state.total_cycles,
            stall_cycles=state.stall_cycles,
            active_cycles=state.active_cycles,
            total_macs=job.total_macs,
            issued_macs=self.datapath.fma_issues - fma_issues_at_start,
            n_tiles=schedule.n_tiles,
            peak_macs_per_cycle=cfg.ideal_macs_per_cycle,
            streamer=self.streamer.stats,
        )
        if monitor:
            obs.complete_span(
                f"gemm {job.m}x{job.n}x{job.k}", 0, state.total_cycles,
                track="engine", lane=lane, cat="job", m=job.m, n=job.n,
                k=job.k, backend=self.backend, tiles=schedule.n_tiles,
                stall_cycles=state.stall_cycles,
                active_cycles=state.active_cycles)
            obs.count("engine.jobs")
            obs.observe("engine.job_cycles", state.total_cycles)
            obs.observe("engine.stall_cycles", state.stall_cycles)
        self.history.append(result)
        return result

    def _run_tile(self, job: MatmulJob, schedule: TileSchedule, tile: Tile,
                  xbuf: XBlockBuffer, wbuf: WLineBuffer, zbuf: ZStoreBuffer,
                  w_need_order, state: _JobState) -> None:
        """Event-step one tile of the job (the engine hot loop)."""
        cfg = self.config
        height, length = cfg.height, cfg.length
        latency, block_k = cfg.latency, cfg.block_k
        lanes = cfg.elements_per_slot
        epl = cfg.elements_per_line
        ops = self.datapath.ops
        n_chunks = schedule.n_chunks
        n_blocks = schedule.n_blocks
        issue_end = (height - 1) * latency + n_chunks * block_k

        # Shared read-only zero lines in the strategy's own representations:
        # a vector-shaped line for X/Y padding and a W-line for padded chunks.
        zero_line_vec = ops.zeros(epl)
        zero_w_line = ops.zero_line(epl)
        zero_vec = ops.zeros(length * lanes)

        xbuf.reset()
        wbuf.reset()
        feedback = [zero_vec] * block_k
        z_tile: List[Optional[object]] = [None] * block_k
        z_done = 0
        x_current = [zero_vec] * height
        x_enqueued_blocks = 0
        w_ptr = 0
        t = 0

        # Accumulation jobs (Z += X . W) pre-load the existing Z lines of
        # this tile into the row accumulators before the first issue.
        y_lines: List[Optional[object]] = [None] * length
        y_pending = 0
        y_applied = not job.accumulate
        if job.accumulate:
            for row in range(length):
                if row < tile.rows:
                    self.streamer.enqueue(
                        StreamRequest(
                            kind="y",
                            addr=job.z_element_addr(tile.m0 + row, tile.k0),
                            n_elements=tile.cols,
                            meta=("y", row),
                        )
                    )
                    y_pending += 1
                else:
                    y_lines[row] = zero_line_vec

        while True:
            state.total_cycles += 1
            if state.total_cycles > state.max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {state.max_cycles} cycles "
                    f"({job.describe()}, tile {tile.index})"
                )

            # ---- 1. memory: one wide port cycle --------------------------
            self._drain_zbuf(zbuf)
            finished = self.streamer.cycle()
            if finished is not None and not finished.write:
                if finished.kind == "y":
                    _, row = finished.meta
                    y_lines[row] = ops.from_bits(finished.data_bits)
                    y_pending -= 1
                else:
                    self._fill_buffer(finished, xbuf, wbuf, ops)

            # Once every Z pre-load line has arrived, seed the feedback
            # registers with the existing Z values (column-major view).
            if not y_applied and y_pending == 0:
                for k in range(block_k):
                    feedback[k] = ops.gather_slot(y_lines, k)
                y_applied = True

            # ---- 2. demand-driven request generation ----------------------
            x_enqueued_blocks = self._enqueue_x(
                job, tile, xbuf, zero_line_vec,
                x_enqueued_blocks, n_blocks, t,
            )
            w_ptr = self._enqueue_w(
                job, tile, wbuf, zero_w_line, w_need_order, w_ptr, t,
            )

            # ---- 3. datapath ----------------------------------------------
            if t < issue_end:
                ready = y_applied and self._resources_ready(
                    job, tile, xbuf, wbuf, t, n_chunks
                )
            else:
                ready = True

            if ready:
                completions = self.datapath.tick()
                last = completions.get(height - 1)
                if last is not None:
                    if last.chunk == n_chunks - 1:
                        z_tile[last.k] = last.values
                        z_done += 1
                    else:
                        feedback[last.k] = last.values
                if t < issue_end:
                    issued = self._issue_cycle(
                        job, tile, xbuf, wbuf, x_current, feedback,
                        completions, t, n_chunks,
                    )
                    if issued:
                        state.active_cycles += 1
                t += 1
            else:
                state.stall_cycles += 1

            # ---- 4. tile completion ----------------------------------------
            # The tile ends once every result has drained out of the
            # array *and* the Z buffer has room for this tile's lines
            # (otherwise keep cycling so pending stores trickle out).
            if (
                t >= issue_end
                and not self.datapath.busy
                and zbuf.occupancy + tile.rows <= zbuf.depth
            ):
                break

        if z_done != block_k:
            raise RuntimeError(
                f"tile {tile.index}: expected {block_k} output columns, "
                f"got {z_done}"
            )
        self._push_z(job, tile, z_tile, zbuf, ops)

    # -- helpers -----------------------------------------------------------
    def _drain_zbuf(self, zbuf: ZStoreBuffer) -> None:
        """Move pending Z lines into the streamer's store queue (one per cycle)."""
        if not zbuf.empty and self.streamer.pending("z") < 2:
            request = zbuf.pop()
            self.streamer.enqueue(
                StreamRequest(
                    kind="z",
                    addr=request.addr,
                    n_elements=request.valid_elements,
                    write=True,
                    payload_bits=request.bits[: request.valid_elements],
                )
            )

    def _fill_buffer(self, finished: StreamRequest, xbuf: XBlockBuffer,
                     wbuf: WLineBuffer, ops) -> None:
        """Route a completed load into the X or W buffer."""
        if finished.kind == "w":
            _, col, chunk = finished.meta
            wbuf.load_line(col, chunk, ops.from_line(finished.data_bits))
        elif finished.kind == "x":
            _, block, row = finished.meta
            xbuf.load_line(block, row, ops.from_bits(finished.data_bits))
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected load kind {finished.kind!r}")

    def _enqueue_x(self, job: MatmulJob, tile: Tile, xbuf: XBlockBuffer,
                   zero_line_vec, next_block: int, n_blocks: int,
                   t: int) -> int:
        """Enqueue X block loads one block ahead of consumption."""
        cfg = self.config
        # One block carries elements_per_line inner-dimension operands and
        # is consumed over (elements_per_line / H) chunks of block_k cycles.
        block_cycles = cfg.latency * cfg.block_k * cfg.elements_per_slot
        while (
            next_block < n_blocks
            and t >= (next_block - 1) * block_cycles
            and xbuf.can_accept(next_block)
        ):
            n_start = next_block * cfg.elements_per_line
            n_count = min(cfg.elements_per_line, job.n - n_start)
            for row in range(cfg.length):
                if row < tile.rows and n_count > 0:
                    self.streamer.enqueue(
                        StreamRequest(
                            kind="x",
                            addr=job.x_element_addr(tile.m0 + row, n_start),
                            n_elements=n_count,
                            meta=("x", next_block, row),
                        )
                    )
                else:
                    xbuf.load_line(next_block, row, zero_line_vec)
            next_block += 1
        return next_block

    def _enqueue_w(self, job: MatmulJob, tile: Tile, wbuf: WLineBuffer,
                   zero_w_line, w_need_order, w_ptr: int,
                   t: int) -> int:
        """Enqueue W line loads one line-time ahead of their first broadcast."""
        cfg = self.config
        horizon = cfg.block_k * cfg.w_prefetch_lines
        while w_ptr < len(w_need_order) and w_need_order[w_ptr][0] <= t + horizon:
            _, col, chunk = w_need_order[w_ptr]
            n = chunk * cfg.height + col
            if n < job.n:
                self.streamer.enqueue(
                    StreamRequest(
                        kind="w",
                        addr=job.w_element_addr(n, tile.k0),
                        n_elements=tile.cols,
                        meta=("w", col, chunk),
                    )
                )
            else:
                wbuf.load_line(col, chunk, zero_w_line)
            w_ptr += 1
        return w_ptr

    def _resources_ready(self, job: MatmulJob, tile: Tile, xbuf: XBlockBuffer,
                         wbuf: WLineBuffer, t: int, n_chunks: int) -> bool:
        """Check whether the column crossing a chunk boundary has its operands."""
        cfg = self.config
        for col in range(cfg.height):
            slot = t - col * cfg.latency
            if slot < 0:
                continue
            chunk, k = divmod(slot, cfg.block_k)
            if chunk >= n_chunks or k != 0:
                continue
            n = chunk * cfg.height + col
            if n >= job.n:
                continue
            if not wbuf.has_line(col, chunk):
                return False
            if not xbuf.block_ready(n // cfg.elements_per_line):
                return False
        return True

    def _issue_cycle(self, job: MatmulJob, tile: Tile, xbuf: XBlockBuffer,
                     wbuf: WLineBuffer, x_current: List[object],
                     feedback: List[object], completions: Dict[int, object],
                     t: int, n_chunks: int) -> bool:
        """Issue every active column for tile-time ``t``; returns True if any."""
        cfg = self.config
        ops = self.datapath.ops
        issued = False
        for col in range(cfg.height):
            slot = t - col * cfg.latency
            if slot < 0:
                continue
            chunk, k = divmod(slot, cfg.block_k)
            if chunk >= n_chunks:
                continue
            n = chunk * cfg.height + col

            if k == 0 and n < job.n:
                block, offset = divmod(n, cfg.elements_per_line)
                x_current[col] = ops.gather(xbuf.lines(block), offset)

            if col == 0:
                acc = feedback[k]
            else:
                previous = completions.get(col - 1)
                if previous is None or previous.chunk != chunk or previous.k != k:
                    raise RuntimeError(
                        f"systolic chaining broken at t={t}, column {col}, "
                        f"chunk {chunk}, k {k}"
                    )
                acc = previous.values

            if n < job.n:
                w_bits = ops.w_slot(wbuf.line(col, chunk), k)
                self.datapath.issue(col, chunk, k, x_current[col], w_bits, acc)
            else:
                # Inner-dimension padding: the lane is operand-gated and the
                # accumulator passes through untouched (preserves -0 exactly
                # like the hardware's gated FMA does).
                self.datapath.issue_gated(col, chunk, k, acc)
            issued = True

            if k == cfg.block_k - 1:
                if n < job.n:
                    wbuf.evict(col, chunk)
                if col == cfg.height - 1:
                    xbuf.evict_before(
                        ((chunk + 1) * cfg.height) // cfg.elements_per_line
                    )
        return issued

    def _push_z(self, job: MatmulJob, tile: Tile, z_tile: List[object],
                zbuf: ZStoreBuffer, ops) -> None:
        """Convert the finished tile into Z line store requests.

        The strategy supplies the tile's per-row lines in one call.  For
        packed formats the tile covers ``lanes`` elements per slot, so only
        the slots whose leading lane is architecturally valid are passed on
        (the store request then truncates the possibly half-valid last slot
        to ``tile.cols`` elements).
        """
        n_slots = -(-tile.cols // self.config.elements_per_slot)
        lines = ops.tile_lines(tile, z_tile[:n_slots])
        for row in range(tile.rows):
            accepted = zbuf.push(
                ZStoreRequest(
                    addr=job.z_element_addr(tile.m0 + row, tile.k0),
                    bits=lines[row],
                    valid_elements=tile.cols,
                )
            )
            if not accepted:
                raise RuntimeError("Z store buffer overflow")
