"""Tests for the vectorised engine path: value-free control plane, one data
plane per job (:class:`repro.redmule.vector_ops.ExactSimdVectorOps`).

The contract: every observable of a job -- TCDM contents, ``RedMulEResult``
cycle/stall/issue counters, streamer statistics -- matches the scalar
``exact`` oracle, including the jobs the data plane hands to the scalar
strategy because their Z stores overlap operands they still read.
"""

import inspect

import pytest

import repro.redmule.functional as functional
from repro.farm import config_key
from repro.farm.workers import _build_job
from repro.fp.vector import pack_matrix, random_fp16_matrix, random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.interco.log_interco import CoreRequest
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.vector_ops import (
    VECTOR_OPS_BACKENDS,
    backend_schedule_compiled,
    z_overlaps_operands,
)

#: Bytes of TCDM compared after each job: covers every placement below.
_IMAGE_BYTES = 0x8000


def _job(m, n, k, offsets=None, strides=(0, 0, 0), accumulate=False):
    """A job at byte ``offsets`` from the TCDM base (default: X, W and Z
    back to back, 32-byte aligned)."""
    base = Tcdm().base
    if offsets is None:
        w_off = -(-2 * m * n // 32) * 32
        offsets = (0, w_off, w_off + -(-2 * n * k // 32) * 32)
    x_off, w_off, z_off = offsets
    x_stride, w_stride, z_stride = strides
    return MatmulJob(x_addr=base + x_off, w_addr=base + w_off,
                     z_addr=base + z_off, m=m, n=n, k=k,
                     accumulate=accumulate, x_stride=x_stride,
                     w_stride=w_stride, z_stride=z_stride)


def _fill(tcdm, job, seed=7):
    """Seeded operands written row by row at the job's byte strides (X,
    then W, then the Z pre-load -- later writes win where regions alias)."""
    regions = [(job.x_addr, job.m, job.n, job.x_stride),
               (job.w_addr, job.n, job.k, job.w_stride)]
    if job.accumulate:
        regions.append((job.z_addr, job.m, job.k, job.z_stride))
    for number, (addr, rows, cols, stride) in enumerate(regions):
        matrix = random_fp16_matrix(rows, cols, scale=0.25, seed=seed + number)
        for row in range(rows):
            tcdm.load_image(addr + row * stride,
                            pack_matrix(matrix[row:row + 1], "fp16"))


def _run(backend, job, hci_config=None, noisy=False):
    """Run ``job`` on a fresh engine; returns (counters, TCDM image)."""
    tcdm = Tcdm()
    hci = Hci(tcdm, hci_config or HciConfig())
    if noisy:
        # A core hammers bank 0 every cycle, so the wide port stalls.
        original_cycle = hci.wide_line_cycle

        def noisy_wide_cycle(*args, **kwargs):
            hci.submit_log_requests([CoreRequest(initiator=0,
                                                 addr=tcdm.base)])
            return original_cycle(*args, **kwargs)

        hci.wide_line_cycle = noisy_wide_cycle
    engine = RedMulE(RedMulEConfig.reference(), hci, backend=backend)
    _fill(tcdm, job)
    result = engine.run_job(job)
    counters = (result.cycles, result.stall_cycles, result.active_cycles,
                result.issued_macs, result.n_tiles, result.streamer.w_loads,
                result.streamer.x_loads, result.streamer.y_loads,
                result.streamer.z_stores, result.streamer.stall_cycles)
    return counters, tcdm.dump_image(tcdm.base, _IMAGE_BYTES)


@pytest.fixture
def fma_calls(monkeypatch):
    """Count the data plane's guarded FMA kernel calls."""
    calls = []
    kernel = functional.fma_guarded_f64_fmt

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(functional, "fma_guarded_f64_fmt", counting)
    return calls


class TestBackends:
    def test_two_backends_neither_replays_schedules(self):
        assert VECTOR_OPS_BACKENDS == ("exact", "exact-simd")
        assert not any(backend_schedule_compiled(name)
                       for name in VECTOR_OPS_BACKENDS)
        with pytest.raises(ValueError):
            backend_schedule_compiled("trace")
        with pytest.raises(ValueError):
            RedMulE(backend="trace")
        assert list(inspect.signature(RedMulE).parameters) == [
            "config", "hci", "backend"]


class TestOneDataPlaneCallPerJob:
    @pytest.mark.parametrize("shape,accumulate", [
        ((8, 16, 16), False),    # one tile
        ((13, 7, 5), True),      # one ragged tile, accumulating
        ((48, 64, 48), False),   # 18 tiles
        ((16, 40, 24), True),    # multi-tile, ragged inner dimension
    ], ids=["single", "ragged-acc", "multi", "multi-acc"])
    def test_exactly_n_kernel_calls_whatever_the_tile_count(
            self, fma_calls, shape, accumulate):
        """The control plane does no arithmetic: the whole job costs one
        guarded FMA over the ``M x K`` output per inner-dimension step."""
        job = _job(*shape, accumulate=accumulate)
        _run("exact-simd", job)
        assert len(fma_calls) == job.n


class TestFormats:
    @pytest.mark.parametrize("shape,accumulate", [
        ((13, 7, 5), True),      # one ragged tile, accumulating
        ((1, 16, 24), False),    # a single row over several column tiles
    ], ids=["ragged-acc", "single-row"])
    @pytest.mark.parametrize("fmt_name", ["bf16", "fp8-e4m3", "fp8-e5m2"])
    def test_ragged_job_matches_the_oracle(self, fma_calls, fmt_name, shape,
                                           accumulate):
        """Narrow formats (packed FP8 lanes included) on partial tiles: the
        data plane runs once per inner step and matches the oracle's
        counters and Z image."""
        m, n, k = shape
        key = config_key(RedMulEConfig(format=fmt_name))
        outcomes = {}
        for backend in ("exact", "exact-simd"):
            engine, job, (hx, hw, hz) = _build_job(key, m, n, k, accumulate,
                                                   backend)
            tcdm = engine.tcdm
            hx.store(tcdm, random_matrix(m, n, fmt_name, scale=0.25, seed=1))
            hw.store(tcdm, random_matrix(n, k, fmt_name, scale=0.25, seed=2))
            if accumulate:
                hz.store(tcdm, random_matrix(m, k, fmt_name, scale=0.25,
                                             seed=3))
            fma_calls.clear()
            result = engine.run_job(job)
            outcomes[backend] = (
                result.cycles, result.stall_cycles, result.issued_macs,
                result.n_tiles, result.streamer.z_stores,
                tcdm.dump_image(hz.base, hz.footprint))
        assert len(fma_calls) == n  # the exact-simd run, the last one
        assert outcomes["exact-simd"] == outcomes["exact"]


class TestFallback:
    """Jobs whose Z stores reach bytes they still read run on the scalar
    strategy and stay identical to the oracle."""

    @pytest.mark.parametrize("job", [
        # In place: Z exactly over X.
        _job(8, 16, 16, offsets=(0, 0x1000, 0)),
        # Z over X rows the second row tile still has to read.
        _job(16, 64, 16, offsets=(0, 0x1000, 8 * 128)),
        _job(16, 64, 16, offsets=(0, 0x1000, 8 * 128), accumulate=True),
        # Z over W, which the second row tile reads again.
        _job(16, 16, 16, offsets=(0, 0x1000, 0x1000)),
        # Overlapping Z rows (z_stride < k * element bytes): the third row
        # tile pre-loads bytes the first one stored.
        _job(24, 16, 16, strides=(0, 0, 2), accumulate=True),
    ], ids=["z-in-place-over-x", "z-over-x", "z-over-x-acc", "z-over-w",
            "overlapping-z-rows"])
    def test_aliased_job_matches_the_oracle(self, fma_calls, job):
        assert z_overlaps_operands(job)
        simd = _run("exact-simd", job)
        assert fma_calls == []  # the data plane stayed out of it
        assert simd == _run("exact", job)

    def test_disjoint_regions_do_not_fall_back(self):
        assert not z_overlaps_operands(_job(16, 16, 16, accumulate=True))

    @pytest.mark.parametrize("job", [
        # Odd byte strides on a single-row job (only row 0 is addressed).
        _job(1, 16, 24, strides=(33, 0, 51)),
        # Padded strides that break word alignment, several tiles.
        _job(16, 24, 20, offsets=(0, 0x400, 0x1000), strides=(50, 46, 42),
             accumulate=True),
    ], ids=["odd-single-row", "padded-multi-tile"])
    def test_misaligned_stride_job_matches_the_oracle(self, job):
        assert not z_overlaps_operands(job)
        assert _run("exact-simd", job) == _run("exact", job)

    def test_misaligned_wide_access_fails_identically(self):
        """An odd X stride on several rows puts a wide load off the element
        grid: both backends reject it the same way."""
        job = _job(8, 16, 16, strides=(33, 0, 0))
        errors = []
        for backend in VECTOR_OPS_BACKENDS:
            with pytest.raises(ValueError, match="element-aligned") as info:
                _run(backend, job)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestContention:
    def test_contended_job_matches_the_oracle(self):
        """Arbitration stalls change the timing, never the data: the data
        plane still matches the oracle's image and the stalled counters."""
        job = _job(8, 32, 16)
        config = HciConfig(max_wide_streak=1)
        simd = _run("exact-simd", job, config, noisy=True)
        assert simd[0][-1] > 0  # the wide port did stall
        assert simd == _run("exact", job, config, noisy=True)


class TestAbort:
    def test_abort_releases_state_and_the_next_job_is_exact(self):
        """A watchdog abort leaves no controller, streamer or datapath
        residue; the same instance then completes the job bit-identically
        to the oracle."""
        tcdm = Tcdm()
        engine = RedMulE(RedMulEConfig.reference(), Hci(tcdm, HciConfig()),
                         backend="exact-simd")
        job = _job(16, 64, 16)
        _fill(tcdm, job)
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.offload(job, max_cycles=5)
        assert not engine.controller.busy
        assert engine.streamer.pending() == 0
        assert not engine.datapath.busy
        result = engine.offload(job)
        assert engine.controller.fsm.jobs_completed == 1
        counters, image = _run("exact", job)
        assert result.cycles == counters[0]
        assert tcdm.dump_image(tcdm.base, _IMAGE_BYTES) == image
