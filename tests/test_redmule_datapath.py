"""Tests for the vectorised datapath and the vector-ops strategies."""

import numpy as np
import pytest

from repro.fp.float16 import POS_ZERO_BITS, bits_to_float, float_to_bits
from repro.redmule.config import RedMulEConfig
from repro.redmule.datapath import Datapath
from repro.redmule.vector_ops import (
    ExactSimdVectorOps,
    ExactVectorOps,
    TraceVectorOps,
    make_vector_ops,
)


def f2b(value: float) -> int:
    return float_to_bits(value)


class TestVectorOps:
    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), TraceVectorOps()],
        ids=["exact", "exact-simd", "trace"])
    def test_bits_roundtrip(self, ops):
        bits = [f2b(v) for v in (0.5, -1.25, 3.0, 0.0)]
        assert ops.to_bits(ops.from_bits(bits)) == bits

    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), TraceVectorOps()],
        ids=["exact", "exact-simd", "trace"])
    def test_zeros(self, ops):
        assert ops.to_bits(ops.zeros(3)) == [POS_ZERO_BITS] * 3

    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), TraceVectorOps()],
        ids=["exact", "exact-simd", "trace"])
    def test_gather(self, ops):
        lines = [ops.from_bits([f2b(float(r * 10 + c)) for c in range(4)])
                 for r in range(3)]
        column = ops.to_bits(ops.gather(lines, 2))
        assert [bits_to_float(b) for b in column] == [2.0, 12.0, 22.0]

    def test_exact_and_trace_fma_agree(self):
        rng = np.random.default_rng(7)
        exact, trace = ExactVectorOps(), TraceVectorOps()
        for _ in range(50):
            x_bits = [f2b(v) for v in rng.standard_normal(8) * 0.5]
            acc_bits = [f2b(v) for v in rng.standard_normal(8) * 0.5]
            w = f2b(float(rng.standard_normal()) * 0.5)
            exact_result = exact.fma(exact.from_bits(x_bits), w,
                                     exact.from_bits(acc_bits))
            trace_result = trace.to_bits(trace.fma(trace.from_bits(x_bits), w,
                                                   trace.from_bits(acc_bits)))
            assert exact_result == trace_result

    def test_exact_simd_fma_is_bit_identical(self):
        rng = np.random.default_rng(11)
        exact, simd = ExactVectorOps(), ExactSimdVectorOps()
        for _ in range(20):
            x_bits = [int(v) for v in rng.integers(0, 0x10000, 8)]
            acc_bits = [int(v) for v in rng.integers(0, 0x10000, 8)]
            w = int(rng.integers(0, 0x10000))
            exact_result = exact.fma(exact.from_bits(x_bits), w,
                                     exact.from_bits(acc_bits))
            simd_result = simd.to_bits(simd.fma(simd.from_bits(x_bits), w,
                                                simd.from_bits(acc_bits)))
            assert simd_result == exact_result

    @pytest.mark.parametrize("fmt", ["fp8-e4m3", "fp8-e5m2"])
    def test_packed_lane_chains_match_scalar_oracle(self, fmt):
        """Packed FP8 slots over every pattern, infinities and NaNs
        included, so the double-rounding fallback runs on the broadcast
        (row, lane) layout too."""
        rng = np.random.default_rng(13)
        exact = ExactVectorOps(fmt)
        simd = ExactSimdVectorOps(fmt)
        rows, lanes = 8, exact.lanes
        columns_exact, columns_simd = [], []
        for _ in range(3):
            acc_bits = [int(v) for v in rng.integers(0, 256, rows * lanes)]
            acc_e, acc_s = exact.from_bits(acc_bits), simd.from_bits(acc_bits)
            for _ in range(6):
                x_bits = [int(v) for v in rng.integers(0, 256, rows)]
                line = [int(v) for v in rng.integers(0, 256, 4 * lanes)]
                k = int(rng.integers(0, 4))
                acc_e = exact.fma(exact.from_bits(x_bits),
                                  exact.w_slot(exact.from_line(line), k), acc_e)
                acc_s = simd.fma(simd.from_bits(x_bits),
                                 simd.w_slot(simd.from_line(line), k), acc_s)
            columns_exact.append(acc_e)
            columns_simd.append(acc_s)
        assert simd.to_bits(columns_simd[0]) == exact.to_bits(columns_exact[0])
        got = simd.to_lines(columns_simd)
        want = exact.to_lines(columns_exact)
        assert [[int(v) for v in row] for row in got] == want

    def test_factory(self):
        assert isinstance(make_vector_ops(), ExactSimdVectorOps)
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        # The boolean form is gone: a name is the only way to pick a backend.
        for removed in ("fast", "nope", True, False):
            with pytest.raises(ValueError):
                make_vector_ops(removed)


class TestDatapath:
    def test_issue_and_complete_after_latency(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, make_vector_ops("exact"))
        ops = dp.ops
        x = ops.from_bits([f2b(2.0)] * config.length)
        acc = ops.zeros(config.length)
        dp.tick()
        dp.issue(0, chunk=0, k=0, x_vector=x, w_bits=f2b(3.0), acc_vector=acc)
        completions = [dp.tick() for _ in range(config.latency)]
        assert all(0 not in done for done in completions[:-1])
        final = completions[-1][0]
        assert final.chunk == 0 and final.k == 0
        assert all(bits_to_float(b) == 6.0 for b in ops.to_bits(final.values))

    def test_one_issue_per_column_per_cycle(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, make_vector_ops("exact"))
        x = dp.ops.zeros(config.length)
        dp.tick()
        dp.issue(1, 0, 0, x, POS_ZERO_BITS, dp.ops.zeros(config.length))
        with pytest.raises(RuntimeError):
            dp.issue(1, 0, 1, x, POS_ZERO_BITS, dp.ops.zeros(config.length))

    def test_pipeline_overflow_detection(self):
        config = RedMulEConfig(height=1, length=1, pipeline_regs=1)
        dp = Datapath(config, make_vector_ops("exact"))
        zeros = dp.ops.zeros(1)
        for k in range(config.latency):
            dp.tick()
            dp.issue(0, 0, k, zeros, POS_ZERO_BITS, zeros)
        # No tick: a further issue would exceed the latency-depth pipeline,
        # and the model also refuses a second issue in the same cycle.
        with pytest.raises(RuntimeError):
            dp.issue(0, 0, 99, zeros, POS_ZERO_BITS, zeros)

    def test_busy_and_flush(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config)
        assert not dp.busy
        dp.tick()
        dp.issue(0, 0, 0, dp.ops.zeros(8), POS_ZERO_BITS, dp.ops.zeros(8))
        assert dp.busy
        dp.flush()
        assert not dp.busy

    def test_issue_counters(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config)
        for k in range(3):
            dp.tick()
            dp.issue(0, 0, k, dp.ops.zeros(8), POS_ZERO_BITS, dp.ops.zeros(8))
        assert dp.column_issues == 3
        assert dp.fma_issues == 3 * config.length

    def test_column_bounds(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config)
        dp.tick()
        with pytest.raises(IndexError):
            dp.issue(config.height, 0, 0, dp.ops.zeros(8), 0, dp.ops.zeros(8))
