"""Tests for the vectorised datapath and the vector-ops strategies."""

import numpy as np
import pytest

from repro.fp.flags import ExceptionFlags
from repro.fp.float16 import POS_ZERO_BITS, bits_to_float, float_to_bits
from repro.fp.formats import fma_bits, get_format
from repro.redmule.config import RedMulEConfig
from repro.redmule.datapath import Datapath
from repro.redmule.vector_ops import (
    ExactSimdVectorOps,
    ExactVectorOps,
    make_vector_ops,
    replay_dataplane,
)


def f2b(value: float) -> int:
    return float_to_bits(value)


class TestVectorOps:
    def test_bits_roundtrip(self):
        ops = ExactVectorOps()
        bits = [f2b(v) for v in (0.5, -1.25, 3.0, 0.0)]
        assert ops.to_bits(ops.from_bits(bits)) == bits

    def test_zeros(self):
        ops = ExactVectorOps()
        assert ops.to_bits(ops.zeros(3)) == [POS_ZERO_BITS] * 3

    def test_gather(self):
        ops = ExactVectorOps()
        lines = [ops.from_bits([f2b(float(r * 10 + c)) for c in range(4)])
                 for r in range(3)]
        column = ops.to_bits(ops.gather(lines, 2))
        assert [bits_to_float(b) for b in column] == [2.0, 12.0, 22.0]

    def test_simd_control_plane_carries_no_values(self):
        """Every per-cycle call of the vectorised strategy returns one
        constant token -- never ``None``, which the X buffer reads as "line
        not loaded" -- and computes nothing."""
        simd = ExactSimdVectorOps()
        line = simd.from_line([f2b(1.0)] * 4)
        tokens = {
            simd.from_bits([f2b(1.0)] * 4), simd.zeros(4), line,
            simd.zero_line(4), simd.w_slot(line, 1),
            simd.gather([line, line], 0), simd.gather_slot([line], 0),
            simd.fma(simd.zeros(4), line, simd.zeros(4)),
        }
        assert len(tokens) == 1 and None not in tokens

    @pytest.mark.parametrize("fmt", ["fp16", "fp8-e4m3", "fp8-e5m2"])
    def test_dataplane_matches_scalar_vector_chains(self, fmt):
        """The data plane against chains of the scalar strategy's
        row-vector FMAs (packed FP8 slots included), over every pattern --
        infinities and NaNs too, so the double-rounding fallback runs."""
        rng = np.random.default_rng(13)
        exact = ExactVectorOps(fmt)
        rows, n, cols = 8, 6, 4 * exact.lanes
        hi = 1 << exact.fmt.storage_bits
        x = rng.integers(0, hi, (rows, n))
        w = rng.integers(0, hi, (n, cols))
        acc = rng.integers(0, hi, (rows, cols))
        columns = []
        for slot in range(cols // exact.lanes):
            vector = exact.gather_slot([list(row) for row in acc], slot)
            for step in range(n):
                w_line = exact.from_line(w[step])
                vector = exact.fma(exact.gather(x, step),
                                   exact.w_slot(w_line, slot), vector)
            columns.append(vector)
        got = replay_dataplane(x, w, acc, exact.fmt)
        assert [[int(v) for v in row] for row in got] == \
            exact.to_lines(columns)

    def test_factory(self):
        assert isinstance(make_vector_ops(), ExactSimdVectorOps)
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        # The boolean form is gone: a name is the only way to pick a backend.
        for removed in ("fast", "trace", "nope", True, False):
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


class TestReplayDataplane:
    @pytest.mark.parametrize("fmt_name", ["fp16", "bf16", "fp8-e4m3",
                                          "fp8-e5m2"])
    def test_matches_scalar_fma_chain_with_flags(self, fmt_name):
        """The batched data plane reproduces the scalar oracle's bits AND
        its accumulated IEEE exception flags in every precision."""
        fmt = get_format(fmt_name)
        rng = np.random.default_rng(3)
        rows, cols, n = 3, 4, 6
        hi = 1 << fmt.storage_bits
        # Every pattern is fair game, NaN and infinity included.
        x_bits = rng.integers(0, hi, (rows, n), dtype=np.uint32)
        w_bits = rng.integers(0, hi, (n, cols), dtype=np.uint32)
        acc_bits = np.zeros((rows, cols), dtype=np.uint32)

        flags = ExceptionFlags()
        got = replay_dataplane(x_bits, w_bits, acc_bits, fmt, flags=flags)

        want = np.zeros((rows, cols), dtype=np.uint32)
        want_flags = ExceptionFlags()
        for r in range(rows):
            for c in range(cols):
                acc = 0
                for step in range(n):
                    acc = fma_bits(int(x_bits[r, step]), int(w_bits[step, c]),
                                   acc, fmt, flags=want_flags)
                want[r, c] = acc
        assert np.array_equal(got.astype(np.uint32), want)
        assert flags.to_fflags() == want_flags.to_fflags()

    def test_flagless_and_flagged_paths_agree(self):
        fmt = get_format("fp16")
        rng = np.random.default_rng(5)
        x_bits = rng.integers(0, 0x8000, (4, 8), dtype=np.uint16)
        w_bits = rng.integers(0, 0x8000, (8, 3), dtype=np.uint16)
        acc_bits = rng.integers(0, 0x8000, (4, 3), dtype=np.uint16)
        fast = replay_dataplane(x_bits, w_bits, acc_bits, fmt)
        slow = replay_dataplane(x_bits, w_bits, acc_bits, fmt,
                                flags=ExceptionFlags())
        assert np.array_equal(np.asarray(fast, np.uint16),
                              np.asarray(slow, np.uint16))

    @pytest.mark.parametrize("fmt_name", ["fp16", "bf16", "fp8-e4m3",
                                          "fp8-e5m2"])
    def test_preloaded_accumulator_matches_scalar_chain(self, fmt_name):
        """A pre-loaded accumulator of arbitrary patterns (NaN and infinity
        included) seeds every chain: both data-plane paths give the scalar
        oracle's bits, and the flagged path its exception flags."""
        fmt = get_format(fmt_name)
        rng = np.random.default_rng(17)
        rows, cols, n = 4, 3, 5
        hi = 1 << fmt.storage_bits
        x_bits = rng.integers(0, hi, (rows, n), dtype=np.uint32)
        w_bits = rng.integers(0, hi, (n, cols), dtype=np.uint32)
        acc_bits = rng.integers(0, hi, (rows, cols), dtype=np.uint32)

        flags = ExceptionFlags()
        flagged = replay_dataplane(x_bits, w_bits, acc_bits, fmt, flags=flags)
        flagless = replay_dataplane(x_bits, w_bits, acc_bits, fmt)

        want = np.zeros((rows, cols), dtype=np.uint32)
        want_flags = ExceptionFlags()
        for r in range(rows):
            for c in range(cols):
                acc = int(acc_bits[r, c])
                for step in range(n):
                    acc = fma_bits(int(x_bits[r, step]), int(w_bits[step, c]),
                                   acc, fmt, flags=want_flags)
                want[r, c] = acc
        assert np.array_equal(flagged.astype(np.uint32), want)
        assert np.array_equal(flagless.astype(np.uint32), want)
        assert flags.to_fflags() == want_flags.to_fflags()
