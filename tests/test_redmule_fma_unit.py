"""Tests for the pipelined FMA unit and the FMA row."""

import pytest

from repro.fp.formats import FP16
from repro.fp.float16 import POS_ZERO_BITS, bits_to_float, float_to_bits
from repro.redmule.config import RedMulEConfig
from repro.redmule.fma_unit import PipelinedFma
from repro.redmule.functional import matmul_hw_order_exact_fmt
from repro.redmule.row import FmaRow


def f2b(value: float) -> int:
    return float_to_bits(value)


class TestPipelinedFma:
    def test_latency_is_p_plus_one(self):
        unit = PipelinedFma(pipeline_regs=3)
        unit.load_x(f2b(2.0))
        unit.issue(f2b(3.0), f2b(1.0), tag="op")
        results = [unit.tick() for _ in range(4)]
        assert results[:3] == [None, None, None]
        assert results[3] is not None and results[3].tag == "op"
        assert bits_to_float(results[3].result) == 7.0

    def test_zero_pipeline_regs_single_cycle(self):
        unit = PipelinedFma(pipeline_regs=0)
        unit.load_x(f2b(1.0))
        unit.issue(f2b(1.0), POS_ZERO_BITS)
        assert unit.tick() is not None

    def test_back_to_back_throughput(self):
        """One issue per cycle sustains one result per cycle after warm-up."""
        unit = PipelinedFma(pipeline_regs=3)
        unit.load_x(f2b(1.0))
        completed = 0
        for i in range(20):
            if i < 16:
                unit.issue(f2b(float(i % 8)), POS_ZERO_BITS, tag=i)
            done = unit.tick()
            if done is not None:
                completed += 1
                assert done.tag == completed - 1
        assert completed == 16
        assert unit.issued == 16 and unit.retired == 16

    def test_double_issue_in_one_cycle_is_rejected(self):
        unit = PipelinedFma(pipeline_regs=2)
        unit.load_x(f2b(1.0))
        unit.issue(f2b(1.0), POS_ZERO_BITS)
        with pytest.raises(RuntimeError):
            unit.issue(f2b(1.0), POS_ZERO_BITS)

    def test_pipeline_overflow_is_rejected(self):
        unit = PipelinedFma(pipeline_regs=1)
        unit.load_x(f2b(1.0))
        unit.issue(f2b(1.0), POS_ZERO_BITS)
        unit.tick()
        unit.issue(f2b(1.0), POS_ZERO_BITS)
        # Two in flight with latency 2 and no tick in between -> overflow.
        with pytest.raises(RuntimeError):
            unit._issued_this_cycle = False
            unit.issue(f2b(1.0), POS_ZERO_BITS)

    def test_flush(self):
        unit = PipelinedFma(pipeline_regs=3)
        unit.load_x(f2b(1.0))
        unit.issue(f2b(1.0), POS_ZERO_BITS)
        unit.flush()
        assert not unit.busy
        assert unit.tick() is None

    def test_x_register_is_captured_at_issue(self):
        unit = PipelinedFma(pipeline_regs=2)
        unit.load_x(f2b(2.0))
        unit.issue(f2b(5.0), POS_ZERO_BITS)
        unit.load_x(f2b(100.0))  # must not affect the in-flight operation
        results = [unit.tick() for _ in range(3)]
        final = [r for r in results if r is not None][0]
        assert bits_to_float(final.result) == 10.0

    def test_rejects_negative_pipeline_regs(self):
        with pytest.raises(ValueError):
            PipelinedFma(pipeline_regs=-1)


class TestFmaRow:
    """The scalar row model must agree with the golden functional model."""

    def _golden_row(self, x_row, w_block):
        x_bits = [[float_to_bits(v) for v in x_row]]
        w_bits = [[float_to_bits(v) for v in row] for row in w_block]
        return matmul_hw_order_exact_fmt(x_bits, w_bits, FP16)[0]

    def test_single_chunk(self):
        config = RedMulEConfig.reference()
        row = FmaRow(config)
        x_row = [0.5, -1.5, 2.0, 0.25]
        w_block = [[float(i + j) / 8.0 for j in range(16)] for i in range(4)]
        x_bits = [float_to_bits(v) for v in x_row]
        w_bits = [[float_to_bits(v) for v in line] for line in w_block]
        result = row.compute_row(x_bits, w_bits, n_chunks=1)
        assert result == self._golden_row(x_row, w_block)
        assert row.cycles == 16 + 16  # issue + drain

    def test_multiple_chunks_use_feedback(self):
        config = RedMulEConfig.reference()
        row = FmaRow(config)
        n = 12  # three chunks of four
        x_row = [((-1) ** i) * (i + 1) / 16.0 for i in range(n)]
        w_block = [[(i * 16 + j) / 64.0 for j in range(16)] for i in range(n)]
        x_bits = [float_to_bits(v) for v in x_row]
        w_bits = [[float_to_bits(v) for v in line] for line in w_block]
        result = row.compute_row(x_bits, w_bits)
        assert result == self._golden_row(x_row, w_block)

    def test_padded_inner_dimension(self):
        """N not a multiple of H: the padding lanes must not disturb results."""
        config = RedMulEConfig.reference()
        row = FmaRow(config)
        n = 6
        x_row = [0.125 * (i + 1) for i in range(n)]
        w_block = [[0.25 * (j - 8) for j in range(16)] for _ in range(n)]
        x_bits = [float_to_bits(v) for v in x_row]
        w_bits = [[float_to_bits(v) for v in line] for line in w_block]
        result = row.compute_row(x_bits, w_bits, n_chunks=2)
        assert result == self._golden_row(x_row, w_block)

    def test_smaller_geometry(self):
        config = RedMulEConfig(height=2, length=1, pipeline_regs=1)
        row = FmaRow(config)
        n = 4
        x_row = [1.0, 2.0, 3.0, 4.0]
        w_block = [[float(j) for j in range(config.block_k)] for _ in range(n)]
        x_bits = [float_to_bits(v) for v in x_row]
        w_bits = [[float_to_bits(v) for v in line] for line in w_block]
        result = row.compute_row(x_bits, w_bits)
        assert result == self._golden_row(x_row, w_block)

    def test_rejects_zero_chunks(self):
        row = FmaRow(RedMulEConfig.reference())
        with pytest.raises(ValueError):
            row.compute_row([], [], n_chunks=0)
