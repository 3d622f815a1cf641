"""Validation of the analytical performance model against the engine."""

import pytest

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel


class TestAgainstCycleAccurateEngine:
    """The closed-form model must track the engine within a small tolerance."""

    @pytest.mark.parametrize(
        "m,n,k",
        [
            (8, 16, 16),
            (8, 4, 16),
            (16, 16, 16),
            (32, 32, 32),
            (8, 64, 16),
            (13, 7, 5),
            (1, 96, 1),
            (24, 100, 40),
            (8, 256, 16),
        ],
    )
    def test_cycle_count_tolerance(self, harness, m, n, k):
        _, _, _, measured = harness.run_random(m, n, k, seed=m + n + k)
        estimate = RedMulEPerfModel(RedMulEConfig.reference()).estimate_gemm(m, n, k)
        tolerance = max(32, 0.03 * measured.cycles)
        assert abs(estimate.cycles - measured.cycles) <= tolerance, (
            f"estimate {estimate.cycles} vs measured {measured.cycles}"
        )

    def test_never_below_the_ideal_bound(self):
        model = RedMulEPerfModel()
        for shape in [(8, 16, 16), (64, 64, 64), (128, 128, 128), (1, 640, 1)]:
            estimate = model.estimate_gemm(*shape)
            assert estimate.cycles >= estimate.ideal_cycles
            assert estimate.overhead_cycles == estimate.cycles - estimate.ideal_cycles


class TestModelBehaviour:
    def test_utilisation_increases_with_problem_size(self):
        model = RedMulEPerfModel()
        utilisations = [model.estimate_gemm(s, s, s).utilisation
                        for s in (8, 16, 32, 64, 128, 256, 512)]
        assert utilisations == sorted(utilisations)

    def test_large_square_matrix_reaches_paper_utilisation(self):
        """The paper reports 98.8 % of the ideal 32 MAC/cycle."""
        estimate = RedMulEPerfModel().estimate_gemm(512, 512, 512)
        assert estimate.fraction_of_ideal > 0.97
        assert estimate.macs_per_cycle > 31.0

    def test_throughput_at_peak_frequency_matches_paper(self):
        """31.6 MAC/cycle at 666 MHz is 21.1 GMAC/s = 42 GFLOPS (Section III-A)."""
        estimate = RedMulEPerfModel().estimate_gemm(512, 512, 512)
        assert estimate.throughput_gmacs(666e6) == pytest.approx(21.0, rel=0.03)
        assert estimate.throughput_gflops(666e6) == pytest.approx(42.0, rel=0.03)

    def test_k_equal_one_wastes_the_output_row(self):
        """With K = 1 only one of the 16 Z elements per row is useful, which is
        the forward-pass bottleneck of the batch-1 auto-encoder (Fig. 4c)."""
        estimate = RedMulEPerfModel().estimate_gemm(128, 640, 1)
        assert estimate.utilisation < 1.0 / 16 + 0.01

    def test_m_equal_one_wastes_the_rows(self):
        estimate = RedMulEPerfModel().estimate_gemm(1, 640, 16)
        assert estimate.utilisation < 1.0 / 8 + 0.01

    def test_runtime_scales_inversely_with_frequency(self):
        estimate = RedMulEPerfModel().estimate_gemm(64, 64, 64)
        assert estimate.runtime_s(666e6) < estimate.runtime_s(476e6)
        ratio = estimate.runtime_s(476e6) / estimate.runtime_s(666e6)
        assert ratio == pytest.approx(666 / 476, rel=1e-6)

    def test_non_reference_configuration(self):
        config = RedMulEConfig(height=8, length=16, pipeline_regs=3)
        estimate = RedMulEPerfModel(config).estimate_gemm(256, 256, 256)
        assert estimate.config is config
        assert estimate.macs_per_cycle <= config.ideal_macs_per_cycle
        assert estimate.macs_per_cycle > 0.9 * config.ideal_macs_per_cycle

    def test_estimate_accepts_jobs(self):
        model = RedMulEPerfModel()
        job = MatmulJob(x_addr=0, w_addr=0x1000, z_addr=0x2000, m=16, n=16, k=16)
        assert model.estimate(job).cycles == model.estimate_gemm(16, 16, 16).cycles

    def test_slow_memory_is_never_exact(self):
        """The engine has no memory-latency counterpart, so a model that
        charges one cannot equal it; ``is_exact`` must say so."""
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=16, n=16, k=16)
        config = RedMulEConfig.reference()
        assert RedMulEPerfModel(config).is_exact(job)
        slow = RedMulEPerfModel(config, memory_latency=7)
        assert not slow.is_exact(job)
        n_tiles = slow.estimate(job).n_tiles
        assert (slow.estimate(job).cycles
                == RedMulEPerfModel(config).estimate(job).cycles + 7 * n_tiles)
