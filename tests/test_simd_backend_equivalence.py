"""End-to-end equivalence of the `exact-simd` backend against the oracle.

The acceptance bar of the array-oriented backend: on the experiment job set
(the engine-eligible fig3/fig4 sweep shapes and the fig4c/fig4d AutoEncoder
training GEMMs), `ExactSimdVectorOps` must leave bit-identical TCDM contents
and report identical cycle counts to the scalar `ExactVectorOps` oracle.
Larger shapes of the same sweeps are covered at the kernel level
(`test_fp_simd`) and by the golden-model equivalence below, which evaluates
the exact accumulation order without the cycle-accurate machinery.
"""

import numpy as np
import pytest

from repro.farm import (
    DEFAULT_ENGINE_MACS_THRESHOLD,
    BackendValidationReport,
    SimulationFarm,
    config_key,
    default_farm,
)
from repro.farm.workers import _build_job
from repro.fp.formats import FP16, get_format
from repro.fp.vector import (
    matrix_to_bits,
    quantize_fp16,
    random_fp16_matrix,
    random_matrix,
)
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
)
from repro.redmule.job import MatmulJob
from repro.redmule.vector_ops import (
    DEFAULT_BACKEND,
    VECTOR_OPS_BACKENDS,
    ExactSimdVectorOps,
    ExactVectorOps,
    make_vector_ops,
)
from repro.experiments.fig3 import DEFAULT_SWEEP_SIZES
from repro.experiments.fig4 import DEFAULT_HW_SW_SIZES
from repro.workloads.autoencoder import autoencoder_training_gemms


def _experiment_engine_shapes():
    """Engine-eligible (M, N, K) shapes of the fig3/fig4 experiment set."""
    shapes = []
    for size in sorted(set(DEFAULT_SWEEP_SIZES) | set(DEFAULT_HW_SW_SIZES)):
        if size ** 3 <= DEFAULT_ENGINE_MACS_THRESHOLD:
            shapes.append((size, size, size))
    for gemm in autoencoder_training_gemms(batch=1):
        shape = (gemm.shape.m, gemm.shape.n, gemm.shape.k)
        if gemm.shape.macs <= DEFAULT_ENGINE_MACS_THRESHOLD and shape not in shapes:
            shapes.append(shape)
    return shapes


def _run_engine(backend, m, n, k, accumulate=False, x=None, w=None, z0=None):
    config = TcdmConfig()
    needed = 2 * (m * n + n * k + m * k) + 3 * 32
    if needed > config.size:
        words = -(-needed // (config.n_banks * config.word_bytes))
        config = TcdmConfig(bank_words=max(config.bank_words, words))
    tcdm = Tcdm(config)
    hci = Hci(tcdm, HciConfig())
    engine = RedMulE(RedMulEConfig.reference(), hci, backend=backend)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    hx.store(tcdm, x if x is not None
             else random_fp16_matrix(m, n, scale=0.25, seed=m + n))
    hw.store(tcdm, w if w is not None
             else random_fp16_matrix(n, k, scale=0.25, seed=n + k))
    if accumulate:
        hz.store(tcdm, z0 if z0 is not None
                 else random_fp16_matrix(m, k, scale=0.25, seed=m + k))
    result = engine.run_job(MatmulJob.from_handles(hx, hw, hz,
                                                   accumulate=accumulate))
    return result, tcdm.dump_image(hz.base, m * k * 2)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("shape", _experiment_engine_shapes(),
                             ids=lambda s: "x".join(map(str, s)))
    def test_experiment_job_set(self, shape):
        """Bit-identical TCDM contents and identical cycle counts on the
        engine-eligible fig3/fig4/autoencoder job set."""
        exact_result, exact_bits = _run_engine("exact", *shape)
        simd_result, simd_bits = _run_engine("exact-simd", *shape)
        assert simd_bits == exact_bits
        assert simd_result.cycles == exact_result.cycles
        assert simd_result.stall_cycles == exact_result.stall_cycles
        assert simd_result.issued_macs == exact_result.issued_macs

    def test_accumulate_jobs(self):
        for shape in [(8, 16, 16), (13, 7, 5), (16, 40, 24)]:
            exact_result, exact_bits = _run_engine("exact", *shape,
                                                   accumulate=True)
            simd_result, simd_bits = _run_engine("exact-simd", *shape,
                                                 accumulate=True)
            assert simd_bits == exact_bits
            assert simd_result.cycles == exact_result.cycles

    @pytest.mark.parametrize("accumulate", [False, True],
                             ids=["zero-acc", "accumulate"])
    @pytest.mark.parametrize("fmt_name", ["fp16", "bf16", "fp8-e4m3",
                                          "fp8-e5m2"])
    def test_special_values_route_through_integer_kernels(self, fmt_name,
                                                          accumulate):
        """NaNs, infinities, subnormals and the largest finite values in
        the operands of every element format must not break bit-identity
        (they exercise the guarded fallback path)."""
        fmt = get_format(fmt_name)
        key = config_key(RedMulEConfig(format=fmt_name))
        m, n, k = 16, 24, 16
        x = random_matrix(m, n, fmt, scale=0.25, seed=3)
        w = random_matrix(n, k, fmt, scale=0.25, seed=4)
        z0 = random_matrix(m, k, fmt, scale=0.25, seed=5)
        tiny = fmt.bits_to_float(1)  # smallest subnormal
        big = fmt.max_finite_value
        x[0, 0], x[1, 2], x[2, 1], x[3, 3] = np.inf, np.nan, tiny, big
        w[0, 0], w[1, 1], w[2, 0], w[3, 3] = -np.inf, big, -tiny, big
        outcomes = {}
        for backend in ("exact", "exact-simd"):
            engine, job, (hx, hw, hz) = _build_job(key, m, n, k, accumulate,
                                                   backend)
            tcdm = engine.tcdm
            hx.store(tcdm, x)
            hw.store(tcdm, w)
            if accumulate:
                hz.store(tcdm, z0)
            result = engine.run_job(job)
            outcomes[backend] = (
                result.cycles, result.stall_cycles, result.issued_macs,
                tcdm.dump_image(hz.base, m * k * fmt.storage_bytes))
        assert outcomes["exact-simd"] == outcomes["exact"]


class TestGoldenModelEquivalence:
    def test_simd_matmul_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        x = quantize_fp16(rng.standard_normal((12, 37)) * 0.3)
        w = quantize_fp16(rng.standard_normal((37, 9)) * 0.3)
        assert (matrix_to_bits(matmul_hw_order_simd_fmt(x, w, FP16))
                == matmul_hw_order_exact_fmt(matrix_to_bits(x),
                                             matrix_to_bits(w), FP16))

    def test_simd_matmul_with_accumulator(self):
        rng = np.random.default_rng(1)
        x = quantize_fp16(rng.standard_normal((5, 16)) * 0.3)
        w = quantize_fp16(rng.standard_normal((16, 7)) * 0.3)
        acc = quantize_fp16(rng.standard_normal((5, 7)))
        want = matmul_hw_order_exact_fmt(
            matrix_to_bits(x), matrix_to_bits(w), FP16, matrix_to_bits(acc)
        )
        got = matrix_to_bits(matmul_hw_order_simd_fmt(x, w, FP16, acc=acc))
        assert got == want

    def test_simd_matmul_shape_checks(self):
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros((2, 3)), np.zeros((4, 2)), FP16)
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros((2, 3)), np.zeros((3, 2)), FP16,
                                     acc=np.zeros((3, 3)))


class TestVectorOpsLevel:
    def test_registry(self):
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        for name in ("fast", "trace", "bogus"):
            with pytest.raises(ValueError):
                make_vector_ops(name)


class TestBackendSelection:
    def test_cluster_arithmetic_selection(self):
        from repro.cluster import PulpCluster

        assert PulpCluster().redmule.backend == DEFAULT_BACKEND
        assert PulpCluster(arithmetic="exact").redmule.backend == "exact"
        with pytest.raises(TypeError):
            PulpCluster(exact_arithmetic=True)

    def test_engine_backend_selection(self):
        assert RedMulE().backend == DEFAULT_BACKEND == "exact-simd"
        assert RedMulE(backend="exact").backend == "exact"
        with pytest.raises(TypeError):
            RedMulE(exact=True)
        with pytest.raises(ValueError):
            RedMulE(backend="fast")

    def test_every_default_runs_a_bit_exact_backend(self):
        """Engines, clusters and farms built without an arithmetic choice
        all simulate with a bit-exact backend."""
        from repro.cluster import PulpCluster

        bit_exact = ("exact", "exact-simd")
        assert VECTOR_OPS_BACKENDS == bit_exact
        assert RedMulE().backend in bit_exact
        assert PulpCluster().redmule.backend in bit_exact
        for farm in (default_farm(), SimulationFarm(backend="engine")):
            assert farm.arithmetic in bit_exact


class TestFarmBackendValidation:
    def test_validate_backends_passes_on_equivalent_backends(self):
        farm = SimulationFarm()
        reports = farm.validate_backends([(8, 16, 16), (13, 7, 5)])
        assert all(isinstance(r, BackendValidationReport) and r.ok
                   for r in reports)
        assert farm.stats.backend_validations == len(reports)
        assert farm.stats.validations == 0  # timing cross-checks untouched

    def test_validate_backends_detects_divergence(self):
        farm = SimulationFarm()
        # Every registered backend is bit-exact, so assert on the report
        # plumbing instead: identical backends always match.
        reports = farm.validate_backends([(8, 16, 16)], reference="exact",
                                         candidate="exact")
        assert reports[0].ok
        with pytest.raises(ValueError):
            farm.validate_backends([(8, 16, 16)], candidate="bogus")

    def test_farm_exact_runs_use_simd_arithmetic_by_default(self):
        assert SimulationFarm().arithmetic == "exact-simd"
        assert SimulationFarm(arithmetic="exact").arithmetic == "exact"
        with pytest.raises(TypeError):
            SimulationFarm(exact=True)
        with pytest.raises(ValueError):
            SimulationFarm(arithmetic="fast")

    def test_farm_timing_identical_across_arithmetic_backends(self):
        shapes = [(8, 16, 16), (16, 16, 16)]
        records = {}
        for arithmetic in ("exact", "exact-simd"):
            farm = SimulationFarm(arithmetic=arithmetic, max_workers=1)
            records[arithmetic] = [
                (r.cycles, r.stall_cycles, r.total_macs, r.n_tiles)
                for r in farm.run_shapes(
                    [_Shape(*s) for s in shapes], backend="engine"
                )
            ]
        assert records["exact"] == records["exact-simd"]


class _Shape:
    def __init__(self, m, n, k):
        self.m, self.n, self.k = m, n, k
