"""RedMulE: the Reduced-precision matrix Multiplication Engine.

This package is the paper's primary contribution: a parametric, tightly
coupled FP16 matrix-multiplication accelerator.  It contains

* the architectural configuration (:mod:`repro.redmule.config`),
* the job descriptor programmed by software (:mod:`repro.redmule.job`),
* structural models of the datapath building blocks -- pipelined FMA units,
  rows with feedback, the semi-systolic array, and the X/W/Z buffers
  (:mod:`repro.redmule.fma_unit`, :mod:`repro.redmule.row`,
  :mod:`repro.redmule.datapath`, :mod:`repro.redmule.buffers`),
* the streamer that schedules the single 288-bit memory port
  (:mod:`repro.redmule.streamer`),
* the tiling scheduler (:mod:`repro.redmule.scheduler`),
* the register file + controller (:mod:`repro.redmule.controller`),
* the cycle-accurate engine that ties everything together
  (:mod:`repro.redmule.engine`),
* the arithmetic strategies the engine runs on: the scalar bit-exact
  oracle and a value-free control plane plus one vectorised data-plane call
  per job (:mod:`repro.redmule.vector_ops`),
* a closed-form performance model validated against the engine
  (:mod:`repro.redmule.perf_model`), and
* golden functional references (:mod:`repro.redmule.functional`).
"""

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.fma_unit import PipelinedFma
from repro.redmule.row import FmaRow
from repro.redmule.datapath import Datapath
from repro.redmule.buffers import WLineBuffer, XBlockBuffer, ZStoreBuffer
from repro.redmule.streamer import Streamer, StreamerStats
from repro.redmule.scheduler import Tile, TileSchedule
from repro.redmule.controller import RedMulEController, REDMULE_REGISTERS
from repro.redmule.engine import RedMulE, RedMulEResult
from repro.redmule.perf_model import (
    PerfEstimate,
    ProgramEstimate,
    RedMulEPerfModel,
)
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
    matmul_reference_fp32,
)
from repro.redmule.vector_ops import (
    DEFAULT_BACKEND,
    VECTOR_OPS_BACKENDS,
    ExactSimdVectorOps,
    ExactVectorOps,
    backend_schedule_compiled,
    make_vector_ops,
    replay_dataplane,
)

__all__ = [
    "DEFAULT_BACKEND",
    "Datapath",
    "ExactSimdVectorOps",
    "ExactVectorOps",
    "FmaRow",
    "MatmulJob",
    "PerfEstimate",
    "PipelinedFma",
    "ProgramEstimate",
    "REDMULE_REGISTERS",
    "RedMulE",
    "RedMulEConfig",
    "RedMulEController",
    "RedMulEPerfModel",
    "RedMulEResult",
    "Streamer",
    "StreamerStats",
    "Tile",
    "TileSchedule",
    "VECTOR_OPS_BACKENDS",
    "WLineBuffer",
    "XBlockBuffer",
    "ZStoreBuffer",
    "backend_schedule_compiled",
    "make_vector_ops",
    "matmul_hw_order_exact_fmt",
    "matmul_hw_order_simd_fmt",
    "matmul_reference_fp32",
    "replay_dataplane",
]
