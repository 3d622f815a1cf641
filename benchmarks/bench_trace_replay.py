"""Benchmark -- the vectorised engine path against the scalar oracle.

``exact-simd`` steps the engine's cycle schedule as a value-free control
plane and computes each job's Z matrix in one vectorised data-plane call
(:func:`repro.redmule.vector_ops.replay_dataplane`).  This bench gates the
property that split rests on: in every supported element format the result
is **bit-identical** to the scalar ``exact`` engine -- same TCDM result
image, same cycle counts, and (checked at the data-plane level) the same
accumulated IEEE exception flags as the scalar FMA chain.
"""

import numpy as np

from benchmarks.conftest import print_series, record_info
from repro.farm import config_key, run_functional_job
from repro.fp.flags import ExceptionFlags
from repro.fp.formats import fma_bits, get_format
from repro.redmule.config import RedMulEConfig
from repro.redmule.vector_ops import replay_dataplane

FORMATS = ["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"]


def test_trace_replay_bit_match_all_formats(benchmark):
    """The vectorised engine leaves the scalar oracle's TCDM image and
    cycle count in every supported element format (multi-tile, ragged
    inner dimension)."""
    shape = (16, 40, 24)

    def run_all():
        mismatches = 0
        rows = []
        for fmt in FORMATS:
            key = config_key(RedMulEConfig(format=fmt))
            exact_cycles, exact_bits = run_functional_job(
                key, *shape, False, "exact", seed=7)
            simd_cycles, simd_bits = run_functional_job(
                key, *shape, False, "exact-simd", seed=7)
            match = simd_bits == exact_bits and simd_cycles == exact_cycles
            mismatches += 0 if match else 1
            rows.append((fmt, exact_cycles, simd_cycles, match))
        return mismatches, rows

    mismatches, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        f"Vectorised engine bit match per element format -- {shape}",
        ["format", "exact cycles", "exact-simd cycles", "bit-identical"],
        [(fmt, ec, sc, "yes" if ok else "NO")
         for fmt, ec, sc, ok in rows],
    )
    record_info(benchmark, {"format_bit_mismatches": mismatches,
                            "formats_checked": len(rows)})
    assert mismatches == 0


def test_replay_dataplane_flag_parity(benchmark):
    """The vectorised data plane accumulates the same IEEE exception flags
    as the scalar FMA chain (checked on an overflow/inexact-rich batch)."""
    fmt = get_format("fp16")
    rng = np.random.default_rng(13)
    rows_n, cols_n, steps = 8, 8, 16
    x_bits = rng.integers(0, 1 << 16, (rows_n, steps), dtype=np.uint32)
    w_bits = rng.integers(0, 1 << 16, (steps, cols_n), dtype=np.uint32)
    acc_bits = np.zeros((rows_n, cols_n), dtype=np.uint32)

    def run():
        flags = ExceptionFlags()
        out = replay_dataplane(x_bits, w_bits, acc_bits, fmt, flags=flags)
        return out, flags

    out, flags = benchmark.pedantic(run, rounds=1, iterations=1)

    want_flags = ExceptionFlags()
    for r in range(rows_n):
        for c in range(cols_n):
            acc = 0
            for s in range(steps):
                acc = fma_bits(int(x_bits[r, s]), int(w_bits[s, c]), acc,
                               fmt, flags=want_flags)
            assert int(out[r, c]) == acc
    assert flags.to_fflags() == want_flags.to_fflags()
    record_info(benchmark, {
        "flag_parity": 1.0 if flags.to_fflags() == want_flags.to_fflags()
        else 0.0,
    })
