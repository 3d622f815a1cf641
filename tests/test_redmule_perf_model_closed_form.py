"""The closed-form perf model against a per-tile reference oracle.

``RedMulEPerfModel.estimate`` and ``is_exact`` work over the job's row
blocks (:meth:`TileSchedule.row_blocks`) and never walk its tiles.  The
oracle below is the per-tile formulation they replaced: it walks every
tile of the schedule, costing each one and comparing it with the tile
before it.  Hypothesis pins the two together on the full
:class:`PerfEstimate` and on the exactness verdict; a guard test proves
structurally that neither method iterates tiles.  (Equality with the
cycle-accurate engine itself is ``tests/test_dse_properties.py``'s job.)
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fp.formats import FORMAT_NAMES
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import PerfEstimate, RedMulEPerfModel
from repro.redmule.scheduler import TileSchedule


# -- the per-tile oracle ---------------------------------------------------
def reference_initial_w_lines(model, n_chunks, n):
    cfg = model.config
    count = 0
    for chunk in range(n_chunks):
        for col in range(cfg.height):
            need = col * cfg.latency + chunk * cfg.block_k
            if need > cfg.block_k * cfg.w_prefetch_lines:
                continue
            if chunk * cfg.height + col < n:
                count += 1
    return count


def reference_is_exact(model, job):
    cfg = model.config
    if cfg.pipeline_regs < 1:
        return False
    schedule = TileSchedule(job, cfg)
    rows = min(job.m, cfg.length)
    w_demand = min(cfg.height, job.n)
    x_demand = rows if schedule.n_blocks > 1 else 0
    if w_demand + x_demand > cfg.block_k:
        return False

    n_chunks = schedule.n_chunks
    issue_cycles = (cfg.height - 1) * cfg.latency + n_chunks * cfg.block_k
    w_initial = reference_initial_w_lines(model, n_chunks, job.n)
    boundary = 0 if job.accumulate else 1
    w_total = sum(
        1
        for chunk in range(n_chunks)
        for col in range(cfg.height)
        if chunk * cfg.height + col < job.n
    )
    previous_rows = None
    for tile in schedule:
        y_lines = tile.rows if job.accumulate else 0
        accesses = w_total + tile.rows * schedule.n_blocks + y_lines
        preload = max(w_initial + y_lines + tile.rows - 1, 0)
        duration = preload + issue_cycles + cfg.latency + boundary
        if (previous_rows is not None
                and duration - accesses < previous_rows):
            return False
        previous_rows = tile.rows
    return True


def reference_estimate(model, job):
    cfg = model.config
    schedule = TileSchedule(job, cfg)
    n_chunks = schedule.n_chunks
    issue_cycles = (cfg.height - 1) * cfg.latency + n_chunks * cfg.block_k
    w_initial = reference_initial_w_lines(model, n_chunks, job.n)
    boundary = 0 if job.accumulate else 1

    total = 0
    for tile in schedule:
        x0_lines = tile.rows if job.n > 0 else 0
        y_lines = tile.rows if job.accumulate else 0
        preload_stalls = max(w_initial + y_lines + x0_lines - 1, 0)
        preload_stalls += model.memory_latency
        total += preload_stalls + issue_cycles + cfg.latency + boundary

    last_tile = schedule.tile(schedule.n_tiles - 1)
    total += last_tile.rows

    ideal = -(-job.total_macs // cfg.ideal_macs_per_cycle)
    return PerfEstimate(
        job=job,
        config=cfg,
        cycles=total,
        ideal_cycles=ideal,
        overhead_cycles=total - ideal,
        n_tiles=schedule.n_tiles,
    )


# -- equivalence -------------------------------------------------------------
#: P >= 1 only: ``RedMulEConfig`` rejects P = 0 at construction.
configs = st.builds(
    RedMulEConfig,
    height=st.integers(min_value=1, max_value=8),
    length=st.integers(min_value=1, max_value=32),
    pipeline_regs=st.integers(min_value=1, max_value=4),
    w_prefetch_lines=st.integers(min_value=1, max_value=3),
    format=st.sampled_from(FORMAT_NAMES),
)


def dimension(draw, unit):
    """1..200, biased towards below one unit and exact multiples of it."""
    return draw(st.one_of(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=unit),
        st.integers(min_value=1, max_value=max(1, 200 // unit)).map(
            lambda q: q * unit),
    ))


@st.composite
def model_and_job(draw):
    config = draw(configs)
    model = RedMulEPerfModel(config, memory_latency=draw(
        st.sampled_from((0, 0, 1, 3, 7))))
    job = MatmulJob(
        x_addr=0, w_addr=0, z_addr=0,
        m=dimension(draw, config.length),
        n=dimension(draw, config.height),
        k=dimension(draw, config.elements_per_line),
        accumulate=draw(st.booleans()),
    )
    return model, job


def _case(m, n, k, accumulate=False, memory_latency=0, **config):
    job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                    accumulate=accumulate)
    return RedMulEPerfModel(RedMulEConfig(**config), memory_latency), job


@settings(max_examples=300, deadline=None)
@given(case=model_and_job())
@example(case=_case(1, 1, 1))                        # single tile
@example(case=_case(13, 20, 20))                     # ragged M and K
@example(case=_case(16, 16, 32, accumulate=True))    # exact multiples
@example(case=_case(33, 7, 5, height=2, length=4))   # one-row last tile
@example(case=_case(9, 40, 3, length=4, pipeline_regs=1,
                    format="fp8-e4m3"))              # K < elements_per_line
@example(case=_case(20, 9, 40, memory_latency=3, w_prefetch_lines=3))
# Z backlog not hidden: between two short last-row tiles, between two
# full-height tiles, and from the full-height block into the last one; a
# lone tile of the same shape has no backlog to hide.
@example(case=_case(6, 1, 4, height=1, length=13, pipeline_regs=1,
                    w_prefetch_lines=2))
@example(case=_case(6, 1, 2, height=1, length=13, pipeline_regs=1,
                    w_prefetch_lines=2))
@example(case=_case(14, 3, 9, height=1, length=14, pipeline_regs=2,
                    format="fp8-e4m3"))
@example(case=_case(11, 1, 3, accumulate=True, height=1, length=10,
                    pipeline_regs=4, w_prefetch_lines=3))
def test_closed_form_equals_per_tile_oracle(case):
    model, job = case
    assert model.estimate(job) == reference_estimate(model, job)
    # The oracle predates the rule that a slow memory is never exact.
    assert model.is_exact(job) == (reference_is_exact(model, job)
                                   and model.memory_latency == 0)


# -- structure ---------------------------------------------------------------
def _refuse_iteration(*_args, **_kwargs):
    raise AssertionError("the perf model must not walk the tile schedule")


@pytest.mark.parametrize("memory_latency", [0, 5])
def test_estimate_and_is_exact_never_walk_tiles(monkeypatch, memory_latency):
    """The 10,240-tile ``autoencoder-b1`` job on H=L=2 costs O(1) in tiles."""
    model = RedMulEPerfModel(
        RedMulEConfig(height=2, length=2, pipeline_regs=1), memory_latency)
    job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=640, n=1, k=128)
    assert TileSchedule(job, model.config).n_tiles == 10_240
    expected = (reference_estimate(model, job),
                reference_is_exact(model, job) and memory_latency == 0)

    monkeypatch.setattr(TileSchedule, "__iter__", _refuse_iteration)
    monkeypatch.setattr(TileSchedule, "tile", _refuse_iteration)
    assert (model.estimate(job), model.is_exact(job)) == expected
