"""Tests of the analytic design-space sweep driver and its exports."""

import csv
import json
import os

import pytest

from repro.dse import (
    DesignSpace,
    EXPORT_COLUMNS,
    cross_validate,
    sweep,
)
from repro.farm import (
    BACKEND_MODEL,
    POLICY_ANALYTIC,
    SimulationFarm,
    TimingCache,
)
from repro.graph.zoo import mlp_training_graph
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.workloads.gemm import GemmShape


def small_graph():
    return mlp_training_graph((10, 6, 4), batch=2)


def small_space():
    return DesignSpace.grid(height=(2, 4), length=(4, 8),
                            pipeline_regs=(2, 3))


class TestAnalyticFarmPolicy:
    def test_analytic_policy_routes_every_job_to_the_model(self):
        farm = SimulationFarm(backend=POLICY_ANALYTIC, max_workers=1)
        # Far below the engine threshold: auto routing would pick the engine.
        result = farm.run_gemm(8, 8, 8)
        assert result.backend == BACKEND_MODEL
        assert farm.stats.engine_runs == 0
        assert farm.stats.model_runs == 1

    def test_analytic_records_share_the_model_cache_namespace(self):
        cache = TimingCache()
        analytic = SimulationFarm(backend=POLICY_ANALYTIC, max_workers=1,
                                  cache=cache)
        analytic.run_gemm(8, 8, 8)
        model = SimulationFarm(backend=BACKEND_MODEL, max_workers=1,
                               cache=cache)
        assert model.run_gemm(8, 8, 8).cache_hit

    def test_per_call_analytic_override(self):
        farm = SimulationFarm(max_workers=1)  # auto policy
        result = farm.run_gemm(8, 8, 8, backend=POLICY_ANALYTIC)
        assert result.backend == BACKEND_MODEL

    def test_invalid_backend_message_lists_analytic(self):
        with pytest.raises(ValueError, match="analytic"):
            SimulationFarm(backend="fpga")


class TestSweep:
    def test_one_record_per_point(self):
        space = small_space()
        result = sweep(space, small_graph())
        assert len(result) == len(space)
        heights = {point.height for point in result.points}
        assert heights == {2, 4}

    def test_serial_cycles_match_farm_time_program(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        (point,) = result.points
        config = RedMulEConfig(height=4, length=8, pipeline_regs=3)
        farm = SimulationFarm(config=config, backend=BACKEND_MODEL,
                              max_workers=1)
        program = small_graph().lower(config=config)
        assert point.serial_cycles == farm.time_program(program).cycles

    def test_memory_latency_adds_one_latency_per_tile(self):
        space = DesignSpace.grid(memory_latency=(0, 7))
        result = sweep(space, small_graph())
        base, slow = result.points
        config = base.point.config
        program = small_graph().lower(config=config)
        model = RedMulEPerfModel(config)
        tiles = sum(model.estimate(job).n_tiles for job in program.jobs)
        assert slow.serial_cycles == base.serial_cycles + 7 * tiles
        # ... which is exactly the perf model's own memory_latency extension.
        slow_model = RedMulEPerfModel(config, memory_latency=7)
        assert slow.serial_cycles == sum(
            slow_model.estimate(job).cycles for job in program.jobs
        )

    def test_offload_cost_charged_per_job(self):
        graph = small_graph()
        space = DesignSpace.grid(height=(4,))
        plain = sweep(space, graph)
        charged = sweep(space, graph, offload_cycles_per_job=50.0)
        n_jobs = plain.points[0].n_jobs
        assert charged.points[0].serial_cycles == \
            plain.points[0].serial_cycles + 50.0 * n_jobs

    def test_critical_path_bounds_serial(self):
        result = sweep(small_space(), small_graph())
        for point in result.points:
            assert 0 < point.makespan_cycles <= point.serial_cycles
            assert point.parallelism >= 1.0

    def test_area_grows_with_array_size(self):
        result = sweep(DesignSpace.grid(height=(2, 8)), small_graph())
        small, large = result.points
        assert large.n_fma > small.n_fma
        assert large.area_mm2 > small.area_mm2

    def test_tcdm_banks_scale_cluster_area_only(self):
        result = sweep(DesignSpace.grid(tcdm_banks=(8, 32)), small_graph())
        few, many = result.points
        assert many.cluster_area_mm2 > few.cluster_area_mm2
        assert many.area_mm2 == few.area_mm2
        assert many.serial_cycles == few.serial_cycles

    def test_environment_axes_reuse_the_per_config_timing(self):
        # Environment axes (banks, latency) repeat the same configuration;
        # the sweep times each distinct config once and derives the rest,
        # so the farm sees no extra traffic at all for the repeats.
        alone = sweep(DesignSpace.grid(height=(2, 4)), small_graph())
        widened = sweep(
            DesignSpace.grid(height=(2, 4), tcdm_banks=(8, 16),
                             memory_latency=(0, 4)),
            small_graph(),
        )
        assert len(widened) == 4 * len(alone)
        assert widened.cache_misses == alone.cache_misses

    def test_explicit_cache_shared_across_sweeps(self):
        cache = TimingCache()
        space = small_space()
        first = sweep(space, small_graph(), cache=cache)
        second = sweep(space, small_graph(), cache=cache)
        assert first.cache_misses > 0
        # Every shape of the re-run is served from the shared cache.
        assert second.cache_misses == 0
        assert second.cache_hit_rate == 1.0
        assert [p.serial_cycles for p in second.points] == \
            [p.serial_cycles for p in first.points]

    def test_workload_forms_agree(self):
        shapes = [GemmShape(8, 8, 8, "a"), GemmShape(4, 16, 4, "b")]
        by_shapes = sweep(DesignSpace.grid(height=(4,)), shapes)
        (point,) = by_shapes.points
        model = RedMulEPerfModel(point.point.config)
        expected = sum(
            model.estimate(MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                                     m=s.m, n=s.n, k=s.k)).cycles
            for s in shapes
        )
        assert point.serial_cycles == expected
        # Independent GEMMs: the makespan floor is the largest single job.
        assert point.makespan_cycles < point.serial_cycles

    def test_zoo_name_workload(self):
        result = sweep(DesignSpace.grid(height=(4,)), "mlp-tiny")
        assert result.workload_name == "mlp-tiny"

    def test_model_exact_flag_marks_saturated_geometries(self):
        # The (12, 40, 8) hidden-layer job (m=12 rows, n=40 inner) forces
        # mid-tile X refills, so the per-window port demand is H + min(m, L).
        # H=4, L=8, P=2: demand 12 <= block_k = 12 (uncontended);
        # H=6, L=8, P=1: demand 14 > block_k = 12 (saturated wide port).
        graph = mlp_training_graph((40, 12, 4), batch=8)
        exact = sweep(
            DesignSpace.grid(height=(4,), length=(8,), pipeline_regs=(2,)),
            graph,
        )
        saturated = sweep(
            DesignSpace.grid(height=(6,), length=(8,), pipeline_regs=(1,)),
            graph,
        )
        assert exact.points[0].model_exact
        assert exact.trusted_points == exact.points
        assert not saturated.points[0].model_exact
        assert saturated.trusted_points == []

    def test_exactness_scan_reaches_the_last_distinct_shape(self):
        # On H=6, L=8, P=1 the small shapes are exact and (12, 40, 8)
        # saturates the wide port (see above); repeats of the exact shapes
        # come first, so only a scan over every distinct shape sees it.
        space = DesignSpace.grid(height=(6,), length=(8,), pipeline_regs=(1,))
        model = RedMulEPerfModel(next(space.points()).config)
        small = [GemmShape(m, 4, 4, name=f"s{m}") for m in range(1, 9)]
        late = GemmShape(12, 40, 8, name="late")
        assert all(model.is_exact(MatmulJob(0, 0, 0, s.m, s.n, s.k))
                   for s in small)
        assert not model.is_exact(MatmulJob(0, 0, 0, 12, 40, 8))
        assert sweep(space, small * 3).points[0].model_exact
        assert not sweep(space, small * 3 + [late]).points[0].model_exact

    def test_negative_offload_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_space(), small_graph(), offload_cycles_per_job=-1)

    def test_render_smoke(self):
        result = sweep(small_space(), small_graph())
        text = result.render()
        assert "pareto frontier" in text
        assert "points/s" in text


#: ``as_row()`` of every point of two sweeps of ``autoencoder-b1`` over a
#: grid spanning three formats and both environment axes (one whole-GEMM,
#: one tiled with a per-job offload cost), captured from the sweep that
#: scanned every job for exactness and rebuilt a model per farm miss.
SWEEP_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                 "dse_sweep_golden.json")
GOLDEN_SWEEPS = {
    "whole": {},
    "tiled-offload": {"tile": True, "tcdm_budget_bytes": 8 * 1024,
                      "offload_cycles_per_job": 12.5},
}


class TestSweepGolden:
    @pytest.mark.parametrize("label", sorted(GOLDEN_SWEEPS))
    def test_rows_match_the_golden(self, label):
        space = DesignSpace.grid(height=(2, 4), length=(4, 8),
                                 pipeline_regs=(1, 3),
                                 precision=("fp16", "bf16", "fp8-e4m3"),
                                 tcdm_banks=(8, 16), memory_latency=(0, 7))
        with open(SWEEP_GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)[label]
        result = sweep(space, "autoencoder-b1", **GOLDEN_SWEEPS[label])
        rows = [point.as_row() for point in result.points]
        assert "wall_clock_s" not in EXPORT_COLUMNS
        assert len(rows) == len(golden) == len(space)
        assert rows == golden
        # Both sides of the exactness flag are pinned.
        assert {row["model_exact"] for row in rows} == {True, False}


class TestExports:
    def test_csv_round_trip_into_missing_directory(self, tmp_path):
        result = sweep(small_space(), small_graph())
        path = tmp_path / "deep" / "nested" / "points.csv"
        assert result.to_csv(path) == len(result)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result)
        assert set(rows[0]) == set(EXPORT_COLUMNS)
        assert float(rows[0]["serial_cycles"]) == \
            result.points[0].serial_cycles

    def test_json_export_carries_frontier_indices(self, tmp_path):
        result = sweep(small_space(), small_graph())
        path = tmp_path / "out" / "points.json"
        result.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["n_points"] == len(result)
        assert len(payload["points"]) == len(result)
        frontier = result.pareto()
        assert len(payload["pareto_indices"]) == len(frontier)
        for index in payload["pareto_indices"]:
            row = payload["points"][index]
            assert any(
                row["serial_cycles"] == point.serial_cycles
                and row["area_mm2"] == point.area_mm2
                for point in frontier
            )


class TestCrossValidation:
    def test_exact_domain_validates_with_zero_error(self):
        result = sweep(small_space(), small_graph())
        report = cross_validate(result, sample=2, max_workers=1,
                                trusted_only=True)
        assert report.jobs_checked > 0
        assert report.max_rel_error == 0.0
        assert report.ok
        assert all(sample.exact_expected for sample in report.samples)

    def test_describe_mentions_tolerance(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        report = cross_validate(result, sample=1, max_workers=1)
        assert "cross-validation" in report.describe()
        assert "tolerance" in report.describe()

    def test_sample_of_one_over_many_candidates(self):
        # Regression: sample=1 with a multi-point frontier used to divide
        # by zero in the even-spread index computation.
        result = sweep(small_space(), small_graph())
        assert len(result.pareto()) > 1
        report = cross_validate(result, sample=1, max_workers=1)
        assert len(report.samples) == 1

    def test_zero_sample_rejected(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        with pytest.raises(ValueError, match="sample"):
            cross_validate(result, sample=0)

    def test_vacuous_validation_is_not_ok(self):
        # Every job above the MAC cap -> nothing is checked -> the gate
        # must refuse to report success.
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        report = cross_validate(result, sample=1, max_macs_per_job=0)
        assert report.jobs_checked == 0
        assert not report.ok
        assert "VACUOUS" in report.describe()

    def test_best_trusted_only(self):
        from repro.graph.zoo import mlp_training_graph

        graph = mlp_training_graph((40, 12, 4), batch=8)
        # H=6 P=1 saturates (flattered estimate), H=4 P=2 is exact.
        result = sweep(
            DesignSpace.grid(height=(4, 6), length=(8,),
                             pipeline_regs=(1, 2)),
            graph,
        )
        assert not all(point.model_exact for point in result.points)
        best_any = result.best("serial_cycles")
        best_trusted = result.best("serial_cycles", trusted_only=True)
        assert best_trusted.model_exact
        # The unrestricted winner here is a flattered saturated point.
        assert not best_any.model_exact
