"""Tests of the graph lowering pass (whole-GEMM and tiled job streams)."""

import importlib
import json
import os

import pytest

from repro.cluster.tiler import plan_tiled_matmul
from repro.farm import SimulationFarm
from repro.graph.ir import WorkloadGraph
from repro.graph.zoo import (
    autoencoder_training_graph,
    build_model,
    mlp_training_graph,
    zoo_models,
)
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES
from repro.workloads.gemm import GemmShape
from repro.workloads.training import backward_gemms, forward_gemms


def _legacy_autoencoder_gemms(batch):
    """The hand-written flat list, built from the primitive decomposition
    (independent of the graph IR, so the parity check is non-trivial)."""
    return (forward_gemms(AUTOENCODER_LAYER_SIZES, batch)
            + backward_gemms(AUTOENCODER_LAYER_SIZES, batch))


class TestAutoencoderParity:
    """Acceptance criterion: graph lowering reproduces the legacy flat list."""

    @pytest.mark.parametrize("batch", [1, 16])
    def test_job_for_job_identical_to_legacy_list(self, batch):
        program = autoencoder_training_graph(batch).lower()
        legacy = _legacy_autoencoder_gemms(batch)
        jobs = program.jobs
        assert len(jobs) == len(legacy)
        for job, training_gemm in zip(jobs, legacy):
            shape = training_gemm.shape
            assert (job.m, job.n, job.k) == (shape.m, shape.n, shape.k)
            assert job.accumulate is False
        # Same names in the same deterministic topo-sort order.
        assert [n.shape.name for n in program.gemm_nodes()] == \
            [t.shape.name for t in legacy]

    def test_gemm_workload_matches_legacy_wrapper(self):
        from repro.workloads.autoencoder import autoencoder_workload

        workload = autoencoder_workload(16)
        assert workload.name == "autoencoder-b16"
        legacy = _legacy_autoencoder_gemms(16)
        assert [s.name for s in workload.shapes] == \
            [t.shape.name for t in legacy]
        assert workload.total_macs == sum(t.shape.macs for t in legacy)

    def test_training_step_gemms_wrapper_matches_primitives(self):
        """The graph-backed thin wrapper returns the primitive composition."""
        from repro.workloads.training import training_step_gemms

        assert training_step_gemms(AUTOENCODER_LAYER_SIZES, 16) == \
            _legacy_autoencoder_gemms(16)


class TestWholeGemmLowering:
    def test_node_order_deps_and_notes(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        by_name = {node.name: node for node in program.nodes}
        assert by_name["fc1-fwd"].deps == ("relu0",)
        assert by_name["fc1-dw"].deps == ("loss-grad", "relu0")
        # Transpose-aware diagnostics from GemmShape.describe.
        assert "W^T" in by_name["fc1-dw"].note
        assert "X^T" in by_name["fc1-dx"].note

    def test_elementwise_nodes_carry_no_jobs(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        relu = next(n for n in program.nodes if n.name == "relu0")
        assert relu.kind == "elementwise"
        assert relu.jobs == ()
        assert relu.elements == 6 * 2
        assert relu.macs == 0

    def test_oversized_gemm_notes_the_plan_but_stays_whole(self):
        program = autoencoder_training_graph(16).lower()
        fc0 = next(n for n in program.nodes if n.name == "fc0-fwd")
        assert fc0.n_jobs == 1
        assert "would tile" in fc0.note

    def test_job_deps_flat_annotation(self):
        graph = mlp_training_graph((10, 6, 4), batch=2)
        program = graph.lower()
        deps = program.job_deps()
        jobs = program.jobs
        assert len(deps) == len(jobs)
        assert deps[0] == ()          # fc0-fwd has no producers
        # Every dependency index points backwards.
        for index, prerequisites in enumerate(deps):
            assert all(dep < index for dep in prerequisites)

    def test_job_deps_resolve_through_elementwise_nodes(self):
        """fc1-fwd's only node dep is the job-less relu0; its *job* must
        still depend (transitively) on fc0-fwd's job."""
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        deps = program.job_deps()
        job_index = {}
        index = 0
        for node in program.nodes:
            for _ in node.jobs:
                job_index[node.name] = index
                index += 1
        assert deps[job_index["fc1-fwd"]] == (job_index["fc0-fwd"],)
        # fc1-dw waits on loss-grad (-> fc1-fwd's job) and relu0
        # (-> fc0-fwd's job).
        assert deps[job_index["fc1-dw"]] == (
            job_index["fc0-fwd"], job_index["fc1-fwd"])
        # No job is ever dependency-free except the true entry point.
        entry_free = [i for i, d in enumerate(deps) if not d]
        assert entry_free == [job_index["fc0-fwd"]]

    def test_describe(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        text = program.describe()
        assert "whole-GEMM" in text
        assert "fc0-fwd" in text


class TestTiledLowering:
    def test_tiled_stream_preserves_macs_and_chains_accumulation(self):
        graph = WorkloadGraph("big")
        graph.add_tensor("x", 256, 256)
        graph.add_tensor("w", 256, 256)
        graph.add_tensor("z", 256, 256)
        graph.add_gemm("big", GemmShape(256, 256, 256, name="big"),
                       x="x", w="w", z="z")
        budget = 24 * 1024
        program = graph.lower(tile=True, tcdm_budget_bytes=budget)
        plan = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=budget)
        node = program.nodes[0]
        assert node.n_jobs == plan.n_jobs > 1
        assert sum(job.total_macs for job in node.jobs) == 256 ** 3
        # Inner-dimension chunks: first job of each Z tile starts fresh,
        # later chunks accumulate.
        accumulates = [job.accumulate for job in node.jobs]
        assert accumulates.count(False) == plan.tiles_m * plan.tiles_k
        if plan.tiles_n > 1:
            assert any(accumulates)
        # Flat deps chain the node's jobs.
        deps = program.job_deps()
        assert deps[1] == (0,)

    def test_small_gemms_stay_single_job_in_tiled_mode(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower(tile=True)
        assert all(node.n_jobs == 1 for node in program.nodes
                   if node.is_gemm)

    def test_tiled_timing_through_the_farm(self):
        """Tiled and whole-GEMM programs both time cleanly on the farm."""
        graph = autoencoder_training_graph(16)
        farm = SimulationFarm(backend="model", max_workers=1)
        whole = farm.time_program(graph.lower())
        tiled = farm.time_program(graph.lower(tile=True))
        assert whole.cycles > 0 and tiled.cycles > 0
        assert whole.macs == tiled.macs


class TestFarmTimeProgram:
    def test_matches_run_shapes_on_whole_gemm_program(self):
        graph = autoencoder_training_graph(1)
        farm = SimulationFarm(backend="model", max_workers=1)
        program = graph.lower()
        timing = farm.time_program(program)
        shapes = [node.shape for node in program.gemm_nodes()]
        reference = farm.time_workload(shapes)
        assert timing.cycles == reference.cycles
        assert timing.macs == reference.macs

    def test_offload_cost_is_per_job(self):
        graph = autoencoder_training_graph(1)
        farm = SimulationFarm(backend="model", max_workers=1)
        program = graph.lower()
        base = farm.time_program(program)
        loaded = farm.time_program(program, offload_cycles_per_job=10.0)
        assert loaded.cycles == base.cycles + 10.0 * program.n_jobs

    def test_per_node_breakdown_keys(self):
        graph = mlp_training_graph((10, 6, 4), batch=2)
        farm = SimulationFarm(backend="model", max_workers=1)
        timing = farm.time_program(graph.lower())
        assert "fc0-fwd" in timing.per_gemm
        assert "fc1-dw" in timing.per_gemm


#: Every note and ``describe()`` of every zoo model, whole-GEMM and tiled,
#: at the default and a 16 KiB budget, captured from the eager-note
#: lowering (the one that ran the tiling planner for every GEMM).
DESCRIBE_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                    "lower_describe_golden.json")
GOLDEN_BUDGETS = (None, 16 * 1024)
#: The module itself: ``repro.graph`` re-exports its ``lower`` function
#: under the same name.
LOWER_MODULE = importlib.import_module("repro.graph.lower")


def _lowering_diagnostics(model, tile, budget):
    kwargs = {} if budget is None else {"tcdm_budget_bytes": budget}
    program = build_model(model).lower(tile=tile, **kwargs)
    return {"notes": [node.note for node in program.nodes],
            "describe": program.describe()}


class TestLazyNote:
    def test_whole_gemm_lowering_never_plans(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("whole-GEMM lowering ran the planner")

        monkeypatch.setattr(LOWER_MODULE, "plan_tiled_matmul", refuse)
        program = autoencoder_training_graph(16).lower()
        fc0 = next(n for n in program.nodes if n.name == "fc0-fwd")
        assert fc0.n_jobs == 1
        with pytest.raises(AssertionError, match="ran the planner"):
            fc0.note
        monkeypatch.undo()
        plan = plan_tiled_matmul(fc0.shape.m, fc0.shape.n, fc0.shape.k)
        assert fc0.note.endswith(
            f" | exceeds budget, would tile as {plan.describe()}")

    def test_note_is_built_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return plan_tiled_matmul(*args, **kwargs)

        monkeypatch.setattr(LOWER_MODULE, "plan_tiled_matmul", counting)
        program = autoencoder_training_graph(16).lower()
        assert calls == []
        fc0 = next(n for n in program.nodes if n.name == "fc0-fwd")
        first = fc0.note
        assert fc0.note is first
        assert len(calls) == 1

    def test_budget_is_checked_when_lowering(self):
        with pytest.raises(ValueError, match="8 KiB"):
            mlp_training_graph((10, 6, 4), batch=2).lower(
                tcdm_budget_bytes=4 * 1024)

    @pytest.mark.parametrize("tile", [False, True],
                             ids=["whole", "tiled"])
    @pytest.mark.parametrize("model", zoo_models())
    def test_notes_and_describe_match_the_golden(self, model, tile):
        with open(DESCRIBE_GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        for budget in GOLDEN_BUDGETS:
            expected = golden[f"{model}|tile={tile}|budget={budget}"]
            assert _lowering_diagnostics(model, tile, budget) == expected
