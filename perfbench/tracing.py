"""Layer-boundary tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps the public entry points of each simulator layer from the
benchmark's own files -- nothing inside ``src/`` changes.  Every wrapped
call is timed with ``perf_counter_ns``; a call's *self* time is its
duration minus the time of the wrapped calls it made, so the layers'
self times partition the traced work.

Coarse calls (one GEMM, a drain, a sweep point, a cross-validation) are
kept as individual spans with a name, start, end, parent span and op id.
Per-request calls (stream ``next``, ``offer``, stats ``add``, telemetry
records, kernel calls) are only summed, and the sums are written as one
aggregated span per name and op block with its call count, so the
wrappers cost a few hundred nanoseconds per call.  Spans stay in memory
and are written once, when the run ends.

The FP kernels are intercepted at the module-level names their callers
(``repro.redmule.vector_ops`` and friends) look up at call time, so the
per-format FMA counts and costs are measured in place, not derived.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from common import PER_LAYER

_now = time.perf_counter_ns

#: FP kernel names bound by import in the engine's modules, each with a
#: map from a call's arguments to the element format it computes in.
_KERNELS = {
    "fma16_guarded_f64": lambda args, kwargs: "fp16",
    "fma_guarded_f64_fmt": lambda args, kwargs: (
        args[3] if len(args) > 3 else kwargs["fmt"]).name,
}


class Tracer:
    """In-memory spans and per-name call totals at layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: Free-form counts bumped by wrapper hooks and by the workloads.
        self.counters: Dict[str, float] = {}
        self.enabled = False
        self.op: Optional[str] = None
        self._stack: List[list] = []  # frames: [child_ns, span id]
        self._kept: set = set()
        self._patches: List[tuple] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------------
    def bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _timed(self, name, fn, args, kwargs, keep, before, after):
        ctx = before(*args, **kwargs) if before is not None else None
        parent = self._stack[-1][1] if self._stack else None
        span_id = self._new_id() if keep else parent
        frame = [0, span_id]
        self._stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][0] += elapsed
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            total[0] += 1
            total[1] += elapsed
            total[2] += elapsed - frame[0]
            if keep:
                self.spans.append({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": self.op,
                    "count": 1, "self_ns": elapsed - frame[0]})
        if after is not None:
            after(ctx, result, elapsed, *args, **kwargs)
        return result

    def call(self, span: str, fn: Callable, /, *args, **kwargs):
        """Time one call made by the benchmark itself (summed per op)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._timed(span, fn, args, kwargs, False, None, None)

    def span(self, span: str, fn: Callable, /, *args, **kwargs):
        """Time one coarse call made by the benchmark as a kept span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._kept.add(span)
        return self._timed(span, fn, args, kwargs, True, None, None)

    @contextmanager
    def block(self, name: str, op: str):
        """One op: a kept span, plus one aggregated span per summed name."""
        if not self.enabled:
            yield
            return
        self.op = op
        before = {key: list(value) for key, value in self.totals.items()}
        block_id = self._new_id()
        frame = [0, block_id]
        self._stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._stack.pop()
            self.spans.append({
                "id": block_id, "name": name, "start_ns": start,
                "end_ns": end, "parent": None, "op": op, "count": 1,
                "self_ns": end - start - frame[0]})
            for key, (calls, total, own) in self.totals.items():
                if key in self._kept:
                    continue
                calls0, total0, own0 = before.get(key, (0, 0, 0))
                if calls > calls0:
                    self.spans.append({
                        "id": None, "name": key, "start_ns": start,
                        "end_ns": end, "parent": block_id, "op": op,
                        "count": calls - calls0, "busy_ns": total - total0,
                        "self_ns": own - own0})
            self.op = None

    # -- patching --------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, keep: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper (undone by uninstall)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        fn = getattr(owner, attr)
        tracer = self
        if keep:
            self._kept.add(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._timed(name, fn, args, kwargs, keep, before, after)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_layers(self) -> None:
        """Wrap the public entry points of every simulator layer."""
        from repro import obs
        from repro.farm import SimulationFarm
        from repro.graph import llm
        from repro.graph.ir import WorkloadGraph
        from repro.power.area import AreaModel, ClusterAreaModel
        from repro.power.energy import EnergyModel
        from repro.redmule import RedMulE, RedMulEPerfModel
        from repro.redmule.vector_ops import backend_schedule_compiled
        from repro.serve import ContinuousServer
        from repro.serve.report import StreamingLatencyStats

        # fp: the kernels, wherever a repro module bound them by import.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro.") or module is None:
                continue
            for kernel, fmt_of in _KERNELS.items():
                if kernel in vars(module):
                    self.wrap(module, kernel, "fp.kernel",
                              after=self._fma_counter(fmt_of))

        def engine_after(ctx, result, elapsed, engine, *args, **kwargs):
            self.bump("redmule.tiles", result.n_tiles)
            self.bump("redmule.sim_cycles", result.cycles)
            if backend_schedule_compiled(engine.backend):
                self.bump("redmule.replay_jobs")

        self.wrap(RedMulE, "run_job", "redmule.run_job", keep=True,
                  after=engine_after)
        self.wrap(RedMulEPerfModel, "estimate", "perf_model.estimate")
        self.wrap(RedMulEPerfModel, "is_exact", "perf_model.is_exact")

        def farm_before(farm, *args, **kwargs):
            return (farm.stats.model_runs, farm.stats.engine_runs,
                    farm.stats.pool_batches)

        def farm_after(ctx, results, elapsed, farm, *args, **kwargs):
            model0, engine0, pool0 = ctx
            hits = sum(1 for result in results if result.cache_hit)
            model = farm.stats.model_runs - model0
            engine = farm.stats.engine_runs - engine0
            self.bump("farm.jobs", len(results))
            self.bump("farm.cache_hits", hits)
            self.bump("farm.cache_misses", len(results) - hits)
            if engine:
                self.bump("farm.engine_misses", engine)
                self.bump("farm.engine_miss_ns", elapsed)
            elif model:
                self.bump("farm.model_misses", model)
                self.bump("farm.model_miss_ns", elapsed)
            elif results:
                self.bump("farm.hit_only_jobs", len(results))
                self.bump("farm.hit_only_ns", elapsed)
            if farm.stats.pool_batches > pool0:
                self.bump("farm.pool_batches",
                          farm.stats.pool_batches - pool0)
                self.bump("farm.pool_wait_ns", elapsed)

        def load_after(ctx, loaded, elapsed, farm, *args, **kwargs):
            self.counters["farm.cache_entries"] = len(farm.cache)

        self.wrap(SimulationFarm, "run", "farm.run", before=farm_before,
                  after=farm_after)
        self.wrap(SimulationFarm, "time_program", "farm.time_program")
        self.wrap(SimulationFarm, "load_cache", "farm.load_cache", keep=True,
                  after=load_after)
        self.wrap(WorkloadGraph, "lower", "graph.lower")
        for builder in ("decode_step_graph", "decode_shared_graph",
                        "decode_attention_graph"):
            self.wrap(llm, builder, "graph.decode_graph")
        self.wrap(ContinuousServer, "offer", "serve.offer")
        self.wrap(ContinuousServer, "drain", "serve.drain", keep=True)
        self.wrap(ContinuousServer, "finalize", "serve.finalize", keep=True)
        self.wrap(StreamingLatencyStats, "add", "serve.stats_add")
        for record in ("complete_span", "instant", "sample", "count",
                       "observe"):
            self.wrap(obs.Telemetry, record, "obs.record")
        for export in ("export_chrome_trace", "export_metrics"):
            self.wrap(obs.Telemetry, export, "obs.export", keep=True)
        self.wrap(AreaModel, "total", "power.area",
                  after=lambda *a, **k: self.bump("power.configs"))
        self.wrap(ClusterAreaModel, "total", "power.cluster_area")
        self.wrap(EnergyModel, "cluster_power_accel_w", "power.energy")

    def _fma_counter(self, fmt_of):
        def after(ctx, result, elapsed, *args, **kwargs):
            fmt = fmt_of(args, kwargs)
            lanes = max(getattr(arg, "size", 1) for arg in args[:3])
            self.bump("fp.fmas." + fmt, lanes)
            self.bump("fp.ns." + fmt, elapsed)
        return after

    # -- reporting -------------------------------------------------------------
    def total(self, name: str, field: int = 1) -> int:
        """Calls (field 0), total ns (1) or self ns (2) of ``name``."""
        return self.totals.get(name, (0, 0, 0))[field]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, overhead_ratio: float,
                  time_scale: float) -> Dict[str, float]:
    """Every per-layer metric of ``common.PER_LAYER`` from a traced run.

    ``traced_s`` is the measured host time of the traced ops (the base of
    ``obs.share``); ``time_scale`` converts measured time to reference
    seconds (see ``common.ScaledTimer``) and is applied to every metric
    whose unit is a time.  Layers the workload never enters read 0.
    """
    c = tracer.counters.get
    t = tracer.total
    fmas = {fmt: c("fp.fmas." + fmt, 0)
            for fmt in ("fp16", "bf16", "fp8-e4m3")}
    engine_jobs = t("redmule.run_job", 0)
    engine_ns = t("redmule.run_job")
    sim_cycles = c("redmule.sim_cycles", 0)
    tiles = c("redmule.tiles", 0)
    requests = c("serve.requests", 0)
    steps = c("serve.decode.steps", 0)
    obs_ns = t("obs.record", 2) + t("obs.export", 2)
    metrics = {
        "fp.fmas": sum(fmas.values()),
        **{f"fp.ns_per_fma.{fmt}": _ratio(c("fp.ns." + fmt, 0), count)
           for fmt, count in fmas.items()},
        "redmule.jobs": engine_jobs,
        "redmule.tiles": tiles,
        "redmule.sim_cycles": sim_cycles,
        "redmule.busy_s": engine_ns / 1e9,
        "redmule.ns_per_sim_cycle": _ratio(engine_ns, sim_cycles),
        "redmule.us_per_tile": _ratio(engine_ns / 1e3, tiles),
        "redmule.trace_replay_ratio": _ratio(c("redmule.replay_jobs", 0),
                                             engine_jobs),
        "perf_model.estimates": t("perf_model.estimate", 0),
        "perf_model.us_per_estimate": _ratio(t("perf_model.estimate") / 1e3,
                                             t("perf_model.estimate", 0)),
        "perf_model.is_exact_calls": t("perf_model.is_exact", 0),
        "perf_model.us_per_is_exact": _ratio(t("perf_model.is_exact") / 1e3,
                                             t("perf_model.is_exact", 0)),
        "farm.jobs": c("farm.jobs", 0),
        "farm.cache_hits": c("farm.cache_hits", 0),
        "farm.cache_misses": c("farm.cache_misses", 0),
        "farm.hit_ratio": _ratio(c("farm.cache_hits", 0), c("farm.jobs", 0)),
        "farm.us_per_hit": _ratio(c("farm.hit_only_ns", 0) / 1e3,
                                  c("farm.hit_only_jobs", 0)),
        "farm.us_per_model_miss": _ratio(c("farm.model_miss_ns", 0) / 1e3,
                                         c("farm.model_misses", 0)),
        "farm.us_per_engine_miss": _ratio(c("farm.engine_miss_ns", 0) / 1e3,
                                          c("farm.engine_misses", 0)),
        "farm.pool_batches": c("farm.pool_batches", 0),
        "farm.pool_wait_s": c("farm.pool_wait_ns", 0) / 1e9,
        "farm.cache_load_s": t("farm.load_cache") / 1e9,
        "farm.cache_entries": c("farm.cache_entries", 0),
        "graph.lowerings": t("graph.lower", 0),
        "graph.us_per_lower": _ratio(t("graph.lower") / 1e3,
                                     t("graph.lower", 0)),
        "graph.decode_graphs": t("graph.decode_graph", 0),
        "graph.us_per_decode_graph": _ratio(t("graph.decode_graph") / 1e3,
                                            t("graph.decode_graph", 0)),
        "serve.requests": requests,
        "serve.gen_ns_per_req": _ratio(t("serve.gen"), requests),
        "serve.offer_ns_per_req": _ratio(t("serve.offer", 2), requests),
        "serve.stats_ns_per_req": _ratio(t("serve.stats_add"), requests),
        "serve.drain_s": t("serve.drain") / 1e9,
        "serve.finalize_s": t("serve.finalize") / 1e9,
        "serve.memo_hit_ratio": _ratio(
            c("serve.memo_hits", 0),
            c("serve.memo_hits", 0) + c("serve.memo_misses", 0)),
        "serve.rejected": c("serve.rejected", 0),
        "serve.decode.sessions": c("serve.decode.sessions", 0),
        "serve.decode.steps": steps,
        "serve.decode.batched_ratio": _ratio(c("serve.decode.batched", 0),
                                             steps),
        "serve.decode.mean_occupancy": _ratio(
            c("serve.decode.occupancy_sum", 0), steps),
        "serve.decode.step_memo_misses": c("serve.decode.memo_misses", 0),
        "serve.decode.ns_per_step": _ratio(
            t("serve.offer") + t("serve.drain"), steps),
        "obs.records": t("obs.record", 0),
        "obs.ns_per_record": _ratio(t("obs.record"), t("obs.record", 0)),
        "obs.events": c("obs.events", 0),
        "obs.dropped_events": c("obs.dropped_events", 0),
        "obs.export_s": t("obs.export") / 1e9,
        "obs.share": _ratio(obs_ns / 1e9, traced_s),
        "dse.points": c("dse.points", 0),
        "dse.us_per_point": _ratio(t("dse.sweep") / 1e3, c("dse.points", 0)),
        "dse.model_exact_ratio": _ratio(c("dse.model_exact", 0),
                                        c("dse.points", 0)),
        "dse.crossval_jobs": c("dse.crossval_jobs", 0),
        "power.us_per_config": _ratio(
            (t("power.area") + t("power.cluster_area")
             + t("power.energy")) / 1e3, c("power.configs", 0)),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, unit in PER_LAYER:
        if unit in ("ns", "us", "s"):
            metrics[name] *= time_scale
    return metrics
