"""The benchmark's four workloads.

Each workload drives the simulator through its public API in *passes*: a
pass is a fixed, seeded amount of work (one GEMM list, one serving
episode, one full DSE grid), so its simulated outputs are deterministic
and can be checked, while the worker repeats passes until the run's time
is up.  Only the work inside a pass's timed region counts toward the
host-time metrics; checks run between passes, outside it.

A workload's *unit* is what its throughput counts and its percentiles
time: a GEMM (throughput in MACs), a request, a decode token-step, a
design point.  Simulated time (cycles) is never a metric here: it is
deterministic, so it is checked instead -- any drift is a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from common import (DEFAULT_SEED, EXPECTED_FILE, WORK_DIR, ScaledTimer,
                    load_json)
from tracing import Tracer

#: The paper's measured peak: 31.6 MAC/cycle of the ideal 32 (98.8 %).
PAPER_PEAK_MACS_PER_CYCLE = 31.6
PAPER_PEAK_UTILISATION = 0.988
#: Square GEMM size the model peak is read at (the top of Fig. 3d's sweep).
MODEL_PEAK_SIZE = 512


class PassResult:
    """Outcome of one pass: work done, host time, samples and op counts.

    ``busy_s`` and ``samples_us`` are in reference seconds (see
    ``common.ScaledTimer``); ``raw_s`` is the same time as measured.
    """

    def __init__(self, work: float, timer: ScaledTimer,
                 samples_us: List[float], attempted: int,
                 outputs: object) -> None:
        self.work = work
        self.busy_s = timer.scaled_s
        self.raw_s = timer.raw_s
        self.samples_us = samples_us
        self.attempted = attempted
        self.failed = 0
        #: Simulated outputs handed to ``Workload.check`` (outside timing).
        self.outputs = outputs


class Workload:
    """Base class: set-up, pre-flight checks, passes and pass checks."""

    name = ""
    #: Passes an untraced run makes even when they outlast ``--seconds``.
    min_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failures: List[str] = []
        #: Serving workloads load the persisted timing cache in set-up;
        #: the steps that write it (and the expected file) start cold.
        self.load_cache = True
        self.expected: Optional[dict] = None
        if seed == DEFAULT_SEED and os.path.exists(EXPECTED_FILE):
            self.expected = load_json(EXPECTED_FILE).get(self.name)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def pass_seed(self, index: int) -> int:
        """Seed of pass ``index``: distinct per (workload seed, pass)."""
        return self.seed * 100_003 + index

    def setup(self) -> None:
        """Everything a user pays before the first timed op."""

    def preflight(self) -> None:
        """Checks that run once after set-up, outside timing."""

    def run_pass(self, index: int, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, index: int, result: PassResult, tracer) -> None:
        """Verify a pass's simulated outputs; sets ``result.failed``."""

    def samples(self, passes: List[PassResult]) -> List[float]:
        """The percentile samples of a run (us per unit)."""
        return [sample for p in passes for sample in p.samples_us]

    def accuracy_lines(self) -> List[str]:
        return [_paper_line()]

    def named_extra(self) -> Dict[str, tuple]:
        """Extra printed figures: name -> (value, unit, sample count)."""
        return {}


def _paper_line() -> str:
    from repro.redmule import MatmulJob, RedMulEConfig, RedMulEPerfModel

    config = RedMulEConfig.reference()
    size = MODEL_PEAK_SIZE
    estimate = RedMulEPerfModel(config).estimate(
        MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=size, n=size, k=size))
    peak = estimate.total_macs / estimate.cycles
    return (f"accuracy: reference instance peak from the model "
            f"{peak:.2f} MAC/cycle ({peak / config.ideal_macs_per_cycle:.1%}"
            f" of {config.ideal_macs_per_cycle}, {size}^3 GEMM) vs paper "
            f"{PAPER_PEAK_MACS_PER_CYCLE} MAC/cycle "
            f"({PAPER_PEAK_UTILISATION:.1%})")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -- gemm-engine --------------------------------------------------------------
#: One pass runs every shape in every format, in a seeded order, on fresh
#: seeded operands.  Shapes cover a single tile, ragged edges, multi-tile
#: and ``accumulate=True``; the largest shape appears twice per format so
#: the 90th percentile sits inside one shape class rather than between two.
GEMM_SHAPES = (
    (8, 16, 16, False),
    (8, 16, 16, True),
    (13, 17, 19, True),
    (27, 33, 21, False),
    (40, 24, 40, True),
    (32, 64, 32, False),
    (48, 64, 48, False),
    (48, 64, 48, False),
)
GEMM_FORMATS = ("fp16", "bf16", "fp8-e4m3")
#: The bit-exact, event-stepped arithmetic backend (never ``fast``).
GEMM_BACKEND = "exact-simd"
#: Operand scale ``run_functional_job`` draws its seeded operands with.
OPERAND_SCALE = 0.25


class GemmEngine(Workload):
    """Closed loop, one caller: GEMMs on the cycle-accurate engine."""

    name = "gemm-engine"

    def setup(self) -> None:
        from repro.farm import (DEFAULT_ENGINE_MACS_THRESHOLD, config_key,
                                run_functional_job)
        from repro.redmule import RedMulEConfig, RedMulEPerfModel

        self.run_functional_job = run_functional_job
        self.configs = {fmt: RedMulEConfig(format=fmt) for fmt in GEMM_FORMATS}
        self.keys = {fmt: config_key(config)
                     for fmt, config in self.configs.items()}
        self.models = {fmt: RedMulEPerfModel(config)
                       for fmt, config in self.configs.items()}
        for m, n, k, _ in GEMM_SHAPES:
            if m * n * k > DEFAULT_ENGINE_MACS_THRESHOLD:
                raise ValueError(f"{m}x{n}x{k} exceeds the farm's engine "
                                 "threshold")
        # Lazy kernel and format tables fill on the first GEMM per format.
        for fmt in GEMM_FORMATS:
            run_functional_job(self.keys[fmt], 8, 16, 16, False,
                               GEMM_BACKEND, seed=0)
        self.macs = 0
        self.peak_cycles = 0  # sum of cycles x the format's peak MAC/cycle

    def ops(self, index: int) -> List[tuple]:
        """The seeded op list of pass ``index``: (fmt, m, n, k, acc, seed)."""
        rng = np.random.default_rng(self.pass_seed(index))
        ops = [(fmt,) + shape for fmt in GEMM_FORMATS for shape in GEMM_SHAPES]
        return [ops[j] + (int(rng.integers(0, 1 << 30)),)
                for j in rng.permutation(len(ops))]

    def run_pass(self, index: int, tracer) -> PassResult:
        outputs, samples, macs = [], [], 0
        timer = ScaledTimer()
        for number, (fmt, m, n, k, acc, seed) in enumerate(self.ops(index)):
            timer.start()
            try:
                with tracer.block("gemm", f"{index}:{number}"):
                    cycles, image = tracer.span(
                        "farm.run_functional_job", self.run_functional_job,
                        self.keys[fmt], m, n, k, acc, GEMM_BACKEND,
                        seed=seed)
            except Exception as error:  # noqa: BLE001 -- a failed op
                timer.stop()
                outputs.append(((fmt, m, n, k, acc, seed), None, repr(error)))
                continue
            samples.append(timer.stop() * 1e6)
            macs += m * n * k
            outputs.append(((fmt, m, n, k, acc, seed), cycles, image))
        return PassResult(macs, timer, samples, len(outputs), outputs)

    def golden_image(self, fmt: str, m: int, n: int, k: int, acc: bool,
                     seed: int) -> bytes:
        """Z image from the library's vectorised bit-exact golden model."""
        from repro.fp import get_format, random_matrix
        from repro.fp.vector import pack_matrix
        from repro.redmule.functional import matmul_hw_order_simd_fmt

        f = get_format(fmt)
        x = random_matrix(m, n, f, scale=OPERAND_SCALE, seed=seed)
        w = random_matrix(n, k, f, scale=OPERAND_SCALE, seed=seed + 1)
        z0 = (random_matrix(m, k, f, scale=OPERAND_SCALE, seed=seed + 2)
              if acc else None)
        return pack_matrix(matmul_hw_order_simd_fmt(x, w, f, z0), f)

    def check(self, index: int, result: PassResult, tracer) -> None:
        from repro.redmule import MatmulJob

        expected = (self.expected["pass0"]
                    if self.expected is not None and index == 0 else None)
        for number, (op, cycles, image) in enumerate(result.outputs):
            fmt, m, n, k, acc, seed = op
            label = f"pass {index} op {number} {fmt} {m}x{n}x{k}"
            if cycles is None:
                self.fail(f"{label}: raised {image}")
                result.failed += 1
                continue
            problems = []
            config = self.configs[fmt]
            job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                            accumulate=acc,
                            element_bytes=config.element_bytes)
            model = self.models[fmt]
            if model.is_exact(job) and model.estimate(job).cycles != cycles:
                problems.append(f"engine {cycles} cycles != model "
                                f"{model.estimate(job).cycles}")
            if image != self.golden_image(fmt, m, n, k, acc, seed):
                problems.append("Z image differs from the golden model")
            if expected is not None:
                want = expected[number]
                got = [fmt, m, n, k, acc, cycles, _digest(image)]
                if got != want:
                    problems.append(f"expected {want}, got {got}")
            if problems:
                self.fail(f"{label}: " + "; ".join(problems))
                result.failed += 1
            self.macs += m * n * k
            self.peak_cycles += cycles * config.ideal_macs_per_cycle

    def accuracy_lines(self) -> List[str]:
        line = _paper_line()
        if self.peak_cycles:
            line += (f"; gemm-engine op set simulated utilisation "
                     f"{self.macs / self.peak_cycles:.1%}")
        return [line]

    def reference(self) -> dict:
        """Expected pass-0 outputs from the scalar ``exact`` oracle."""
        from repro.fp import get_format, random_matrix
        from repro.fp.vector import matrix_to_bits_fmt
        from repro.redmule.functional import matmul_hw_order_exact_fmt

        rows = []
        for fmt, m, n, k, acc, seed in self.ops(0):
            cycles, image = self.run_functional_job(
                self.keys[fmt], m, n, k, acc, "exact", seed=seed)
            f = get_format(fmt)
            bits = [matrix_to_bits_fmt(random_matrix(
                r, c, f, scale=OPERAND_SCALE, seed=s), f)
                for r, c, s in ((m, n, seed), (n, k, seed + 1),
                                (m, k, seed + 2))]
            oracle = matmul_hw_order_exact_fmt(
                bits[0], bits[1], f, bits[2] if acc else None)
            oracle_image = b"".join(
                int(v).to_bytes(f.storage_bytes, "little")
                for row in oracle for v in row)
            if oracle_image != image:
                raise AssertionError(f"{fmt} {m}x{n}x{k}: exact engine "
                                     "disagrees with the scalar oracle")
            rows.append([fmt, m, n, k, acc, cycles, _digest(image)])
        return {"pass0": rows}


# -- serving workloads ----------------------------------------------------------
def cache_file(workload: str) -> str:
    return os.path.join(WORK_DIR, f"{workload}-timing-cache.json")


#: serve-million's pool and rate: four clusters at 12k req/s, ~75 %
#: simulated utilisation; admission bounds the queue at 256.
ATOMIC_CLUSTERS = 4
ATOMIC_MAX_QUEUE = 256
#: Simulated window of one episode (~12k requests).
ATOMIC_EPISODE_S = 1.0
#: Requests per timed block (the percentile samples).
REQUEST_BLOCK = 1024


class ServeAtomic(Workload):
    """Open-loop Poisson traffic of the serve-million tenant mix."""

    name = "serve-atomic"

    def setup(self) -> None:
        from repro.experiments.serve import DEFAULT_MILLION_RPS, million_tenants
        from repro.farm import default_farm
        from repro.serve import AdmissionPolicy, RequestGenerator

        self.tenants = million_tenants(DEFAULT_MILLION_RPS)
        self.farm = default_farm()
        if self.load_cache:
            self.farm.load_cache(cache_file(self.name))
        self.admission = AdmissionPolicy(max_queue=ATOMIC_MAX_QUEUE)
        self.frequency_hz = RequestGenerator(self.tenants).frequency_hz
        self.server = self.primed_server()

    def primed_server(self):
        """A fresh server whose service memo holds every tenant model."""
        from repro.farm import BACKEND_MODEL
        from repro.serve import ContinuousServer

        server = ContinuousServer(
            n_clusters=ATOMIC_CLUSTERS, farm=self.farm, backend=BACKEND_MODEL,
            frequency_hz=self.frequency_hz, admission=self.admission)
        for tenant in self.tenants:
            for model in tenant.models:
                server.service_cycles(model.graph, tenant.precision)
        return server

    def preflight(self) -> None:
        """One request x one cluster == farm.time_program, per model and
        routed precision of the mix."""
        from repro.farm import BACKEND_MODEL
        from repro.serve import ContinuousServer, Request

        for tenant in self.tenants:
            for model in tenant.models:
                effective = (model.graph.precision or tenant.precision
                             or self.farm.config.format)
                farm = self.farm.with_format(effective)
                program = model.graph.lower(config=farm.config)
                serial = int(round(farm.time_program(
                    program, backend=BACKEND_MODEL).cycles))
                server = ContinuousServer(n_clusters=1, farm=self.farm,
                                          backend=BACKEND_MODEL)
                report = server.simulate([Request(
                    request_id=0, tenant=tenant.name, model=model.name,
                    graph=model.graph, arrival_cycle=0,
                    precision=tenant.precision)])
                if report.makespan_cycles != serial:
                    self.fail(f"conservation: {model.name}@{effective} "
                              f"one request {report.makespan_cycles} cycles "
                              f"!= time_program {serial}")

    def stream(self, index: int):
        from repro.serve import RequestGenerator

        return RequestGenerator(self.tenants, seed=self.pass_seed(index)
                                ).stream(ATOMIC_EPISODE_S, "poisson")

    def run_pass(self, index: int, tracer) -> PassResult:
        server, stream = self.server, self.stream(index)
        samples: List[float] = []
        offer = server.offer
        timer = ScaledTimer()
        request = True
        block = 0
        while request is not None:
            timer.start()
            with tracer.block("serve.requests", f"{index}:{block}"):
                done = 0
                while done < REQUEST_BLOCK:
                    request = (tracer.call("serve.gen", next, stream, None)
                               if tracer.enabled else next(stream, None))
                    if request is None:
                        break
                    offer(request)
                    done += 1
            elapsed = timer.stop()
            if done == REQUEST_BLOCK:
                samples.append(elapsed / REQUEST_BLOCK * 1e6)
            block += 1
        timer.start()
        server.drain()
        report = server.finalize("serve-million")
        timer.stop()
        if tracer.enabled:
            _count_serve(tracer, report)
        self.server = self.primed_server()
        return PassResult(report.offered, timer, samples, report.offered,
                          report)

    def check(self, index: int, result: PassResult, tracer) -> None:
        report = result.outputs
        problems = _closure(report)
        if self.expected is not None and index == 0:
            problems += _compare(self.expected["episode0"],
                                 serve_summary(report))
        if problems:
            self.fail(f"episode {index}: " + "; ".join(problems))
            result.failed = result.attempted

    def reference(self) -> dict:
        result = self.run_pass(0, _NULL_TRACER)
        return {"episode0": serve_summary(result.outputs)}


def serve_summary(report) -> dict:
    """The simulated figures of a serving episode the checks compare."""
    summary = {
        "offered": report.offered, "completed": report.completed,
        "rejected": report.rejected,
        "p50_cycles": report.latency.p50, "p99_cycles": report.latency.p99,
        "makespan_cycles": report.makespan_cycles,
    }
    if report.decode_steps:
        summary["decode_steps"] = report.decode_steps
        summary["decode_batched_steps"] = report.decode_batched_steps
    return summary


def _closure(report) -> List[str]:
    problems = []
    if report.offered != report.admitted + report.rejected:
        problems.append(f"offered {report.offered} != admitted "
                        f"{report.admitted} + rejected {report.rejected}")
    if report.completed != report.admitted:
        problems.append(f"completed {report.completed} != admitted "
                        f"{report.admitted}")
    return problems


def _compare(expected: dict, got: dict) -> List[str]:
    return [f"{key}: expected {value}, got {got.get(key)}"
            for key, value in expected.items() if got.get(key) != value]


def _count_serve(tracer, report) -> None:
    tracer.bump("serve.requests", report.offered)
    tracer.bump("serve.rejected", report.rejected)
    tracer.bump("serve.memo_hits", report.memo_hits)
    tracer.bump("serve.memo_misses", report.memo_misses)


#: serve-decode's pool: four clusters, continuous batching at cap 8, 40k
#: sessions/s (busy enough that steps coalesce), sessions prefill 8
#: tokens and generate 16.
DECODE_CLUSTERS = 4
DECODE_BATCH_CAP = 8
DECODE_RPS = 40_000.0
DECODE_PREFILL = 8
DECODE_STEPS = 16
#: Simulated window of one episode (~3.7k sessions, ~38k token-steps).
DECODE_EPISODE_S = 0.1
#: Sessions offered per timed block; a sample is the block's host time
#: over the token-steps the loop advanced through in it.  An episode has
#: ~57 blocks, so its cold first block stays far above the 90th percentile.
SESSION_BLOCK = 64


class ServeDecode(Workload):
    """Open-loop decode sessions with live telemetry exported per episode."""

    name = "serve-decode"

    def setup(self) -> None:
        from repro.experiments.serve import decode_session_classes
        from repro.farm import default_farm

        self.sessions = decode_session_classes(DECODE_PREFILL, DECODE_STEPS)
        self.farm = default_farm()
        if self.load_cache:
            self.farm.load_cache(cache_file(self.name))
        self.trace_path = os.path.join(WORK_DIR, "serve-decode-trace.json")
        self.metrics_path = os.path.join(WORK_DIR,
                                         "serve-decode-metrics.json")
        os.makedirs(WORK_DIR, exist_ok=True)

    def preflight(self) -> None:
        """One session x one cluster == the serial sum of its per-step
        time_program makespans, for both session classes."""
        from repro.farm import BACKEND_MODEL
        from repro.graph.llm import decode_step_graph
        from repro.serve import ContinuousServer, decode_burst

        for session in self.sessions:
            serial = 0
            for position in session.positions:
                program = decode_step_graph(session.spec, position).lower(
                    config=self.farm.config)
                serial += int(round(self.farm.time_program(
                    program, backend=BACKEND_MODEL).cycles))
            server = ContinuousServer(n_clusters=1, farm=self.farm,
                                      backend=BACKEND_MODEL)
            report = server.simulate(decode_burst([session], 1))
            if report.makespan_cycles != serial:
                self.fail(f"conservation: {session.model} one session "
                          f"{report.makespan_cycles} cycles != serial "
                          f"per-step sum {serial}")

    def run_pass(self, index: int, tracer) -> PassResult:
        from repro import obs
        from repro.farm import BACKEND_MODEL
        from repro.serve import ContinuousServer, decode_session_stream

        stream = decode_session_stream(
            self.sessions, rps=DECODE_RPS, duration_s=DECODE_EPISODE_S,
            seed=self.pass_seed(index))
        samples: List[float] = []
        timer = ScaledTimer()
        timer.start()
        telemetry = obs.install(obs.Telemetry())
        try:
            server = ContinuousServer(
                n_clusters=DECODE_CLUSTERS, farm=self.farm,
                backend=BACKEND_MODEL, batch_cap=DECODE_BATCH_CAP)
            offer = server.offer
            timer.stop()
            request = True
            block = 0
            while request is not None:
                steps0 = server.decode_steps
                timer.start()
                with tracer.block("serve.sessions", f"{index}:{block}"):
                    done = 0
                    while done < SESSION_BLOCK:
                        request = (tracer.call("serve.gen", next, stream,
                                               None)
                                   if tracer.enabled else next(stream, None))
                        if request is None:
                            break
                        offer(request)
                        done += 1
                elapsed = timer.stop()
                steps = server.decode_steps - steps0
                if done == SESSION_BLOCK and steps:
                    samples.append(elapsed / steps * 1e6)
                block += 1
            timer.start()
            server.drain()
            report = server.finalize("serve-decode")
            telemetry.export_chrome_trace(self.trace_path)
            telemetry.export_metrics(self.metrics_path)
        finally:
            obs.install(None)
        timer.stop()
        if tracer.enabled:
            _count_serve(tracer, report)
            tracer.bump("serve.decode.sessions", report.decode_sessions)
            tracer.bump("serve.decode.steps", report.decode_steps)
            tracer.bump("serve.decode.batched", report.decode_batched_steps)
            tracer.bump("serve.decode.occupancy_sum",
                        report.decode_mean_occupancy * report.decode_steps)
            tracer.bump("serve.decode.memo_misses", report.memo_misses)
            tracer.bump("obs.events", len(telemetry.events()))
            tracer.bump("obs.dropped_events", telemetry.dropped_events)
        return PassResult(report.decode_steps, timer, samples,
                          report.offered, report)

    def check(self, index: int, result: PassResult, tracer) -> None:
        from repro.obs import validate_chrome_trace
        from repro.obs.validate import ChromeTraceError

        report = result.outputs
        problems = _closure(report)
        if report.decode_sessions != report.completed:
            problems.append(f"decode sessions {report.decode_sessions} != "
                            f"completed {report.completed}")
        try:
            validate_chrome_trace(load_json(self.trace_path))
        except (ChromeTraceError, OSError, ValueError) as error:
            problems.append(f"exported trace invalid: {error}")
        if self.expected is not None and index == 0:
            problems += _compare(self.expected["episode0"],
                                 serve_summary(report))
        if problems:
            self.fail(f"episode {index}: " + "; ".join(problems))
            result.failed = result.attempted

    def reference(self) -> dict:
        result = self.run_pass(0, _NULL_TRACER)
        return {"episode0": serve_summary(result.outputs)}


# -- dse-sweep ------------------------------------------------------------------
#: The dse-frontier grid: H x L x P x W-prefetch over autoencoder-b1.
DSE_AXES = {
    "height": (2, 4, 6, 8),
    "length": (2, 4, 8, 16, 32),
    "pipeline_regs": (1, 2, 3, 4),
    "w_prefetch_lines": (1, 2),
}
DSE_WORKLOAD = "autoencoder-b1"
DSE_OBJECTIVES = ("area_mm2", "serial_cycles")
#: Frontier points cross-validated on the engine per pass.
DSE_CROSSVAL_SAMPLE = 3


def _point_key(point) -> tuple:
    return (point.height, point.length, point.pipeline_regs,
            point.w_prefetch_lines)


def _trusted_frontier(points) -> list:
    """The Pareto frontier over the provably exact points (the scenario's)."""
    from repro.dse import pareto_frontier

    trusted = sorted((p for p in points if p.model_exact), key=_point_key)
    return pareto_frontier(trusted, DSE_OBJECTIVES)


class DseSweep(Workload):
    """The design-space grid swept one point per ``sweep`` call.

    Points run in the grid's canonical order and share one fresh timing
    cache per pass, so a pass does exactly the work of one ``sweep`` over
    the whole grid while each point becomes a timed sample.  The seed picks
    the frontier points that are cross-validated on the engine.
    """

    name = "dse-sweep"
    #: A pass takes several seconds and the percentiles take each point's
    #: best pass, so every run compares the same number of passes.
    min_passes = 2

    def setup(self) -> None:
        import itertools

        from repro.dse import DesignSpace
        from repro.graph.zoo import build_model

        self.graph = build_model(DSE_WORKLOAD)
        names = list(DSE_AXES)
        self.spaces = [
            DesignSpace.grid(**{name: (value,)
                                for name, value in zip(names, values)})
            for values in itertools.product(*DSE_AXES.values())]
        self.crossval_s: List[float] = []
        self.points = 0
        self.exact_points = 0
        self.max_error = 0.0

    def full_space(self):
        from repro.dse import DesignSpace

        return DesignSpace.grid(**DSE_AXES)

    def frontier(self, points) -> List[list]:
        """The trusted frontier as the rows ``expected.json`` holds."""
        return [list(_point_key(p)) + [p.serial_cycles]
                for p in _trusted_frontier(points)]

    def run_pass(self, index: int, tracer) -> PassResult:
        from repro.dse import cross_validate, sweep
        from repro.farm import TimingCache

        rng = np.random.default_rng(self.pass_seed(index))
        cache = TimingCache()
        points = []
        timer = ScaledTimer()
        samples = [0.0] * len(self.spaces)
        for number in range(len(self.spaces)):
            timer.start()
            with tracer.block("dse.point", f"{index}:{number}"):
                result = tracer.span("dse.sweep", sweep,
                                     self.spaces[number], self.graph,
                                     name="frontier", cache=cache)
            samples[number] = timer.stop() * 1e6
            points.extend(result.points)

        frontier = _trusted_frontier(points)
        if self.seed == DEFAULT_SEED:
            # The dse-frontier scenario's even spread over the frontier.
            step = (len(frontier) - 1) / (DSE_CROSSVAL_SAMPLE - 1)
            picks = sorted({round(i * step)
                            for i in range(DSE_CROSSVAL_SAMPLE)})
        else:
            picks = sorted(rng.choice(len(frontier), DSE_CROSSVAL_SAMPLE,
                                      replace=False).tolist())
        chosen = [frontier[i] for i in picks]
        crossval = ScaledTimer()
        crossval.start()
        with tracer.block("dse.crossval", f"{index}"):
            validation = tracer.span(
                "dse.cross_validate", cross_validate, result,
                sample=len(chosen), points=chosen,
                max_workers=os.cpu_count() or 1)
        self.crossval_s.append(crossval.stop())
        if tracer.enabled:
            tracer.bump("dse.points", len(points))
            tracer.bump("dse.model_exact",
                        sum(1 for p in points if p.model_exact))
            tracer.bump("dse.crossval_jobs", validation.jobs_checked)
        return PassResult(len(points), timer, samples,
                          len(points) + len(chosen), (points, validation))

    def check(self, index: int, result: PassResult, tracer) -> None:
        points, validation = result.outputs
        problems = []
        if len(points) != len(self.spaces):
            problems.append(f"{len(points)} points, expected "
                            f"{len(self.spaces)}")
        if self.expected is not None:
            frontier = self.frontier(points)
            if frontier != self.expected["frontier"]:
                problems.append(f"frontier {frontier} != expected "
                                f"{self.expected['frontier']}")
        if problems:
            result.failed = result.attempted
        # Engine cycles must equal the model's wherever it claims exactness,
        # and stay within the scenario's tolerance everywhere else.
        bad = [s for s in validation.samples
               if s.max_rel_error > validation.tolerance
               or (s.exact_expected and s.max_rel_error != 0.0)]
        problems += [f"cross-validation H={s.height} L={s.length} "
                     f"P={s.pipeline_regs}: max error {s.max_rel_error:.2%}"
                     for s in bad]
        if problems:
            self.fail(f"pass {index}: " + "; ".join(problems))
            result.failed = max(result.failed, len(bad))
        self.points += len(points)
        self.exact_points += sum(1 for p in points if p.model_exact)
        self.max_error = max([self.max_error] + [
            s.max_rel_error for s in validation.samples])

    def samples(self, passes: List[PassResult]) -> List[float]:
        """Each design point's best time over the run's passes.

        A pass holds every grid point once, so the percentiles are over the
        design points.  A point's cost is deterministic work; its fastest
        pass drops the garbage-collection pauses and host hiccups that land
        on one point in one pass and not another (``work_per_s`` keeps
        them).
        """
        timed = [p.samples_us for p in passes if p.samples_us]
        return [min(column) for column in zip(*timed)]

    def accuracy_lines(self) -> List[str]:
        ratio = self.exact_points / self.points if self.points else 0.0
        return [_paper_line(),
                f"accuracy: dse.model_exact_ratio {ratio:.3f} "
                f"({self.exact_points}/{self.points} points inside the "
                f"model's exact domain); engine cross-validation max error "
                f"{self.max_error:.2%}"]

    def named_extra(self) -> Dict[str, tuple]:
        if not self.crossval_s:
            return {}
        return {"dse_crossval_s": (median(self.crossval_s), "s",
                                   len(self.crossval_s))}

    def reference(self) -> dict:
        """The frontier of one plain ``sweep`` over the whole grid."""
        from repro.dse import sweep

        return {"frontier": self.frontier(
            sweep(self.full_space(), self.graph, name="frontier").points)}


#: A tracer that is never enabled: passes run outside a measured run.
_NULL_TRACER = Tracer()

WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (GemmEngine, ServeAtomic, ServeDecode, DseSweep)}


def prepare(workload: str) -> None:
    """Persist the timing cache the serving workloads load in set-up."""
    if workload not in ("serve-atomic", "serve-decode"):
        return
    os.makedirs(WORK_DIR, exist_ok=True)
    bench = WORKLOAD_CLASSES[workload](DEFAULT_SEED)
    bench.load_cache = False
    bench.setup()
    if workload == "serve-decode":
        bench.run_pass(0, _NULL_TRACER)
    bench.farm.save_cache(cache_file(workload))


def write_expected(path: str = EXPECTED_FILE) -> Dict[str, dict]:
    """Recompute every workload's expected outputs for the default seed."""
    expected = {}
    for name, cls in WORKLOAD_CLASSES.items():
        bench = cls(DEFAULT_SEED)
        bench.load_cache = False
        bench.setup()
        expected[name] = bench.reference()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return expected
