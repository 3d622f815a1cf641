"""Shared definitions of the repository benchmark: paths, metrics, statistics.

Everything here is imported by both the orchestrating parent (``run.py``)
and the measuring child (``worker.py``), so it imports nothing from the
simulator itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from collections import deque
from typing import Dict, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for persisted timing caches, exported traces and result
#: records; ignored by git and recreated on demand.
WORK_DIR = os.path.join(BENCH_DIR, "_work")
EXPECTED_FILE = os.path.join(BENCH_DIR, "expected.json")

WORKLOADS = ("gemm-engine", "serve-atomic", "serve-decode", "dse-sweep")

#: The seed the committed expected outputs were produced with.
DEFAULT_SEED = 0

#: End-to-end metrics (untraced runs), identical on every workload so two
#: runs of any workload compare metric by metric.  ``work_per_s`` and the
#: per-unit percentiles measure each workload's own unit of work; their
#: workload-specific names are printed beside them (see ``NAMED_METRICS``).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("unit_us_p50", "us"),
    ("unit_us_p90", "us"),
)

#: Per workload: what one unit of work is, and the workload-specific names
#: (with units) of ``work_per_s`` / ``unit_us_p50`` / ``unit_us_p90``.
NAMED_METRICS = {
    "gemm-engine": ("GEMM (rate in MACs)", (
        ("gemm_macs_per_s", "MAC/s"), ("gemm_p50_ms", "ms"),
        ("gemm_p90_ms", "ms"))),
    "serve-atomic": ("request", (
        ("serve_req_per_s", "req/s"), ("serve_us_per_req_p50", "us"),
        ("serve_us_per_req_p90", "us"))),
    "serve-decode": ("decode token-step", (
        ("decode_steps_per_s", "step/s"), ("decode_us_per_step_p50", "us"),
        ("decode_us_per_step_p90", "us"))),
    "dse-sweep": ("design point", (
        ("dse_points_per_s", "point/s"), ("dse_us_per_point_p50", "us"),
        ("dse_us_per_point_p90", "us"))),
}

#: Per-layer metrics reported by the traced run (``--trace 1``), in the
#: order of the layer table in ``RATIONALE.md``.
PER_LAYER = (
    ("fp.fmas", "count"),
    ("fp.ns_per_fma.fp16", "ns"),
    ("fp.ns_per_fma.bf16", "ns"),
    ("fp.ns_per_fma.fp8-e4m3", "ns"),
    ("redmule.jobs", "count"),
    ("redmule.tiles", "count"),
    ("redmule.sim_cycles", "cycles"),
    ("redmule.busy_s", "s"),
    ("redmule.ns_per_sim_cycle", "ns"),
    ("redmule.us_per_tile", "us"),
    ("redmule.trace_replay_ratio", "ratio"),
    ("perf_model.estimates", "count"),
    ("perf_model.us_per_estimate", "us"),
    ("perf_model.is_exact_calls", "count"),
    ("perf_model.us_per_is_exact", "us"),
    ("farm.jobs", "count"),
    ("farm.cache_hits", "count"),
    ("farm.cache_misses", "count"),
    ("farm.hit_ratio", "ratio"),
    ("farm.us_per_hit", "us"),
    ("farm.us_per_model_miss", "us"),
    ("farm.us_per_engine_miss", "us"),
    ("farm.pool_batches", "count"),
    ("farm.pool_wait_s", "s"),
    ("farm.cache_load_s", "s"),
    ("farm.cache_entries", "count"),
    ("graph.lowerings", "count"),
    ("graph.us_per_lower", "us"),
    ("graph.decode_graphs", "count"),
    ("graph.us_per_decode_graph", "us"),
    ("serve.requests", "count"),
    ("serve.gen_ns_per_req", "ns"),
    ("serve.offer_ns_per_req", "ns"),
    ("serve.stats_ns_per_req", "ns"),
    ("serve.drain_s", "s"),
    ("serve.finalize_s", "s"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.decode.sessions", "count"),
    ("serve.decode.steps", "count"),
    ("serve.decode.batched_ratio", "ratio"),
    ("serve.decode.mean_occupancy", "sessions"),
    ("serve.decode.step_memo_misses", "count"),
    ("serve.decode.ns_per_step", "ns"),
    ("obs.records", "count"),
    ("obs.ns_per_record", "ns"),
    ("obs.events", "count"),
    ("obs.dropped_events", "count"),
    ("obs.export_s", "s"),
    ("obs.share", "ratio"),
    ("dse.points", "count"),
    ("dse.us_per_point", "us"),
    ("dse.model_exact_ratio", "ratio"),
    ("dse.crossval_jobs", "count"),
    ("power.us_per_config", "us"),
    ("trace.overhead_ratio", "ratio"),
)


#: Seconds the calibration loop takes at the reference host speed.  On a
#: shared host the CPU speed can drift by tens of percent over seconds
#: (co-tenants, frequency scaling), so every timed region is bracketed by
#: calibration runs and reported in *reference seconds*: measured seconds
#: x CAL_REFERENCE_S / calibration seconds.  A slower simulator still
#: reads slower; a host that slows down for a while does not.
CAL_REFERENCE_S = 0.004
#: Calibrations a timed segment's scale is the median of.
CAL_WINDOW = 5


def calibrate() -> float:
    """Host seconds one fixed mix of interpreter and small numpy work takes."""
    import heapq

    import numpy as np

    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    vector = np.arange(64, dtype=np.float64)
    for i in range(4000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[i & 255] = table.get(i & 255, 0) + i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 16 == 0:
            vector = (vector * 1.0000001 + 0.5).astype(np.float64)
    return time.perf_counter() - start


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` measured at ``calibration`` host speed, in reference s."""
    return seconds * CAL_REFERENCE_S / calibration


class ScaledTimer:
    """Times segments of work, each scaled by the host speed around it.

    ``start()`` / ``stop()`` bracket one timed segment.  A calibration runs
    after every segment (outside it).  A segment is scaled by the median of
    the calibrations just before and just after it and of the median of the
    last ``CAL_WINDOW`` calibrations: it follows the local host speed, while
    one interrupted calibration cannot skew a sample.
    """

    def __init__(self) -> None:
        self._calibrations = deque([calibrate()], maxlen=CAL_WINDOW)
        self._started = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> float:
        """End the segment; returns its duration in reference seconds."""
        elapsed = time.perf_counter() - self._started
        before = self._calibrations[-1]
        self._calibrations.append(calibrate())
        speed = statistics.median((before, self._calibrations[-1],
                                   statistics.median(self._calibrations)))
        scaled = scale(elapsed, speed)
        self.raw_s += elapsed
        self.scaled_s += scaled
        return scaled


def quantile(values: Sequence[float], q: float,
             resolution: int = 50) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A Beta-weighted mean of every order statistic.  Where the values form
    clusters -- a design grid's configurations, a GEMM list's shapes -- a
    single order statistic jumps from one cluster to the next under small
    noise, while this estimate moves smoothly.  The Beta weights are
    integrated with the midpoint rule, ``resolution`` steps per sample.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    step = 1.0 / (n * resolution)
    weights = []
    for i in range(n):
        weight = 0.0
        for j in range(resolution):
            x = (i * resolution + j + 0.5) * step
            weight += math.exp(log_norm + (a - 1) * math.log(x)
                               + (b - 1) * math.log1p(-x))
        weights.append(weight)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """The checkout's git commit, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the simulator sources (identifies the code measured)."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    """What a measurement depends on besides the code: the host."""
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def stamp(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """Fingerprint plus the commit and source digest of the measured code."""
    return dict(fingerprint, commit=_commit(), src_digest=source_digest())
