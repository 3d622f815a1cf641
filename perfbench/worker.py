"""Measuring child process of the benchmark (started by ``run.py``).

Modes:

* ``prepare`` -- write the persisted timing cache a serving workload loads
  in set-up (outside every timed region);
* ``probe`` -- a fresh interpreter doing only the workload's set-up, then
  printing the ``perf_counter`` instant it became ready (and a calibration
  run), so the parent can time interpreter start + imports + cache load +
  memo priming;
* ``run`` -- set-up, pre-flight checks, then passes until ``--seconds``
  have elapsed.  With ``--trace 1`` the first half runs untraced and the
  second half under the layer tracer, and the ratio of the two rates is
  the tracing overhead.

The last line on stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from statistics import median

import workloads
from common import (SRC, WORK_DIR, WORKLOADS, ScaledTimer, calibrate,
                    dump_json, quantile)
from tracing import Tracer, layer_metrics

#: Failure messages carried back to the parent (the count is always full).
MAX_MESSAGES = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(bench, tracer, seconds: float, index: int, memory: dict,
               min_passes: int = 1):
    """Run passes (each checked outside timing) until ``seconds`` elapse.

    ``memory["peak_rss_mb"]`` is set after the first pass, before its
    checks: the peak of set-up plus one pass of the workload itself.
    """
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < seconds):
        try:
            result = bench.run_pass(index, tracer)
            memory.setdefault("peak_rss_mb", peak_rss_mb())
        except Exception as error:  # noqa: BLE001 -- counts as a failed op
            bench.fail(f"pass {index} raised {error!r}")
            result = workloads.PassResult(0, ScaledTimer(), [], 1, None)
            result.failed = 1
        else:
            traced, tracer.enabled = tracer.enabled, False
            bench.check(index, result, tracer)
            tracer.enabled = traced
        # Every pass starts from a collected heap, so garbage one pass left
        # behind is not collected (and paid for) inside the next.
        gc.collect()
        passes.append(result)
        index += 1
    return passes, index


def rate(passes, raw: bool = False) -> float:
    """Median over passes of work per second (reference or measured).

    Every pass repeats the same amount of work, so the median pass is
    robust to the one pass a long pause or a slow export landed in.
    """
    rates = [p.work / (p.raw_s if raw else p.busy_s)
             for p in passes if p.busy_s > 0]
    return median(rates) if rates else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("prepare", "probe", "run"),
                        required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    if args.mode == "prepare":
        workloads.prepare(args.workload)
        print(json.dumps({"prepared": args.workload}))
        return 0

    tracer = Tracer()
    bench = workloads.WORKLOAD_CLASSES[args.workload](args.seed)
    if args.trace:
        tracer.install_layers()
        tracer.enabled = True
    bench.setup()
    ready = time.perf_counter()
    speed = calibrate()
    if args.mode == "probe":
        print(json.dumps({"ready": ready, "calibration_s": speed}))
        return 0

    # Set-up figures of the traced run; everything else is counted afresh.
    tracer.enabled = False
    tracer.uninstall()
    setup_layers = {
        "farm.cache_load_s": tracer.total("farm.load_cache") / 1e9,
        "farm.cache_entries": tracer.counters.get("farm.cache_entries", 0),
    }
    tracer.totals.clear()
    tracer.counters.clear()

    bench.preflight()
    preflight_failures = len(bench.failures)
    out = {"ready": ready, "calibration_s": speed}
    if args.trace:
        untraced, index = run_passes(bench, tracer, args.seconds / 2, 0, out)
        tracer.install_layers()
        tracer.enabled = True
        traced, _ = run_passes(bench, tracer, args.seconds / 2, index, out)
        tracer.enabled = False
        tracer.uninstall()
        passes = untraced + traced
        raw_s = sum(p.raw_s for p in traced)
        layers = layer_metrics(
            tracer, raw_s,
            rate(untraced) / rate(traced) if rate(traced) else 0.0,
            sum(p.busy_s for p in traced) / raw_s if raw_s else 1.0)
        layers.update(setup_layers)
        out["layers"] = layers
        spans_file = os.path.join(
            WORK_DIR, f"spans-{args.workload}-s{args.seed}.json")
        dump_json(spans_file, {"workload": args.workload, "seed": args.seed,
                               "spans": tracer.spans})
        out["spans_file"] = os.path.relpath(spans_file)
    else:
        passes, _ = run_passes(bench, tracer, args.seconds, 0, out,
                               bench.min_passes)

    samples = bench.samples(passes)
    out.update({
        "attempted": sum(p.attempted for p in passes) + preflight_failures,
        "failed": sum(p.failed for p in passes) + preflight_failures,
        "failures": bench.failures[:MAX_MESSAGES],
        "failure_count": len(bench.failures),
        "passes": len(passes),
        "work": sum(p.work for p in passes),
        "busy_s": sum(p.busy_s for p in passes),
        "work_per_s": rate(passes),
        "raw_work_per_s": rate(passes, raw=True),
        "samples": len(samples),
        "unit_us_p50": quantile(samples, 0.5) if samples else 0.0,
        "unit_us_p90": quantile(samples, 0.9) if samples else 0.0,
        "peak_rss_mb": out.get("peak_rss_mb", peak_rss_mb()),
        "accuracy": bench.accuracy_lines(),
        "extra": bench.named_extra(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
