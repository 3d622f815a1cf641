"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gemm-engine --seed 0 --seconds 15 --trace 0

Workloads: ``gemm-engine``, ``serve-atomic``, ``serve-decode``,
``dse-sweep`` (see ``perfbench/RATIONALE.md``).  ``--workload all`` runs
each in turn.  The run measures host time -- what the simulator costs to
run -- with every simulated output checked.  With ``--trace 0`` the last
stdout line is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Every result is also written, stamped with the host fingerprint, under
``perfbench/_work/results/`` for ``perfbench/compare.py``.

``setup_s`` is the median over several fresh interpreters of the time
from process launch to the first timed op.  Every time is reported in
reference seconds, scaled by calibration runs (see ``common.calibrate``).
All measuring happens in child processes; each runs in its own process
group, which is killed and waited for before this process exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from common import (END_TO_END, NAMED_METRICS, PER_LAYER, ROOT, SRC, WORK_DIR,
                    WORKLOADS, dump_json, host_fingerprint, scale, stamp)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
#: Fresh-interpreter set-ups timed per run besides the measuring child's.
SETUP_PROBES = 4
#: Wall-clock budget of one workload's run, children included; a child
#: still running at the deadline is killed and the run fails.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    raise ChildError(f"process group {pgid} did not exit")


def run_child(args, timeout: float):
    """Run the worker; returns (launch instant, its final JSON object)."""
    if timeout <= 0:
        raise ChildError(f"no time left to run worker {' '.join(args)}")
    cmd = [sys.executable, WORKER] + args
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"worker {' '.join(args)} timed out") from None
    finally:
        _reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return launched, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S

    def child(args):
        return run_child(args, deadline - time.monotonic())

    common = ["--workload", workload, "--seed", str(seed)]
    if workload in ("serve-atomic", "serve-decode"):
        child(common + ["--mode", "prepare"])
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            launched, probe = child(common + ["--mode", "probe"])
            setups.append(scale(probe["ready"] - launched,
                                probe["calibration_s"]))
    launched, result = child(common + ["--mode", "run", "--seconds",
                                       str(seconds), "--trace", str(trace)])
    setups.append(scale(result["ready"] - launched, result["calibration_s"]))
    result["setup_s"] = median(setups)
    result["setup_samples"] = len(setups)
    return result


def report(workload: str, seed: int, trace: int, result: dict,
           fingerprint: dict) -> dict:
    """Print the human lines and build the final JSON object."""
    unit, names = NAMED_METRICS[workload]
    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"{workload} seed {seed}: {result['passes']} passes, "
          f"{result['attempted']} ops attempted, {result['failed']} failed; "
          f"unit = {unit}")
    for line in result["accuracy"]:
        print(line)
    for message in result["failures"]:
        print(f"FAILED: {message}")
    if trace:
        metrics = {name: {"value": float(result["layers"][name]),
                          "unit": unit_name}
                   for name, unit_name in PER_LAYER}
        for name, entry in metrics.items():
            print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
        print(f"spans written to {result['spans_file']}")
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit_name}
                   for name, unit_name in END_TO_END}
        rate_name, p50_name, p90_name = names
        factor = 1e-3 if names[1][1] == "ms" else 1.0
        print(f"  setup_s     {result['setup_s']:.4f} s "
              f"(median of {result['setup_samples']} fresh interpreters)")
        print(f"  peak_rss_mb {result['peak_rss_mb']:.1f} MB")
        print(f"  {rate_name[0]} {result['work_per_s']:.6g} {rate_name[1]} "
              f"({result['raw_work_per_s']:.6g} before scaling to the "
              f"reference host speed)")
        for (name, unit_name), key in ((p50_name, "unit_us_p50"),
                                       (p90_name, "unit_us_p90")):
            print(f"  {name} {result[key] * factor:.6g} {unit_name} "
                  f"(n={result['samples']})")
        for name, (value, unit_name, count) in result["extra"].items():
            print(f"  {name} {value:.6g} {unit_name} (median of {count})")
    final = {"correct": result["failed"] == 0
             and result["failure_count"] == 0,
             "attempted": int(max(result["attempted"], 1)),
             "failed": int(result["failed"]),
             "metrics": metrics}
    dump_json(os.path.join(WORK_DIR, "results",
                           f"{workload}-s{seed}-t{trace}-{time.time_ns()}.json"),
              {"workload": workload, "seed": seed, "trace": trace,
               "fingerprint": fingerprint, "result": final,
               "detail": {key: value for key, value in result.items()
                          if key != "layers"}})
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    fingerprint = stamp(host_fingerprint())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, args.trace)
            final = report(workload, args.seed, args.trace, result,
                           fingerprint)
    except ChildError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
