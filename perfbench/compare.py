"""Compare two sets of benchmark results recorded on the same host.

Usage (from the repository root)::

    python3 perfbench/compare.py --base BASE_DIR_OR_FILES... --new NEW_DIR_OR_FILES...

Each argument is a result record written by ``run.py`` (under
``perfbench/_work/results/``) or a directory of them; copy a parent's
records aside before measuring the change.  Records are grouped by
workload and trace mode, and each metric's median is compared.  An
end-to-end metric worse by more than its ``BENCHMARK.json`` bound is
flagged.  The comparison refuses to run when the records come from
hosts with different fingerprints (CPU model, nproc, Python, numpy):
host time from two machines says nothing about the code.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from statistics import median

from common import ROOT, load_json

#: Fingerprint keys that must match before two results may be compared.
HOST_KEYS = ("cpu", "nproc", "python", "numpy")


def _records(paths):
    files = []
    for path in paths:
        files += (sorted(glob.glob(os.path.join(path, "*.json")))
                  if os.path.isdir(path) else [path])
    return [load_json(path) for path in files]


def _by_group(records):
    groups = {}
    for record in records:
        for name, entry in record["result"]["metrics"].items():
            groups.setdefault((record["workload"], record["trace"]), {}) \
                .setdefault(name, []).append(entry["value"])
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _records(args.base), _records(args.new)
    if not base or not new:
        print("error: both sides need at least one result record",
              file=sys.stderr)
        return 2
    hosts = {tuple(record["fingerprint"].get(key) for key in HOST_KEYS)
             for record in base + new}
    if len(hosts) != 1:
        print("error: records come from different hosts "
              f"({', '.join(HOST_KEYS)}): {sorted(hosts)}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metrics = {entry["name"]: entry
               for entry in spec["end_to_end"] + spec["per_layer"]}
    base_groups, new_groups = _by_group(base), _by_group(new)
    regressions = 0
    for group in sorted(set(base_groups) & set(new_groups)):
        workload, trace = group
        print(f"{workload} ({'traced' if trace else 'end-to-end'}):")
        for name in sorted(set(base_groups[group]) & set(new_groups[group])):
            old = median(base_groups[group][name])
            now = median(new_groups[group][name])
            entry = metrics.get(name, {})
            change = (now - old) / old if old else 0.0
            worse = -change if entry.get("better") == "higher" else change
            flag = ""
            if "bound" in entry and worse > entry["bound"]:
                flag = f"  REGRESSION (bound {entry['bound']:.0%})"
                regressions += 1
            print(f"  {name:32s} {old:12.6g} -> {now:12.6g} "
                  f"{entry.get('unit', ''):6s} {change:+7.1%} "
                  f"(n={len(base_groups[group][name])}/"
                  f"{len(new_groups[group][name])}){flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
