"""Regenerate ``perfbench/expected.json``, the default seed's expected outputs.

Run from the repository root after a change that is *meant* to alter
simulated results (cycles, Z images, serving figures, the DSE frontier)::

    python3 perfbench/regen_expected.py

GEMM cycles and Z-image digests come from the scalar ``exact`` engine
backend, each checked against the scalar golden model; the serving
episodes and the frontier come from the library's plain code paths.
"""

import sys

from common import EXPECTED_FILE, SRC

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    from workloads import write_expected

    for name, record in write_expected().items():
        print(f"{name}: {len(next(iter(record.values())))} expected entries")
    print(f"wrote {EXPECTED_FILE}")
