"""Shape-keyed timing cache for the simulation farm.

The cycle-accurate engine and the analytical model are both *data-independent*:
for a fixed architectural configuration, the cycle count of a matmul job
depends only on the problem shape ``(M, N, K)`` and on whether the job
accumulates into Z -- never on the arithmetic backend, the operand values or
their placement (the streamer performs one wide access per line per cycle
regardless of the address, see :mod:`repro.redmule.streamer`).  Timing results
are therefore exactly reusable across a sweep, which is what makes the
repeated-shape experiments (Fig. 3c/3d, Fig. 4a, the autoencoder batching
study) cheap to regenerate: the farm simulates each distinct shape once and
serves every repeat from this cache.

The cache is keyed by ``(config key, m, n, k, accumulate, backend)``
and stores :class:`TimingRecord` values -- :class:`~repro.redmule.engine.
RedMulEResult`-shaped records stripped of the job-specific fields (addresses,
streamer port statistics) that do not survive memoisation.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob

#: Format tag of the persisted cache files (see :meth:`TimingCache.save`).
#: v2: the analytical model became bit-exact on its uncontended domain
#: (per-tile boundary cycle + drain correction), so v1 model records carry
#: stale cycle counts and must not be reloaded.
#: v3: configuration keys grew the element-format axis (multi-precision
#: support changes line geometry and cycle counts), so v2 keys -- which
#: implicitly meant FP16 -- can no longer be told apart from other
#: precisions and must not be reloaded.
#: v4: an optional ``traces`` side-table carried recorded engine schedule
#: traces.  The engine no longer replays schedules, so the side-table is
#: ignored on load (v4 and v5 files that carry one still load).  The
#: timing-record schema is unchanged since v3 (and v2 keys decode by
#: appending the implicit "fp16" format).
#: v5: timing keys lost the ``exact`` field (every arithmetic backend is
#: bit-exact and timing never depended on it).  v2-v4 files load with the
#: field dropped.
CACHE_FILE_VERSION = 5

#: Cache-file versions :meth:`TimingCache.load` can decode.
_LOADABLE_VERSIONS = (2, 3, 4, CACHE_FILE_VERSION)


class TimingCacheError(ValueError):
    """A timing-cache file whose payload cannot be decoded."""


#: Backend tags used in cache keys and records.
BACKEND_ENGINE = "engine"
BACKEND_MODEL = "model"


def config_key(config: RedMulEConfig) -> Tuple[int, int, int, int, int, str]:
    """Hashable, picklable key identifying an architectural configuration.

    The element format is part of the key: it changes elements-per-line and
    therefore tile geometry and cycle counts (unlike the arithmetic
    backend, which is deliberately excluded).
    """
    return (
        config.height,
        config.length,
        config.pipeline_regs,
        config.w_prefetch_lines,
        config.z_queue_depth,
        config.format,
    )


@dataclass(frozen=True)
class TimingKey:
    """Cache key: everything the timing of a job can depend on.

    ``backend`` separates engine-measured records from model estimates so a
    validation run never serves one in place of the other.
    """

    config: Tuple[int, int, int, int, int, str]
    m: int
    n: int
    k: int
    accumulate: bool
    backend: str

    @classmethod
    def for_job(cls, config: RedMulEConfig, job: MatmulJob,
                backend: str) -> "TimingKey":
        """Build the key of ``job`` on ``config`` under ``backend``."""
        return cls(
            config=config_key(config),
            m=job.m,
            n=job.n,
            k=job.k,
            accumulate=job.accumulate,
            backend=backend,
        )


@dataclass(frozen=True)
class TimingRecord:
    """Memoised timing of one job shape (``RedMulEResult``-shaped).

    The fields mirror :class:`~repro.redmule.engine.RedMulEResult` minus the
    job descriptor and the streamer statistics; model-backed records fill the
    engine-only counters (stalls, issued MACs) with the model's equivalents
    where they exist and zero where they do not.
    """

    #: Total cycles from trigger to the last Z store leaving the streamer.
    cycles: int
    #: Cycles the datapath was frozen waiting for operands (engine backend).
    stall_cycles: int
    #: Cycles the datapath issued at least one operation (engine backend).
    active_cycles: int
    #: Useful multiply-accumulates (M*N*K).
    total_macs: int
    #: FMA slots actually issued, padding included (engine backend).
    issued_macs: int
    #: Number of tiles processed.
    n_tiles: int
    #: Peak throughput of the simulated instance (H * L MAC/cycle).
    peak_macs_per_cycle: int
    #: Cycles an ideal array (peak MACs every cycle) would need.
    ideal_cycles: int
    #: Which backend produced the record ("engine" or "model").
    backend: str

    # -- derived metrics (same definitions as RedMulEResult/PerfEstimate) ----
    @property
    def macs_per_cycle(self) -> float:
        """Useful MACs per cycle (the paper's throughput metric)."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Useful MACs per cycle divided by the array's peak."""
        if self.cycles == 0 or self.peak_macs_per_cycle == 0:
            return 0.0
        return self.macs_per_cycle / self.peak_macs_per_cycle

    @property
    def fraction_of_ideal(self) -> float:
        """Ideal cycles divided by measured cycles (Fig. 4a metric)."""
        if self.cycles == 0:
            return 0.0
        return self.ideal_cycles / self.cycles

    @property
    def overhead_cycles(self) -> int:
        """Cycles beyond the ideal-machine lower bound."""
        return self.cycles - self.ideal_cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a given clock frequency."""
        return self.cycles / frequency_hz

    def throughput_gmacs(self, frequency_hz: float) -> float:
        """Throughput in GMAC/s at a given clock frequency."""
        return self.macs_per_cycle * frequency_hz / 1e9

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS (2 ops per MAC) at a given clock frequency."""
        return 2.0 * self.throughput_gmacs(frequency_hz)


@dataclass
class CacheStats:
    """Hit/miss accounting of a :class:`TimingCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict:
        """JSON-ready copy: raw counters plus the derived rates."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        """Zero the accounting (cache entries are untouched)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class TimingCache:
    """Shape-keyed memoisation of timing records with hit/miss statistics.

    The cache is an LRU bounded by ``max_entries`` (``None`` disables
    eviction; sweeps have small working sets, so the default is unbounded).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: OrderedDict[TimingKey, TimingRecord] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TimingKey) -> bool:
        return key in self._entries

    def lookup(self, key: TimingKey) -> Optional[TimingRecord]:
        """Return the cached record for ``key`` (and count a hit or miss)."""
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return record

    def peek(self, key: TimingKey) -> Optional[TimingRecord]:
        """Return the cached record without touching the statistics."""
        return self._entries.get(key)

    def store(self, key: TimingKey, record: TimingRecord) -> None:
        """Insert (or refresh) a record, evicting the LRU entry when full."""
        self._entries[key] = record
        self._entries.move_to_end(key)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    # -- persistence --------------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> int:
        """Persist every entry to a JSON file; returns the entry count.

        The file carries a format version so stale caches from incompatible
        revisions are rejected instead of silently misread.  Timing records
        are deterministic per (config, shape, backend), so sharing a cache
        file across processes and benchmark invocations is safe.  Missing
        parent directories are created (``mkdir -p`` semantics): cache paths
        routinely point into per-run artifact directories that do not exist
        yet, and losing a batch of simulations to ``FileNotFoundError`` at
        save time would be the most expensive possible way to learn that.

        The write is atomic: the payload goes to a temporary file in the
        same directory, which then replaces ``path``.  A save that fails
        part-way (or a process killed mid-write) leaves the previous file
        intact, so concurrent readers of a shared cache directory never
        see a truncated file.
        """
        parent = os.path.dirname(os.path.abspath(os.fspath(path)))
        os.makedirs(parent, exist_ok=True)
        entries = [
            {"key": asdict(key), "record": asdict(record)}
            for key, record in self._entries.items()
        ]
        payload = {"version": CACHE_FILE_VERSION, "entries": entries}
        tmp_path = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        return len(entries)

    def load(self, path: Union[str, os.PathLike], merge: bool = True) -> int:
        """Load entries from a JSON file written by :meth:`save`.

        Returns the number of entries loaded.  With ``merge`` (the default)
        existing entries are kept (file entries win on key collisions);
        otherwise the cache is cleared first.  Loading counts neither hits
        nor misses.

        Legacy files stay decodable: v2-v4 keys drop their ``exact``
        field, and two records that differed only in it merge into one
        entry; v2 files additionally get the implicit ``"fp16"`` format
        appended to their five-field config keys (every v2-era record was
        binary16).  A ``traces`` side-table (v4/v5) is ignored.  v1 files
        are still rejected -- their model records predate the bit-exact
        analytical model and carry stale cycle counts.

        A malformed payload -- not a JSON object, an unsupported version, a
        missing or unknown key or record field, or two entries with
        conflicting timings for one key -- raises :class:`TimingCacheError`
        naming the file and the entry index, and leaves the cache untouched.
        """
        where = os.fspath(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise TimingCacheError(
                f"timing-cache file {where!r}: payload is a "
                f"{type(payload).__name__}, not an object")
        version = payload.get("version")
        if version not in _LOADABLE_VERSIONS:
            raise TimingCacheError(
                f"timing-cache file {where!r}: unsupported version "
                f"{version!r} (expected one of {_LOADABLE_VERSIONS})"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise TimingCacheError(
                f"timing-cache file {where!r}: 'entries' is missing or not "
                "a list")
        loaded: Dict[TimingKey, TimingRecord] = {}
        for index, entry in enumerate(entries):
            try:
                key, record = _decode_entry(entry, version)
                previous = loaded.setdefault(key, record)
            except (TypeError, ValueError) as error:
                raise TimingCacheError(
                    f"timing-cache file {where!r}, entry {index}: {error}"
                ) from error
            if previous != record:
                raise TimingCacheError(
                    f"timing-cache file {where!r}, entry {index}: "
                    f"conflicting records for {key}: {previous} vs {record}"
                )
        if not merge:
            self.clear()
        for key, record in loaded.items():
            self.store(key, record)
        return len(loaded)

    def describe(self) -> str:
        """One-line summary used by the runner's ``--farm-stats`` flag."""
        return (
            f"timing cache: {len(self)} entries, {self.stats.hits} hits / "
            f"{self.stats.misses} misses ({100 * self.stats.hit_rate:.1f}% "
            "hit rate)"
        )


_KEY_FIELDS = tuple(field.name for field in fields(TimingKey))
_RECORD_FIELDS = tuple(field.name for field in fields(TimingRecord))


def _decode_entry(entry, version: int) -> Tuple[TimingKey, TimingRecord]:
    """Decode one cache-file entry; ``ValueError`` names what is malformed."""
    if not isinstance(entry, dict):
        raise ValueError(f"entry is a {type(entry).__name__}, not an object")
    raw_key = _fields(entry, "key", _KEY_FIELDS,
                      ignored=("exact",) if version < 5 else ())
    config = tuple(raw_key["config"])
    if version == 2 and len(config) == 5:
        config = config + ("fp16",)
    raw_key["config"] = config
    record = _fields(entry, "record", _RECORD_FIELDS)
    return TimingKey(**raw_key), TimingRecord(**record)


def _fields(entry: dict, name: str, expected: Sequence[str],
            ignored: Sequence[str] = ()) -> dict:
    """The ``name`` object of ``entry``, checked to hold exactly ``expected``."""
    raw = entry.get(name)
    if not isinstance(raw, dict):
        raise ValueError(f"{name!r} is missing or not an object")
    raw = {field: value for field, value in raw.items() if field not in ignored}
    missing = [field for field in expected if field not in raw]
    unknown = sorted(set(raw) - set(expected))
    if missing or unknown:
        raise ValueError(f"{name} fields: missing {missing}, unknown {unknown}")
    return raw
