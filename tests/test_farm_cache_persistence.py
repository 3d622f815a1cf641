"""Tests for timing-cache persistence (`TimingCache.save` / `load`)."""

import json
from dataclasses import replace

import pytest

from repro.farm import (
    SimulationFarm,
    TimingCache,
    TimingCacheError,
    TimingKey,
    TimingRecord,
)
from repro.farm.cache import CACHE_FILE_VERSION


def _record(cycles=100, backend="engine"):
    return TimingRecord(
        cycles=cycles, stall_cycles=7, active_cycles=80, total_macs=2048,
        issued_macs=4096, n_tiles=2, peak_macs_per_cycle=32,
        ideal_cycles=64, backend=backend,
    )


def _key(m=8, n=16, k=16, backend="engine"):
    return TimingKey(config=(4, 8, 3, 1, 8), m=m, n=n, k=k,
                     accumulate=False, backend=backend)


def _v4_entry(exact, cycles=100, m=8):
    """One entry as a v4 file wrote it: the key still carries ``exact``."""
    return {"key": {"config": [4, 8, 3, 1, 8, "fp16"], "m": m, "n": 16,
                    "k": 16, "accumulate": False, "exact": exact,
                    "backend": "engine"},
            "record": {"cycles": cycles, "stall_cycles": 7,
                       "active_cycles": 80, "total_macs": 2048,
                       "issued_macs": 4096, "n_tiles": 2,
                       "peak_macs_per_cycle": 32, "ideal_cycles": 64,
                       "backend": "engine"}}


class TestTimingCachePersistence:
    def test_save_creates_missing_parent_directories(self, tmp_path):
        """`save` has mkdir -p semantics: a cache path pointing into a
        not-yet-created artifact directory must not lose the batch."""
        cache = TimingCache()
        cache.store(_key(), _record())
        path = tmp_path / "does" / "not" / "exist" / "cache.json"
        assert cache.save(path) == 1
        loaded = TimingCache()
        assert loaded.load(path) == 1
        assert loaded.peek(_key()) == _record()

    def test_failed_save_leaves_the_previous_file_intact(self, tmp_path):
        """`save` writes a temporary file and replaces the target only
        once the payload is complete: a serialisation error part-way
        through must leave the old file loadable and no temp file behind."""
        path = tmp_path / "cache.json"
        old = TimingCache()
        old.store(_key(), _record(111))
        assert old.save(path) == 1
        before = path.read_bytes()

        broken = TimingCache()
        broken.store(_key(), _record(222))
        broken.store(_key(m=16), _record(333))
        # A record field JSON cannot encode fails the dump part-way through.
        broken.store(_key(m=32), replace(_record(444), cycles=object()))
        with pytest.raises(TypeError):
            broken.save(path)

        assert path.read_bytes() == before
        loaded = TimingCache()
        assert loaded.load(path) == 1
        assert loaded.peek(_key()) == _record(111)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_farm_save_cache_into_missing_directory(self, tmp_path):
        farm = SimulationFarm(max_workers=1)
        farm.run_gemm(8, 8, 8, backend="model")
        path = tmp_path / "fresh-dir" / "timing.json"
        assert farm.save_cache(path) == 1
        assert path.exists()

    def test_save_load_roundtrip(self, tmp_path):
        cache = TimingCache()
        cache.store(_key(), _record())
        cache.store(_key(m=16, backend="model"), _record(55, "model"))
        path = tmp_path / "cache.json"
        assert cache.save(path) == 2

        loaded = TimingCache()
        assert loaded.load(path) == 2
        assert len(loaded) == 2
        assert loaded.peek(_key()) == _record()
        assert loaded.peek(_key(m=16, backend="model")) == _record(55, "model")

    def test_load_merge_and_replace(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record(111))
        saved.save(path)

        cache = TimingCache()
        cache.store(_key(m=99), _record(999))
        cache.load(path)                       # merge (default)
        assert len(cache) == 2
        cache.load(path, merge=False)          # replace
        assert len(cache) == 1
        assert cache.peek(_key()).cycles == 111

    def test_load_overwrites_colliding_keys(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record(222))
        saved.save(path)
        cache = TimingCache()
        cache.store(_key(), _record(1))
        cache.load(path)
        assert cache.peek(_key()).cycles == 222

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            TimingCache().load(path)

    def test_v4_exact_and_inexact_records_merge_into_one_entry(self,
                                                               tmp_path):
        """Timing never depended on the arithmetic, so a v4 file's
        ``exact=True`` and ``exact=False`` records of one shape are the same
        record and load as a single entry."""
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 4, "entries": [
            _v4_entry(exact=True), _v4_entry(exact=False),
            _v4_entry(exact=False, cycles=300, m=32)]}))
        cache = TimingCache()
        assert cache.load(path) == 2
        assert len(cache) == 2
        key = TimingKey(config=(4, 8, 3, 1, 8, "fp16"), m=8, n=16, k=16,
                        accumulate=False, backend="engine")
        assert cache.peek(key) == _record()
        assert cache.peek(replace(key, m=32)).cycles == 300

    def test_v4_records_that_disagree_across_exact_are_rejected(self,
                                                                tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 4, "entries": [
            _v4_entry(exact=True), _v4_entry(exact=False, cycles=101)]}))
        cache = TimingCache()
        cache.store(_key(m=99), _record(999))
        with pytest.raises(ValueError, match="conflicting"):
            cache.load(path, merge=False)
        # A rejected file leaves the cache untouched.
        assert len(cache) == 1

    def test_load_does_not_count_lookups(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record())
        saved.save(path)
        cache = TimingCache()
        cache.load(path)
        assert cache.stats.lookups == 0


def _entry(config=(4, 8, 3, 1, 8, "fp16")):
    return {"key": {"config": list(config), "m": 8, "n": 16, "k": 16,
                    "accumulate": False, "backend": "engine"},
            "record": {"cycles": 100, "stall_cycles": 5, "active_cycles": 90,
                       "total_macs": 2048, "issued_macs": 4096, "n_tiles": 1,
                       "peak_macs_per_cycle": 32, "ideal_cycles": 64,
                       "backend": "engine"}}


class TestTimingCacheSchema:
    def test_save_produces_version_5_without_traces(self, tmp_path):
        farm = SimulationFarm(max_workers=1)
        farm.run_gemm(8, 16, 16, backend="engine")
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_FILE_VERSION == 5
        assert set(payload) == {"version", "entries"}

    def test_version_5_file_with_a_traces_side_table_loads(self, tmp_path):
        """Files written while the engine could replay recorded schedules
        carry a ``traces`` side-table; it is ignored, the entries load."""
        path = tmp_path / "v5.json"
        path.write_text(json.dumps({
            "version": 5, "entries": [_entry()],
            "traces": {"4:8:3:1:8:fp16": {"traces": [{"key": [1, 2]}]}}}))
        cache = TimingCache()
        assert cache.load(path) == 1
        key = next(iter(cache._entries))
        assert key.config == (4, 8, 3, 1, 8, "fp16")

    def test_version_3_files_load(self, tmp_path):
        path = tmp_path / "v3.json"
        config = (4, 8, 3, 1, 8, "fp16")
        entry = _entry(config)
        entry["key"]["exact"] = True
        path.write_text(json.dumps({"version": 3, "entries": [entry]}))
        cache = TimingCache()
        assert cache.load(path) == 1
        key = next(iter(cache._entries))
        assert key.config == config

    def test_version_2_files_decode_with_implicit_fp16(self, tmp_path):
        path = tmp_path / "v2.json"
        entry = _entry((4, 8, 3, 1, 8))
        entry["key"]["exact"] = True
        path.write_text(json.dumps({"version": 2, "entries": [entry]}))
        cache = TimingCache()
        assert cache.load(path) == 1
        key = next(iter(cache._entries))
        assert key.config == (4, 8, 3, 1, 8, "fp16")

    def test_version_1_files_are_rejected(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"version": 1, "entries": []}))
        with pytest.raises(TimingCacheError, match="version"):
            TimingCache().load(path)


def _poison(entry, section, field, value=None):
    """``entry`` with ``field`` of ``section`` dropped (``value`` None) or
    set."""
    if value is None:
        del entry[section][field]
    else:
        entry[section][field] = value
    return entry


class TestMalformedCacheFiles:
    """A malformed payload fails loudly as :class:`TimingCacheError` (a
    ``ValueError``, which the runner reports and survives) naming the file
    and the entry, instead of a ``KeyError``/``TypeError`` that aborts it."""

    def _load(self, tmp_path, payload):
        path = tmp_path / "poisoned.json"
        path.write_text(json.dumps(payload))
        cache = TimingCache()
        cache.store(_key(m=99), _record(999))
        with pytest.raises(TimingCacheError) as info:
            cache.load(path, merge=False)
        assert isinstance(info.value, ValueError)
        assert "poisoned.json" in str(info.value)
        assert len(cache) == 1  # a rejected file leaves the cache untouched
        return str(info.value)

    @pytest.mark.parametrize("payload", [[], "cache", 5, None],
                             ids=["list", "string", "number", "null"])
    def test_non_object_payload(self, tmp_path, payload):
        assert "not an object" in self._load(tmp_path, payload)

    def test_entries_not_a_list(self, tmp_path):
        message = self._load(tmp_path, {"version": 5, "entries": {}})
        assert "entries" in message

    @pytest.mark.parametrize("entry", [
        [1, 2],
        {"record": _entry()["record"]},
        {"key": _entry()["key"]},
        {"key": 7, "record": _entry()["record"]},
    ], ids=["entry-list", "no-key", "no-record", "key-not-object"])
    def test_malformed_entry(self, tmp_path, entry):
        message = self._load(tmp_path, {"version": 5,
                                        "entries": [_entry(), entry]})
        assert "entry 1" in message

    @pytest.mark.parametrize("section,field,value", [
        ("key", "m", None),
        ("key", "config", None),
        ("key", "exact", True),
        ("key", "bogus", 1),
        ("record", "cycles", None),
        ("record", "bogus", 1),
    ], ids=["key-missing-m", "key-missing-config", "v5-key-with-exact",
            "key-unknown", "record-missing-cycles", "record-unknown"])
    def test_missing_or_unknown_field(self, tmp_path, section, field, value):
        entry = _poison(_entry(), section, field, value)
        message = self._load(tmp_path, {"version": 5,
                                        "entries": [_entry(), entry]})
        assert "entry 1" in message
        assert field in message

    def test_conflicting_records_name_the_entry(self, tmp_path):
        entry = _entry()
        entry["record"]["cycles"] = 101
        message = self._load(tmp_path, {"version": 5,
                                        "entries": [_entry(), entry]})
        assert "entry 1" in message and "conflicting" in message


class TestFarmPersistence:
    def test_repeat_invocation_reuses_timing_across_farms(self, tmp_path):
        """A second farm (a stand-in for a second benchmark process) serves
        everything from the persisted cache: zero engine runs."""
        path = tmp_path / "farm-cache.json"
        first = SimulationFarm(max_workers=1)
        first.run_gemm(8, 16, 16)
        first.run_gemm(16, 16, 16)
        assert first.save_cache(path) == 2
        assert first.stats.engine_runs == 2

        second = SimulationFarm(max_workers=1)
        assert second.load_cache(path) == 2
        result = second.run_gemm(8, 16, 16)
        assert result.cache_hit
        assert second.stats.engine_runs == 0
        assert result.cycles == first.run_gemm(8, 16, 16).cycles
