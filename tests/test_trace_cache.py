"""Tests for the keyed trace cache (:mod:`repro.trace.cache`)."""

import pickle
import sys
import threading
from itertools import islice

from repro.trace import cache as cache_mod
from repro.trace.cache import (
    DEFAULT_CAPACITY,
    TRACE_SLACK,
    TraceCache,
    cached_spec_trace,
    configure,
    default_cache,
    trace_key,
)
from repro.trace.profiles import spec_trace
from repro.trace.synthetic import GENERATOR_VERSION
from tests.conftest import trace_fields as fields


class TestKey:
    def test_key_carries_generator_version(self):
        assert trace_key("gzip", 100, 1) == ("gzip", 100, 1,
                                             GENERATOR_VERSION)

    def test_distinct_requests_get_distinct_keys(self):
        base = trace_key("gzip", 100, 1)
        assert trace_key("mcf", 100, 1) != base
        assert trace_key("gzip", 200, 1) != base
        assert trace_key("gzip", 100, 2) != base


class TestMemoryTier:
    def test_cached_stream_matches_uncached_generator(self):
        cache = TraceCache()
        cached = cache.get("gzip", 500, seed=3)
        direct = list(spec_trace("gzip", 500, seed=3))
        assert len(cached) == 500
        assert fields(cached) == fields(direct)

    def test_hit_and_miss_accounting(self):
        cache = TraceCache()
        cache.get("gzip", 200)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.get("gzip", 200)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.get("gzip", 201)  # different length: a new entry
        assert (cache.hits, cache.misses) == (1, 2)

    def test_repeat_lookup_returns_the_same_object(self):
        cache = TraceCache()
        assert cache.get("mcf", 300) is cache.get("mcf", 300)

    def test_lru_evicts_least_recently_used(self):
        cache = TraceCache(capacity=2)
        cache.get("gzip", 100)
        cache.get("mcf", 100)
        cache.get("gzip", 100)        # refresh gzip
        cache.get("wupwise", 100)     # evicts mcf
        assert trace_key("gzip", 100, 1) in cache
        assert trace_key("mcf", 100, 1) not in cache
        assert len(cache) == 2

    def test_clear_drops_entries(self):
        cache = TraceCache()
        cache.get("gzip", 100)
        cache.clear()
        assert len(cache) == 0


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        writer = TraceCache(disk_dir=str(tmp_path))
        trace = writer.get("gzip", 400, seed=2)
        reader = TraceCache(disk_dir=str(tmp_path))
        again = reader.get("gzip", 400, seed=2)
        assert reader.disk_hits == 1 and reader.misses == 0
        assert fields(again) == fields(trace)

    def test_corrupt_file_is_regenerated(self, tmp_path):
        writer = TraceCache(disk_dir=str(tmp_path))
        writer.get("gzip", 100)
        (path,) = tmp_path.iterdir()
        path.write_bytes(b"not a pickle")
        reader = TraceCache(disk_dir=str(tmp_path))
        trace = reader.get("gzip", 100)
        assert reader.misses == 1 and reader.disk_hits == 0
        assert len(trace) == 100

    def test_wrong_length_file_is_rejected(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        key = trace_key("gzip", 100, 1)
        path = tmp_path / "gzip-100-1-v{}.pkl".format(GENERATOR_VERSION)
        path.write_bytes(pickle.dumps(tuple(spec_trace("gzip", 50))))
        assert cache._load_disk(key) is None

    def test_no_disk_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = TraceCache()
        cache.get("gzip", 100)
        assert list(tmp_path.iterdir()) == []


class TestLazyEntries:
    """A miss materialises ``length - TRACE_SLACK`` instructions; the
    slack tail is generated on demand, as the same stream."""

    LENGTH = TRACE_SLACK + 700

    def test_miss_materialises_only_the_eager_prefix(self):
        cache = TraceCache()
        entry = cache.get("gzip", self.LENGTH, seed=4)
        assert len(entry) == self.LENGTH
        assert entry.generated == 700
        assert len(cache.get("gzip", 100)) == 100  # all of it lazy
        assert cache.get("gzip", 100).generated == 0

    def test_interleaved_iterators_see_the_full_stream(self):
        entry = TraceCache().get("mcf", self.LENGTH, seed=4)
        first, second = iter(entry), iter(entry)
        a = list(islice(first, 1_500))    # into the tail
        b = list(islice(second, 300))     # still in the prefix
        while True:
            # Alternate single steps; each may extend the shared tail.
            x, y = next(first, None), next(second, None)
            if x is not None:
                a.append(x)
            if y is not None:
                b.append(y)
            if x is None and y is None:
                break
        assert len(a) == len(b) == self.LENGTH
        assert all(x is y for x, y in zip(a, b))
        assert fields(a) == fields(spec_trace("mcf", self.LENGTH, seed=4))

    def test_no_instruction_past_length(self):
        for length in (1, 255, 256, 257, TRACE_SLACK + 1):
            entry = TraceCache().get("swim", length, seed=2)
            assert len(list(entry)) == length
            assert entry.generated == length
            assert len(list(entry)) == length  # once complete, too
            assert fields(entry) == fields(spec_trace("swim", length,
                                                      seed=2))

    def test_threads_extending_one_tail_lose_nothing(self):
        entry = TraceCache().get("gcc", self.LENGTH, seed=6)
        streams = [[] for _ in range(4)]
        threads = [threading.Thread(target=stream.extend, args=(entry,))
                   for stream in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        direct = fields(spec_trace("gcc", self.LENGTH, seed=6))
        for stream in streams:
            assert fields(stream) == direct
        assert entry.generated == self.LENGTH

    def test_disk_tier_round_trips_full_length_tuples(self, tmp_path):
        writer = TraceCache(disk_dir=str(tmp_path))
        entry = writer.get("gzip", self.LENGTH, seed=2)
        assert entry.generated == self.LENGTH  # written whole
        (path,) = tmp_path.iterdir()
        with open(path, "rb") as handle:
            stored = pickle.load(handle)
        assert isinstance(stored, tuple) and len(stored) == self.LENGTH
        direct = fields(spec_trace("gzip", self.LENGTH, seed=2))
        assert fields(stored) == direct
        reader = TraceCache(disk_dir=str(tmp_path))
        again = reader.get("gzip", self.LENGTH, seed=2)
        assert reader.disk_hits == 1 and reader.misses == 0
        assert again.generated == self.LENGTH
        assert fields(again) == direct


class TestModuleLevel:
    def test_configure_replaces_default(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        first = default_cache()
        assert default_cache() is first
        replaced = configure(capacity=4)
        assert default_cache() is replaced
        assert replaced is not first
        assert replaced.capacity == 4

    def test_cached_spec_trace_yields_independent_iterators(self):
        a = list(cached_spec_trace("gzip", 150, seed=5))
        b = list(cached_spec_trace("gzip", 150, seed=5))
        assert len(a) == len(b) == 150
        # Both iterate the one cache entry: the very same instructions.
        assert all(x is y for x, y in zip(a, b))

    def test_default_capacity_bound(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        monkeypatch.delenv(cache_mod.DISK_ENV, raising=False)
        cache = default_cache()
        assert cache.capacity == DEFAULT_CAPACITY
        assert cache.disk_dir is None
