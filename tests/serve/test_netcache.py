"""Network-cache tests: content keys, reuse, and error paths."""

import pytest

from repro.ops5.errors import Ops5Error
from repro.rete.network import ReteNetwork
from repro.serve.netcache import NetworkCache

from .conftest import COUNTER, SPINNER


class TestCompileKey:
    def test_deterministic(self):
        assert ReteNetwork.compile_key(COUNTER) == ReteNetwork.compile_key(COUNTER)

    def test_mode_distinguishes(self):
        assert ReteNetwork.compile_key(COUNTER, "compiled") != ReteNetwork.compile_key(
            COUNTER, "interpreted"
        )

    def test_source_distinguishes(self):
        assert ReteNetwork.compile_key(COUNTER) != ReteNetwork.compile_key(SPINNER)

    def test_crlf_normalized(self):
        assert ReteNetwork.compile_key(COUNTER.replace("\n", "\r\n")) == (
            ReteNetwork.compile_key(COUNTER)
        )


class TestCache:
    def test_compile_once(self):
        cache = NetworkCache()
        entry1, cached1 = cache.get(COUNTER)
        entry2, cached2 = cache.get(COUNTER)
        assert not cached1 and cached2
        assert entry1 is entry2
        assert entry1.network is entry2.network
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        assert entry1.sessions_served == 2

    def test_network_carries_its_key(self):
        cache = NetworkCache()
        entry, _ = cache.get(COUNTER)
        assert entry.network.key == entry.key == ReteNetwork.compile_key(COUNTER)

    def test_distinct_programs_distinct_entries(self):
        cache = NetworkCache()
        e1, _ = cache.get(COUNTER)
        e2, _ = cache.get(SPINNER)
        assert e1.key != e2.key
        assert len(cache) == 2

    def test_rhs_table_covers_all_productions(self):
        cache = NetworkCache()
        entry, _ = cache.get(COUNTER)
        assert set(entry.rhs_table) == {"tick", "done"}

    def test_bad_program_caches_nothing(self):
        cache = NetworkCache()
        with pytest.raises(Ops5Error):
            cache.get("(p broken")
        assert len(cache) == 0
        assert cache.misses == 0

    def test_stats_shape(self):
        cache = NetworkCache()
        entry, _ = cache.get(COUNTER)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["programs"][entry.key[:12]]["productions"] == 2
