"""The bounded LRU map every cache and store keeps its entries in."""

import pytest

from repro.query.answer_cache import AnswerCache
from repro.query.cache import RewriteCache
from repro.util.lru import LRU, LRUStats


class TestBounds:
    def test_entry_bound_evicts_least_recent(self):
        lru = LRU(2)
        assert lru.put("a", 1) == []
        assert lru.put("b", 2) == []
        assert lru.put("c", 3) == [("a", 1)]
        assert len(lru) == 2
        assert "a" not in lru and "b" in lru and "c" in lru

    def test_weight_bound_evicts_until_it_holds(self):
        lru = LRU(10, max_weight=5)
        lru.put("a", "A", 2)
        lru.put("b", "B", 2)
        assert lru.put("c", "C", 3) == [("a", "A")]
        assert lru.weight == 5
        # one entry may push out several lighter ones
        assert lru.put("d", "D", 5) == [("b", "B"), ("c", "C")]
        assert lru.items() == [("d", "D")]

    def test_entry_heavier_than_the_bound_evicts_itself(self):
        lru = LRU(10, max_weight=3)
        lru.put("a", "A", 1)
        assert lru.put("big", "BIG", 4) == [("a", "A"), ("big", "BIG")]
        assert len(lru) == 0 and lru.weight == 0

    def test_re_put_re_weighs(self):
        lru = LRU(10, max_weight=5)
        lru.put("a", "A", 0)  # e.g. an in-flight scan
        lru.put("b", "B", 2)
        assert lru.weight == 2
        # the landed value weighs in, and the re-put makes it recent
        assert lru.put("a", "A2", 4) == [("b", "B")]
        assert lru.weight == 4
        assert lru.peek("a") == "A2"

    @pytest.mark.parametrize("entries,weight", [(0, None), (-1, None),
                                                (1, 0), (1, -5)])
    def test_bound_below_one_is_rejected(self, entries, weight):
        with pytest.raises(ValueError):
            LRU(entries, weight)


class TestRecency:
    def test_get_refreshes_and_peek_does_not(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "b" is now the least recent
        assert lru.put("c", 3) == [("b", 2)]
        assert lru.peek("a") == 1  # "a" stays the least recent
        assert lru.put("d", 4) == [("a", 1)]

    def test_iteration_runs_least_recent_first(self):
        lru = LRU(3)
        for key in "abc":
            lru.put(key, key.upper())
        lru.get("a")
        assert lru.items() == [("b", "B"), ("c", "C"), ("a", "A")]
        assert lru.values() == ["B", "C", "A"]

    def test_missing_keys_read_as_none(self):
        lru = LRU(1)
        assert lru.get("x") is None
        assert lru.peek("x") is None
        assert lru.pop("x") is None


class TestRemoval:
    def test_pop_returns_value_and_releases_weight(self):
        lru = LRU(3, max_weight=10)
        lru.put("a", "A", 4)
        lru.put("b", "B", 3)
        assert lru.pop("a") == "A"
        assert "a" not in lru and lru.weight == 3

    def test_clear_reports_count_and_resets_weight(self):
        lru = LRU(3, max_weight=10)
        lru.put("a", "A", 4)
        lru.put("b", "B", 3)
        assert lru.clear() == 2
        assert len(lru) == 0 and lru.weight == 0
        assert lru.clear() == 0


class TestStats:
    def test_hit_rate_and_snapshot(self):
        stats = LRUStats()
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses, stats.lru_evictions = 2, 1, 4
        assert stats.lookups == 3
        assert stats.snapshot() == {"hits": 2, "misses": 1,
                                    "lru_evictions": 4,
                                    "hit_rate": 0.6667}


class TestCacheBounds:
    """The caches read their bounds from module constants (moved here
    from the per-cache ``max_entries=0`` checks)."""

    def test_rewrite_cache_rejects_a_zero_bound(self, monkeypatch):
        import repro.query.cache as cache_module
        monkeypatch.setattr(cache_module, "REWRITE_CACHE_ENTRIES", 0)
        with pytest.raises(ValueError):
            RewriteCache()

    def test_answer_cache_rejects_a_zero_bound(self, monkeypatch):
        import repro.query.answer_cache as answer_cache_module
        monkeypatch.setattr(answer_cache_module, "ANSWER_CACHE_ENTRIES", 0)
        with pytest.raises(ValueError):
            AnswerCache()
