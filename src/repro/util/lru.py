"""A recency-ordered map bounded by entry count and, optionally, weight.

Every cache and store of the system keeps its entries in one
:class:`LRU`, so a long-running server holds a bounded footprint. The
LRU takes no lock: every owner already serializes on its own lock. The
caches count their traffic in subclasses of :class:`LRUStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Generic, Hashable, TypeVar

__all__ = ["LRU", "LRUStats"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRU(Generic[K, V]):
    """Least-recently-used map bounded by *max_entries* entries and, when
    given, by *max_weight* summed entry weights (rows, for the caches of
    relations). :meth:`items` and :meth:`values` run least recent first.
    """

    def __init__(self, max_entries: int,
                 max_weight: int | None = None) -> None:
        if max_entries < 1 or (max_weight is not None and max_weight < 1):
            raise ValueError("an LRU bound must be >= 1")
        self.max_entries = max_entries
        self.max_weight = max_weight
        #: summed weight of the entries held
        self.weight = 0
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: K) -> V | None:
        """The value under *key*, made the most recent; ``None`` if absent."""
        item = self._entries.get(key)
        if item is None:
            return None
        self._entries.move_to_end(key)
        return item[0]

    def peek(self, key: K) -> V | None:
        """The value under *key*, recency untouched; ``None`` if absent."""
        item = self._entries.get(key)
        return None if item is None else item[0]

    def put(self, key: K, value: V, weight: int = 0) -> list[tuple[K, V]]:
        """Store *value* under *key* as the most recent entry weighing
        *weight* (a re-put re-weighs), then evict least-recent entries
        until both bounds hold; returns the evicted ``(key, value)``
        pairs. An entry heavier than *max_weight* evicts itself."""
        self.pop(key)
        self._entries[key] = (value, weight)
        self.weight += weight
        evicted: list[tuple[K, V]] = []
        while len(self._entries) > self.max_entries or (
                self.max_weight is not None
                and self.weight > self.max_weight):
            victim, (gone, gone_weight) = next(iter(self._entries.items()))
            del self._entries[victim]
            self.weight -= gone_weight
            evicted.append((victim, gone))
        return evicted

    def pop(self, key: K) -> V | None:
        """Remove the entry under *key*; its value, or ``None``."""
        item = self._entries.pop(key, None)
        if item is None:
            return None
        self.weight -= item[1]
        return item[0]

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.weight = 0
        return dropped

    def values(self) -> list[V]:
        return [value for value, _ in self._entries.values()]

    def items(self) -> list[tuple[K, V]]:
        return [(key, item[0]) for key, item in self._entries.items()]


@dataclass
class LRUStats:
    """The counters every LRU-backed cache keeps; subclasses add theirs."""

    hits: int = 0
    misses: int = 0
    #: entries dropped by the LRU's entry or weight bound
    lru_evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before any lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def tally(self, name: str, reason: str) -> None:
        """Count one event under *reason* in the per-reason counter
        *name* (a ``dict[str, int]`` field of the subclass)."""
        counts: dict[str, int] = getattr(self, name)
        counts[reason] = counts.get(reason, 0) + 1

    def snapshot(self) -> dict[str, object]:
        """Every counter, and the hit rate rounded to 4 places."""
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}
