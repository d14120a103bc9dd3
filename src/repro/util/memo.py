"""One bounded, thread-safe memo type for every process-local cache.

A :class:`Memo` is an LRU map bounded by an entry count and, optionally,
by a byte budget over its values (``sizeof``).  It counts its own hits,
misses (fills) and evictions.  Memos built with ``register=True`` join
:data:`MEMOS`, which :func:`clear_memos` walks and ``/v1/stats`` reads.

Every memo here caches a pure function of its key, so an eviction only
costs a recompute; it never changes a result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Generic, Hashable, TypeVar

__all__ = ["MEMOS", "Memo", "clear_memos", "memo_stats"]

V = TypeVar("V")

#: registered memos by name.
MEMOS: dict[str, "Memo[Any]"] = {}


class Memo(Generic[V]):
    """LRU memo bounded by ``max_entries`` and, with ``sizeof``, by
    ``budget_bytes`` of resident values.  The newest entry always stays,
    so a value larger than the budget is still served."""

    def __init__(self, name: str, max_entries: int, *,
                 budget_bytes: int | None = None,
                 sizeof: Callable[[V], int] | None = None,
                 register: bool = True) -> None:
        self.name = name
        self.max_entries = max_entries
        self._budget = budget_bytes
        self._sizeof = sizeof
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        self._resident = 0
        self.hits = self.misses = self.evictions = 0
        if register:
            MEMOS[name] = self

    def get(self, key: Hashable) -> V | None:
        """The value under ``key`` (a hit, made most recent), else None."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Store a freshly computed value (a miss) unless another thread
        stored one first (then a hit); return the resident value."""
        with self._lock:
            resident = self._data.get(key)
            if resident is not None:
                self.hits += 1
                self._data.move_to_end(key)
                return resident
            self.misses += 1
            self._data[key] = value
            if self._sizeof is not None:
                self._resident += self._sizeof(value)
            self._evict()
            return value

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value under ``key``, computing it outside the lock on a
        miss; a raced fill keeps the first value stored."""
        value = self.get(key)
        return value if value is not None else self.put(key, compute())

    def _evict(self) -> None:
        data = self._data
        while len(data) > 1 and (
                len(data) > self.max_entries
                or (self._budget is not None
                    and self._resident > self._budget)):
            _, victim = data.popitem(last=False)
            if self._sizeof is not None:
                self._resident -= self._sizeof(victim)
            self.evictions += 1

    def set_budget(self, budget_bytes: int | None) -> None:
        """Re-size the byte budget (``None`` lifts it) and evict down to
        it at once."""
        with self._lock:
            self._budget = budget_bytes
            self._evict()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._resident = 0
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int | None]:
        with self._lock:
            return {"entries": len(self._data),
                    "resident_bytes": self._resident,
                    "budget_bytes": self._budget,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


def clear_memos() -> None:
    """Clear every registered memo."""
    for memo in list(MEMOS.values()):
        memo.clear()


def memo_stats() -> dict[str, dict[str, int | None]]:
    """Per-memo counters of every registered memo, by name."""
    return {name: memo.stats() for name, memo in sorted(MEMOS.items())}
