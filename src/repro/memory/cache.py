"""Set-associative cache with LRU replacement, MSHRs and pending fills.

The timing model uses *latency composition*: an access walks the hierarchy,
updates replacement state, and returns its load-to-use latency.  Misses
allocate an MSHR until the fill completes; same-line misses merge onto the
outstanding MSHR; a full MSHR file delays the access until the oldest
outstanding miss retires (Table I: 64 MSHRs per cache).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import LINE_SHIFT  # 64-byte lines (Table I)

__all__ = ["LINE_SHIFT", "NO_WAYS", "Cache", "CacheStats"]

#: What an unallocated set reads as: empty, and ``.index`` raises
#: ``ValueError`` exactly like an allocated set without the line.
NO_WAYS: tuple = ()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_stalls: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache:
    """One level of the hierarchy.

    ``hit_latency`` is the full load-to-use latency when this level hits
    (Table I quotes per-level load-to-use, not incremental, latencies).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        hit_latency: int,
        mshrs: int = 64,
    ) -> None:
        lines = size_bytes >> LINE_SHIFT
        if lines % ways:
            raise ValueError(f"{name}: lines not divisible by ways")
        self.name = name
        self.ways = ways
        self.sets = lines // ways
        if self.sets & (self.sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        self._set_mask = self.sets - 1
        self.hit_latency = hit_latency
        self.mshr_limit = mshrs
        # Set index -> MRU-first list of line tags.  A set is allocated
        # on its first fill: most of a large cache's sets are never
        # touched in a window, and an absent set reads as empty.
        self._tags: dict[int, list[int]] = {}
        self._dirty: set[int] = set()
        # Outstanding misses: line -> fill-ready cycle.
        self._pending: dict[int, int] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def present(self, line: int) -> bool:
        """True iff *line* is resident (no LRU update)."""
        return line in self._tags.get(line & self._set_mask, NO_WAYS)

    def touch(self, line: int) -> bool:
        """Probe for *line*; promotes to MRU on hit.  Returns hit flag."""
        ways = self._tags.get(line & self._set_mask, NO_WAYS)
        try:
            position = ways.index(line)
        except ValueError:
            return False
        if position:
            ways.insert(0, ways.pop(position))
        return True

    def fill(self, line: int, dirty: bool = False,
             prefetch: bool = False) -> int | None:
        """Install *line*; returns the victim line if one was evicted."""
        set_index = line & self._set_mask
        ways = self._tags.get(set_index)
        if ways is None:
            ways = self._tags[set_index] = []
        tag = line
        victim = None
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= self.ways:
            victim = ways.pop()
            self._dirty.discard(victim)
        ways.insert(0, tag)
        if dirty:
            self._dirty.add(line)
        if prefetch:
            self.stats.prefetch_fills += 1
        return victim

    def mark_dirty(self, line: int) -> None:
        self._dirty.add(line)

    def is_dirty(self, line: int) -> bool:
        return line in self._dirty

    # ------------------------------------------------------------------
    # Miss-status handling
    # ------------------------------------------------------------------

    def _prune_pending(self, cycle: int) -> None:
        pending = self._pending
        if not pending:
            return
        for ready in pending.values():
            if ready <= cycle:
                done = [
                    line for line, fill in pending.items() if fill <= cycle
                ]
                for line in done:
                    del pending[line]
                return

    def lookup(self, line: int, cycle: int) -> tuple[bool, int]:
        """Access *line* at *cycle*.

        Returns ``(hit, extra_delay)``: on a hit the caller charges
        ``hit_latency``.  ``extra_delay`` > 0 accounts for merging onto an
        outstanding same-line miss (the remaining fill time) — the caller
        should treat that as the full miss service time already under way.
        A plain miss returns ``(False, 0)`` and the caller must call
        :meth:`start_miss` once it knows the fill latency.
        """
        self._prune_pending(cycle)
        if line in self._pending:
            # The line was installed by start_miss but its fill is still
            # in flight: merge onto the outstanding MSHR.
            self.touch(line)
            self.stats.mshr_merges += 1
            return True, self._pending[line] - cycle
        if self.touch(line):
            self.stats.hits += 1
            return True, 0
        self.stats.misses += 1
        return False, 0

    def start_miss(self, line: int, cycle: int, fill_latency: int) -> int:
        """Allocate an MSHR for a miss; returns extra stall cycles if full."""
        stall = 0
        if len(self._pending) >= self.mshr_limit:
            oldest_ready = min(self._pending.values())
            stall = max(0, oldest_ready - cycle)
            self.stats.mshr_stalls += 1
            self._prune_pending(oldest_ready)
        self._pending[line] = cycle + stall + fill_latency
        self.fill(line)
        return stall
