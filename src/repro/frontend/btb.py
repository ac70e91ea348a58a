"""Branch Target Buffer: 2-way set-associative, 4K entries (Table I)."""

from __future__ import annotations

from repro.common.bitops import log2_exact


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    Stores the most recent target per branch PC.  For direct branches a hit
    means the front-end can redirect without a bubble; for returns the RAS
    takes precedence; for other indirects the stored target is the
    prediction.
    """

    def __init__(self, entries: int = 4096, ways: int = 2) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self._ways = ways
        self._sets = entries // ways
        log2_exact(self._sets)  # must be a power of two
        self._set_mask = self._sets - 1
        # Set index -> list of (tag, target) ordered most-recent-first,
        # allocated on the set's first update (an absent set is empty).
        self._storage: dict[int, list[tuple[int, int]]] = {}
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> tuple[int, int]:
        word = pc >> 2
        return word & self._set_mask, word >> (self._set_mask.bit_length())

    def lookup(self, pc: int) -> int | None:
        """Return the predicted target for *pc*, or None on a miss."""
        set_index, tag = self._locate(pc)
        ways = self._storage.get(set_index, ())
        for position, (entry_tag, target) in enumerate(ways):
            if entry_tag == tag:
                if position:
                    ways.insert(0, ways.pop(position))
                self.hits += 1
                return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target for *pc*."""
        set_index, tag = self._locate(pc)
        ways = self._storage.get(set_index)
        if ways is None:
            ways = self._storage[set_index] = []
        for position, (entry_tag, _) in enumerate(ways):
            if entry_tag == tag:
                ways.pop(position)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self._ways:
            ways.pop()
