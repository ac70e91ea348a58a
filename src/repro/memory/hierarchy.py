"""The full memory hierarchy of Table I.

L1I/L1D 32KB 8-way, private unified L2 256KB 16-way, shared L3 6MB 24-way,
64B lines, LRU, per-cache MSHRs, stride prefetcher at L1D, stream
prefetchers at L2/L3, dual-channel DDR4 behind it all, ITLB/DTLB in front.

Latencies are *load-to-use per hit level* as Table I quotes them: L1D 4,
L2 12, L3 21, memory 21 + DRAM service time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import Cache, LINE_SHIFT, NO_WAYS
from repro.memory.dram import DramConfig, DramModel
from repro.memory.prefetcher import StreamPrefetcher, StridePrefetcher
from repro.memory.tlb import PAGE_SHIFT, Tlb


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry and latencies (defaults: Table I)."""

    l1i_bytes: int = 32 * 1024
    l1i_ways: int = 8
    l1i_latency: int = 1
    l1d_bytes: int = 32 * 1024
    l1d_ways: int = 8
    l1d_latency: int = 4
    l2_bytes: int = 256 * 1024
    l2_ways: int = 16
    l2_latency: int = 12
    l3_bytes: int = 6 * 1024 * 1024
    l3_ways: int = 24
    l3_latency: int = 21
    mshrs: int = 64
    itlb_entries: int = 128
    dtlb_entries: int = 64
    enable_prefetch: bool = True
    dram: DramConfig = field(default_factory=DramConfig)


class MemoryHierarchy:
    """Latency-composition model of the three-level hierarchy."""

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        c = self.config
        self.l1i = Cache("L1I", c.l1i_bytes, c.l1i_ways, c.l1i_latency, c.mshrs)
        self.l1d = Cache("L1D", c.l1d_bytes, c.l1d_ways, c.l1d_latency, c.mshrs)
        self.l2 = Cache("L2", c.l2_bytes, c.l2_ways, c.l2_latency, c.mshrs)
        self.l3 = Cache("L3", c.l3_bytes, c.l3_ways, c.l3_latency, c.mshrs)
        self.dram = DramModel(c.dram)
        self.itlb = Tlb(c.itlb_entries)
        self.dtlb = Tlb(c.dtlb_entries)
        self.stride_prefetcher = StridePrefetcher()
        self.l2_stream = StreamPrefetcher()
        self.l3_stream = StreamPrefetcher()

    # ------------------------------------------------------------------

    def _miss_path_latency(self, line: int, cycle: int,
                           for_prefetch: bool = False) -> int:
        """Latency to obtain *line* from beyond L1D, installing fills.

        Also drives the L2/L3 stream prefetchers on demand misses.
        """
        c = self.config
        addr = line << LINE_SHIFT
        l2_hit, l2_merge = self.l2.lookup(line, cycle)
        if l2_hit:
            return c.l2_latency + l2_merge

        if not for_prefetch and c.enable_prefetch:
            for prefetch_addr in self.l2_stream.observe_miss(addr):
                self._prefetch_into_l2(prefetch_addr, cycle)

        l3_hit, l3_merge = self.l3.lookup(line, cycle)
        if l3_hit:
            latency = c.l3_latency + l3_merge
            self.l2.start_miss(line, cycle, latency)
            return latency

        if not for_prefetch and c.enable_prefetch:
            for prefetch_addr in self.l3_stream.observe_miss(addr):
                self._prefetch_into_l3(prefetch_addr, cycle)

        dram_latency = self.dram.access(addr, cycle)
        latency = c.l3_latency + dram_latency
        self.l3.start_miss(line, cycle, latency)
        self.l2.start_miss(line, cycle, latency)
        return latency

    def _prefetch_into_l2(self, addr: int, cycle: int) -> None:
        line = addr >> LINE_SHIFT
        if self.l2.present(line):
            return
        if self.l3.present(line):
            latency = self.config.l3_latency
        else:
            latency = self.config.l3_latency + self.dram.access(addr, cycle)
            self.l3.fill(line, prefetch=True)
        self.l2.start_miss(line, cycle, latency)
        self.l2.stats.prefetch_fills += 1

    def _prefetch_into_l3(self, addr: int, cycle: int) -> None:
        line = addr >> LINE_SHIFT
        if self.l3.present(line):
            return
        latency = self.dram.access(addr, cycle)
        self.l3.start_miss(line, cycle, latency)
        self.l3.stats.prefetch_fills += 1

    def _prefetch_into_l1d(self, addr: int, cycle: int) -> None:
        line = addr >> LINE_SHIFT
        if self.l1d.present(line):
            return
        if self.l2.present(line):
            latency = self.config.l2_latency
        elif self.l3.present(line):
            latency = self.config.l3_latency
        else:
            latency = self.config.l3_latency + self.dram.access(addr, cycle)
            self.l3.fill(line, prefetch=True)
            self.l2.fill(line, prefetch=True)
        self.l1d.start_miss(line, cycle, latency)
        self.l1d.stats.prefetch_fills += 1

    # ------------------------------------------------------------------

    def load(self, pc: int, addr: int, cycle: int) -> int:
        """Data load at *cycle*; returns load-to-use latency.

        Hot-path inlining: the DTLB access and the L1D hit path run
        with no method dispatch (bodies of ``Tlb.access``,
        ``Cache.lookup``/``Cache.touch`` verbatim — edit together; the
        golden suites pin every counter).  Misses and MSHR merges fall
        back to the full machinery.
        """
        c = self.config
        # --- inlined self.dtlb.access(addr) ---------------------------
        dtlb = self.dtlb
        page = addr >> PAGE_SHIFT
        pages = dtlb._pages
        if page in pages:
            del pages[page]
            pages[page] = None  # refresh to MRU
            dtlb.hits += 1
            latency = 0
        else:
            dtlb.misses += 1
            pages[page] = None
            if len(pages) > dtlb._entries:
                del pages[next(iter(pages))]  # evict the LRU page
            latency = dtlb.walk_penalty
        line = addr >> LINE_SHIFT

        if c.enable_prefetch:
            prefetches = self.stride_prefetcher.observe(pc, addr)
            if prefetches:
                for prefetch_addr in prefetches:
                    self._prefetch_into_l1d(prefetch_addr, cycle)

        # --- inlined self.l1d.lookup(line, cycle), hit path -----------
        l1d = self.l1d
        pending = l1d._pending
        if pending:
            l1d._prune_pending(cycle)
            if line in pending:
                l1d.touch(line)
                l1d.stats.mshr_merges += 1
                return latency + c.l1d_latency + (pending[line] - cycle)
        ways = l1d._tags.get(line & l1d._set_mask, NO_WAYS)
        try:
            position = ways.index(line)
        except ValueError:
            l1d.stats.misses += 1
            miss_latency = self._miss_path_latency(line, cycle)
            stall = l1d.start_miss(line, cycle, miss_latency)
            return latency + miss_latency + stall
        if position:
            ways.insert(0, ways.pop(position))
        l1d.stats.hits += 1
        return latency + c.l1d_latency

    def store(self, pc: int, addr: int, cycle: int) -> int:
        """Data store (write-allocate, write-back); returns fill latency.

        Committed stores drain from the store queue without stalling the
        pipeline, but they still move lines and occupy DRAM banks.
        """
        latency = self.dtlb.access(addr)
        line = addr >> LINE_SHIFT
        l1_hit, l1_merge = self.l1d.lookup(line, cycle)
        if l1_hit:
            self.l1d.mark_dirty(line)
            return latency + self.config.l1d_latency + l1_merge
        miss_latency = self._miss_path_latency(line, cycle)
        stall = self.l1d.start_miss(line, cycle, miss_latency)
        self.l1d.mark_dirty(line)
        return latency + miss_latency + stall

    def fetch(self, pc: int, cycle: int) -> int:
        """Instruction fetch of the block containing *pc*.

        Returns *extra* front-end bubble cycles (0 when L1I hits: the
        1-cycle access is part of the pipelined front end).  The ITLB
        and L1I hit paths are inlined like :meth:`load`'s.
        """
        # --- inlined self.itlb.access(pc) -----------------------------
        itlb = self.itlb
        page = pc >> PAGE_SHIFT
        pages = itlb._pages
        if page in pages:
            del pages[page]
            pages[page] = None  # refresh to MRU
            itlb.hits += 1
            latency = 0
        else:
            itlb.misses += 1
            pages[page] = None
            if len(pages) > itlb._entries:
                del pages[next(iter(pages))]  # evict the LRU page
            latency = itlb.walk_penalty
        line = pc >> LINE_SHIFT

        # --- inlined self.l1i.lookup(line, cycle), hit path -----------
        l1i = self.l1i
        pending = l1i._pending
        if pending:
            l1i._prune_pending(cycle)
            if line in pending:
                l1i.touch(line)
                l1i.stats.mshr_merges += 1
                return latency + (pending[line] - cycle)
        ways = l1i._tags.get(line & l1i._set_mask, NO_WAYS)
        try:
            position = ways.index(line)
        except ValueError:
            l1i.stats.misses += 1
            miss_latency = self._miss_path_latency(line, cycle)
            stall = l1i.start_miss(line, cycle, miss_latency)
            return latency + miss_latency + stall
        if position:
            ways.insert(0, ways.pop(position))
        l1i.stats.hits += 1
        return latency
