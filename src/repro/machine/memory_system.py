"""The multiprocessor memory system: caches, coherence, bus and timing.

This module ties the cache, bus, TLB and prefetch models into the
trace-driven simulator used by :mod:`repro.sim.engine`.  Its design follows
the paper's SimOS configuration:

* Each processor has split 2-way on-chip caches indexed by *virtual*
  address and a large external cache indexed by *physical* address.  Page
  mapping policy therefore affects only the external cache (Section 5.4).
* An invalidate protocol keeps the external caches coherent over a
  split-transaction bus with finite bandwidth.  Dirty remote hits cost the
  cache-to-cache latency (750ns base) instead of the memory latency (500ns).
* External-cache misses are classified into cold, capacity, conflict, true
  sharing and false sharing.  Conflict-vs-capacity uses a per-processor
  fully-associative LRU shadow cache of the same capacity; sharing misses
  use the word-granularity definition of Dubois et al. [8]: a miss caused
  by an invalidation is *true* sharing if the processor reads a word
  actually written by another processor since its last access, and *false*
  sharing otherwise.

Simplifications relative to SimOS (documented in DESIGN.md): on-chip
caches are not back-invalidated on external-cache evictions, and L1
writebacks are not charged to the bus.  Neither affects the external-cache
conflict behaviour that CDPC targets.

Geometry is taken from ``config.hierarchy`` (:mod:`repro.machine.
hierarchy`), which generalizes the paper's machine three ways:

* **Sliced LLC.**  When the geometry's color function is not the classic
  bit-field, every LLC probe routes through its ``line_index`` hash (the
  ``index_fn`` of :class:`~repro.machine.cache.SetAssociativeCache`), so
  the slice hash decides set placement while the rest of the pipeline is
  unchanged.
* **Shared LLC.**  A ``shared`` LLC level is one cache (and one shadow)
  aliased into every CPU's slot.  Write coherence then invalidates only
  the other CPUs' on-chip (and mid-level) copies — the LLC line itself
  stays resident — and an LLC hit registers the reading CPU as a sharer
  and consumes any pending invalidation mask (the reader communicates
  through the shared cache instead of taking a coherence miss).
* **Mid-level cache.**  An optional private mid level is probed between
  the L1s and the LLC; hits cost the level's ``hit_ns`` and are counted
  as external-hierarchy hits.  Mid misses fill the mid on the way to the
  LLC; mid evictions are silent (clean — dirty tracking stays at the
  coherence layer).  Miss classification (shadow, ``_seen``) therefore
  sees only post-mid traffic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from repro.machine.bus import BusTransactionKind, SplitTransactionBus
from repro.machine.cache import FullyAssociativeLRU, SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.prefetch import PrefetchUnit
from repro.machine.stats import CpuStats, MachineStats, MissKind
from repro.machine.tlb import Tlb


class AccessResult(NamedTuple):
    """Outcome of one memory reference."""

    stall_ns: float
    kernel_ns: float
    l1_hit: bool
    l2_hit: bool
    miss_kind: Optional[MissKind]


class MemorySystem:
    """A coherent multiprocessor memory hierarchy driven by address traces.

    ``prefetch_fills_tlb`` implements the paper's footnote 1 (Section 6.2):
    a hypothetical prefetch that, instead of being dropped on a TLB miss,
    fills the TLB entry and proceeds — "may be desirable for large
    matrix-based codes where TLB faults are common".
    """

    def __init__(self, config: MachineConfig, prefetch_fills_tlb: bool = False) -> None:
        self.config = config
        self.prefetch_fills_tlb = prefetch_fills_tlb
        n = config.num_cpus
        self.stats = MachineStats.for_cpus(n)
        self.bus = SplitTransactionBus(config.bus_bandwidth_gb_s)
        self._l1d = [SetAssociativeCache(config.l1d) for _ in range(n)]
        self._l1i = [SetAssociativeCache(config.l1i) for _ in range(n)]
        hierarchy = config.hierarchy
        assert hierarchy is not None
        color_fn = config.color_function
        #: Geometry-supplied LLC set indexing; ``None`` keeps the classic
        #: inline modulo (and the fast path's inline replica of it).
        self._llc_index = None if color_fn.classic else color_fn.line_index
        #: Whether the LLC is one cache shared by every CPU.
        self.llc_shared = hierarchy.llc.shared
        if self.llc_shared:
            shared_llc = SetAssociativeCache(config.l2, self._llc_index)
            shared_shadow = FullyAssociativeLRU(config.l2.num_lines)
            self._l2 = [shared_llc] * n
            self._shadow: list[FullyAssociativeLRU] = [shared_shadow] * n
        else:
            self._l2 = [
                SetAssociativeCache(config.l2, self._llc_index) for _ in range(n)
            ]
            self._shadow = [FullyAssociativeLRU(config.l2.num_lines) for _ in range(n)]
        mid_level = hierarchy.mid
        if mid_level is None:
            self._mid: Optional[list[SetAssociativeCache]] = None
            self._mid_hit_ns = 0.0
        else:
            self._mid = [SetAssociativeCache(mid_level.cache_config) for _ in range(n)]
            self._mid_hit_ns = (
                mid_level.hit_ns if mid_level.hit_ns is not None else 25.0
            )
        # Mid-level hit total (observability; per-CPU stats fold these
        # into l2_hits, so this aggregate never feeds results).
        self.mid_hits = 0
        self._tlb = [Tlb(config.tlb) for _ in range(n)]
        self._prefetch = [PrefetchUnit(config.max_outstanding_prefetches) for _ in range(n)]
        # Coherence directory: physical line -> (set of caching CPUs, dirty CPU).
        self._sharers: dict[int, set[int]] = {}
        self._dirty: dict[int, Optional[int]] = {}
        # Dubois bookkeeping: physical line -> {cpu -> mask of words written by
        # *other* CPUs since that cpu last accessed the line}.
        self._pending: dict[int, dict[int, int]] = {}
        # Lines each CPU has ever referenced, for cold-miss classification.
        self._seen: list[set[int]] = [set() for _ in range(n)]
        # Prefetched lines still in flight: (cpu, line) -> arrival time.
        self._inflight: dict[tuple[int, int], float] = {}
        # Conflict misses per physical frame since the last inspection —
        # the counters a dynamic recoloring policy consumes (Section 2.1).
        self._frame_conflicts: defaultdict[int, int] = defaultdict(int)
        # All external-cache misses per physical frame, never reset — used
        # for per-array miss attribution in run results.
        self.frame_misses: defaultdict[int, int] = defaultdict(int)
        # Demand-miss total maintained at the access layer, independently
        # of the per-frame counters above; the invariant checker verifies
        # the two accounting paths agree (sum(frame_misses) == this).
        self.demand_l2_misses = 0
        # References retired through the vectorized fast path (flushed per
        # chunk by the loop runner).  Pure observability: the per-CPU stats
        # already include these, so the counters never feed results.
        self.fast_retired_data = 0
        self.fast_retired_instr = 0
        self._line = config.l2.line_size
        self._line_mask = ~(self._line - 1)
        self._word = config.word_size
        # Hot-path constants (page_size is a validated power of two).
        self._page_shift = config.page_size.bit_length() - 1
        self._tlb_miss_ns = config.tlb.miss_latency_ns

    # ------------------------------------------------------------------
    # Demand accesses

    def access(
        self,
        cpu: int,
        time_ns: float,
        vaddr: int,
        paddr: int,
        is_write: bool,
        is_instr: bool = False,
    ) -> AccessResult:
        """Perform one reference; updates statistics and returns its timing."""
        stats = self.stats.cpus[cpu]
        kernel_ns = 0.0
        if not self._tlb[cpu].access(vaddr >> self._page_shift):
            stats.tlb_misses += 1
            kernel_ns = self._tlb_miss_ns

        vline = vaddr & self._line_mask
        l1 = self._l1i[cpu] if is_instr else self._l1d[cpu]
        l1_hit, _evicted = l1.access_line(vline)
        if l1_hit:
            if is_instr:
                stats.l1i_hits += 1
            else:
                stats.l1d_hits += 1
            if is_write:
                stall = self._write_coherence(cpu, time_ns, paddr, stats)
                return AccessResult(stall, kernel_ns, True, True, None)
            return AccessResult(0.0, kernel_ns, True, True, None)

        if is_instr:
            stats.l1i_misses += 1
        else:
            stats.l1d_misses += 1

        stall, l2_hit, kind = self._l2_access(cpu, time_ns, vaddr, paddr, is_write, stats)
        if kind is not None:
            self.demand_l2_misses += 1
        return AccessResult(stall, kernel_ns, False, l2_hit, kind)

    def _l2_access(
        self,
        cpu: int,
        time_ns: float,
        vaddr: int,
        paddr: int,
        is_write: bool,
        stats: CpuStats,
    ) -> tuple[float, bool, Optional[MissKind]]:
        pline = paddr & self._line_mask
        mid = self._mid
        if mid is not None:
            mid_cache = mid[cpu]
            if mid_cache.lookup(pline):
                self.mid_hits += 1
                stats.l2_hits += 1
                stall = self._mid_hit_ns
                stats.l1_stall_ns += stall
                if is_write:
                    stall += self._write_coherence(cpu, time_ns + stall, paddr, stats)
                return stall, True, None
            # Fill the mid level on the way to the LLC; evictions are
            # silent (clean — dirty tracking lives at the coherence layer).
            mid_cache.insert(pline)
        l2 = self._l2[cpu]
        shadow_hit = self._shadow[cpu].access(pline)
        if l2.lookup(pline):
            if self.llc_shared:
                # The reader may be hitting a line another CPU brought
                # in: register it as a sharer (so later writers
                # invalidate its on-chip copies) and consume any pending
                # invalidation mask — it communicated through the shared
                # cache instead of taking a coherence miss.
                self._sharers.setdefault(pline, set()).add(cpu)
                pending = self._pending.get(pline)
                if pending is not None and cpu in pending:
                    del pending[cpu]
                    if not pending:
                        del self._pending[pline]
            inflight = self._inflight.pop((cpu, pline), None)
            extra = 0.0
            if inflight is not None:
                # The line was prefetched; a demand access before arrival
                # waits for the remainder of the prefetch latency.
                stats.prefetches_useful += 1
                extra = max(0.0, inflight - time_ns)
            stats.l2_hits += 1
            stall = self.config.l2_hit_ns + extra
            stats.l1_stall_ns += stall
            if is_write:
                stall += self._write_coherence(cpu, time_ns + stall, paddr, stats)
            return stall, True, None

        kind = self._classify_miss(cpu, pline, paddr, shadow_hit)
        stats.l2_misses[kind] += 1
        frame = paddr >> self._page_shift
        self.frame_misses[frame] += 1
        if kind is MissKind.CONFLICT:
            self._frame_conflicts[frame] += 1
        self._seen[cpu].add(pline)

        latency = self._fetch_line(cpu, time_ns, pline, stats)
        stats.l2_stall_ns[kind] += latency

        evicted = l2.insert(pline)
        if evicted is not None:
            self._handle_eviction(cpu, time_ns, evicted)
        self._sharers.setdefault(pline, set()).add(cpu)
        if is_write:
            latency += self._write_coherence(cpu, time_ns + latency, paddr, stats)
        return latency, False, kind

    def _classify_miss(
        self, cpu: int, pline: int, paddr: int, shadow_hit: bool
    ) -> MissKind:
        pending = self._pending.get(pline)
        if pending is not None and cpu in pending:
            mask = pending.pop(cpu)
            if not pending:
                del self._pending[pline]
            word_bit = 1 << self.config.l2.word_offset(paddr, self._word)
            return MissKind.TRUE_SHARING if mask & word_bit else MissKind.FALSE_SHARING
        if pline not in self._seen[cpu]:
            return MissKind.COLD
        # Shadow state is sampled *before* this access touched it: a hit
        # there means a fully-associative cache of equal capacity would
        # have held the line, so the miss is due to limited associativity.
        if shadow_hit:
            return MissKind.CONFLICT
        return MissKind.CAPACITY

    def _fetch_line(self, cpu: int, time_ns: float, pline: int, stats: CpuStats) -> float:
        """Fetch a line over the bus; returns total latency including queueing."""
        grant = self.bus.request(time_ns, self._line, BusTransactionKind.DATA)
        queue_delay = grant - time_ns
        dirty_owner = self._dirty.get(pline)
        if dirty_owner is not None and dirty_owner != cpu:
            # Cache-to-cache transfer; the owner's copy reverts to shared
            # and its dirty data is written back.
            base = self.config.remote_latency_ns
            self.bus.request(grant, self._line, BusTransactionKind.WRITEBACK)
            self._dirty[pline] = None
        else:
            base = self.config.mem_latency_ns
        return queue_delay + base

    def _write_coherence(
        self, cpu: int, time_ns: float, paddr: int, stats: CpuStats
    ) -> float:
        """Obtain exclusive ownership of a line for a write."""
        pline = paddr & self._line_mask
        sharers = self._sharers.setdefault(pline, set())
        sharers.add(cpu)
        word_bit = 1 << self.config.l2.word_offset(paddr, self._word)
        stall = 0.0
        others = [other for other in sharers if other != cpu]
        if others or self._dirty.get(pline) not in (cpu, None):
            grant = self.bus.request(time_ns, 0, BusTransactionKind.UPGRADE)
            stall = grant - time_ns
        if others:
            vline = pline  # shared address space: virtual and physical lines
            pending = self._pending.setdefault(pline, {})
            for other in others:
                if not self.llc_shared:
                    # A shared LLC holds one copy for everyone — the
                    # writer's own line must survive; only the other
                    # CPUs' private copies are stale.
                    self._l2[other].invalidate(pline)
                if self._mid is not None:
                    self._mid[other].invalidate(pline)
                self._invalidate_l1(other, pline)
                pending[other] = pending.get(other, 0) | word_bit
                sharers.discard(other)
        # Accumulate this write into every pending mask for the line, so a
        # reader that stays away through several writes still sees the full
        # set of words modified since its last access (Dubois).
        pending = self._pending.get(pline)
        if pending is not None:
            for other in pending:
                if other != cpu:
                    pending[other] |= word_bit
        self._dirty[pline] = cpu
        return stall

    def _invalidate_l1(self, cpu: int, pline: int) -> None:
        # The workloads run as one shared-address-space process, so the
        # virtual line address equals the virtual line of every other
        # processor; we conservatively invalidate using the physical line in
        # both virtually-indexed L1s (identity aliasing is close enough for
        # the page-granularity questions this simulator answers).
        self._l1d[cpu].invalidate(pline)
        self._l1i[cpu].invalidate(pline)

    def _handle_eviction(self, cpu: int, time_ns: float, evicted_line: int) -> None:
        sharers = self._sharers.get(evicted_line)
        if sharers is not None:
            sharers.discard(cpu)
        if self._dirty.get(evicted_line) == cpu:
            self._dirty[evicted_line] = None
            self.bus.request(time_ns, self._line, BusTransactionKind.WRITEBACK)
        self._inflight.pop((cpu, evicted_line), None)

    # ------------------------------------------------------------------
    # Prefetch

    def prefetch(
        self, cpu: int, time_ns: float, vaddr: int, paddr: int, tlb_strict: bool = True
    ) -> float:
        """Issue a software prefetch; returns any CPU stall it causes.

        Prefetches to unmapped TLB pages are dropped (no exception, no
        fill); lines are inserted into the external cache only.

        ``tlb_strict=False`` skips the TLB probe.  The geometric scaling
        shrinks pages relative to lines (2 lines/page instead of 32), so a
        unit-stride prefetch crosses pages far more often than on the real
        machine; the engine therefore enforces the drop rule only for
        accesses the compiler marked TLB-hostile (large strides — the
        applu pathology of Section 6.2), which is where it changes results.
        """
        stats = self.stats.cpus[cpu]
        stats.prefetches_issued += 1
        vpage = vaddr // self.config.page_size
        if tlb_strict and not self._tlb[cpu].probe(vpage):
            if not self.prefetch_fills_tlb:
                stats.prefetches_dropped_tlb += 1
                return 0.0
            # Footnote-1 prefetch: fill the TLB entry and continue.
            self._tlb[cpu].access(vpage)
            stats.tlb_misses += 1
        pline = paddr & self._line_mask
        if self._l2[cpu].contains(pline):
            return 0.0
        latency = self._fetch_line(cpu, time_ns, pline, stats)
        stall = self._prefetch[cpu].issue(time_ns, time_ns + latency)
        if stall:
            stats.prefetch_stalls += 1
            stats.prefetch_stall_ns += stall
        evicted = self._l2[cpu].insert(pline)
        if evicted is not None:
            self._handle_eviction(cpu, time_ns, evicted)
        self._sharers.setdefault(pline, set()).add(cpu)
        self._seen[cpu].add(pline)
        self._shadow[cpu].access(pline)
        self._inflight[(cpu, pline)] = time_ns + stall + latency
        return stall

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and analysis)

    def l2_utilization(self, cpu: int) -> float:
        return self._l2[cpu].utilization()

    def tlb_stats(self, cpu: int) -> tuple[int, int]:
        tlb = self._tlb[cpu]
        return tlb.hits, tlb.misses

    def line_state(self, paddr: int) -> tuple[frozenset[int], Optional[int]]:
        pline = paddr & self._line_mask
        return frozenset(self._sharers.get(pline, ())), self._dirty.get(pline)

    # ------------------------------------------------------------------
    # Dynamic-recoloring support (Section 2.1's alternative policy)

    def consume_frame_conflicts(self) -> dict[int, int]:
        """Return and reset the per-frame conflict-miss counters."""
        counters = self._frame_conflicts
        self._frame_conflicts = defaultdict(int)
        return counters

    def invalidate_frame(self, frame: int) -> None:
        """Purge every line of a physical frame from all caches.

        Called when a page migrates to a new frame: the old frame's lines
        are gone, and the new frame's contents will fault in cold.
        """
        page = self.config.page_size
        base = frame * page
        for offset in range(0, page, self._line):
            pline = base + offset
            for cpu in range(self.config.num_cpus):
                self._l2[cpu].invalidate(pline)
                self._shadow[cpu].invalidate(pline)
                if self._mid is not None:
                    self._mid[cpu].invalidate(pline)
                self._seen[cpu].discard(pline)
                self._inflight.pop((cpu, pline), None)
            self._sharers.pop(pline, None)
            self._dirty.pop(pline, None)
            self._pending.pop(pline, None)

    def shootdown(self, vpage: int) -> None:
        """Flush a virtual page's TLB entry on every processor."""
        for tlb in self._tlb:
            tlb.invalidate(vpage)

    # ------------------------------------------------------------------
    # Observability

    def emit_metrics(self, registry) -> None:
        """Publish memory-system totals into a ``repro.obs`` registry.

        Called once per run by the engine; complements
        :meth:`MachineStats.emit_metrics` with the accounting only the
        memory system holds (bus traffic, demand-miss cross-check,
        fast-path retirement counters).
        """
        registry.counter("memsys.demand_l2_misses").inc(self.demand_l2_misses)
        registry.counter("memsys.fast_retired_data").inc(self.fast_retired_data)
        registry.counter("memsys.fast_retired_instr").inc(self.fast_retired_instr)
        for kind in BusTransactionKind:
            registry.counter(f"bus.transactions.{kind.value}").inc(
                self.bus.transactions[kind]
            )
            registry.gauge(f"bus.busy_ns.{kind.value}").set(self.bus.busy_ns[kind])
