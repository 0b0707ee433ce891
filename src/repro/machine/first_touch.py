"""Exact vectorized first-touch kernel for the engine's init pass.

In the paper's init section the master CPU writes every line of every
array page once, in page order; that fault order fixes the page-to-color
mapping bin hopping and touch-order CDPC produce, so the pass must stay
bit-identical to the ``fast_path=False`` oracle.  A page touched for the
first time in the pass owns lines no cache, shadow cache, ``_seen`` set
or directory entry can hold yet, so each of its references is a TLB
miss (first line) or hit, an L1 miss, a cold LLC miss, a bus fetch and
an exclusive write.  Only LRU order and the bus backlog carry state, and
both are computable in bulk:

* inserting distinct new keys into an LRU set evicts the old ways
  oldest-first, then the new keys in insertion order;
* with the bus drained at every request a reference costs
  ``(busy + mem_ns) + kernel_ns``, so one sequential ``np.cumsum`` over
  the increments performs the oracle's additions in the oracle's order
  (never ``np.sum``, whose pairwise order rounds differently); whether
  every request is drained is checked on that planned clock vector
  before anything is mutated.

Re-touched pages, and whole passes the kernel cannot prove safe, go
through :func:`repro.machine.fast_path.loop_runner`;
:func:`first_touch_init` reports the lines each path retired.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np

from repro.machine.bus import BusTransactionKind
from repro.machine.fast_path import loop_runner
from repro.machine.memory_system import MemorySystem
from repro.machine.stats import MissKind

__all__ = ["FALLBACK_REASONS", "first_touch_init"]

#: Why init lines took the per-reference path: a page touched earlier in
#: the pass; a sliced or shared LLC or a mid level; an allocation that may
#: reclaim; a bus request that would queue; state predating the pass.
FALLBACK_REASONS = (
    "retouched",
    "geometry",
    "reclaim_possible",
    "bus_not_drained",
    "state_not_empty",
)

_DATA = BusTransactionKind.DATA
_WRITEBACK = BusTransactionKind.WRITEBACK


class _WriteStream(NamedTuple):
    """The init pass as a :func:`loop_runner` stream: one write per line."""

    addrs: list
    flags: list
    prefetch: None
    vpages: list
    offsets: list
    vlines: list
    fast_kinds: list


def first_touch_init(
    ms: MemorySystem, vm, page_cache: dict, order: list[int], t: float,
    busy_per_ref: float,
) -> tuple[float, float, dict[str, int]]:
    """Write every line of every page of ``order`` on CPU 0, exactly.

    Returns ``(clock, fault_kernel_ns, lines)``: the advanced CPU-0 clock,
    the page-fault time to charge as kernel overhead, and the lines each
    path retired — ``"bulk"`` for the kernel, otherwise keyed by
    :data:`FALLBACK_REASONS`.
    """
    lines = dict.fromkeys(("bulk",) + FALLBACK_REASONS, 0)
    per_page = ms.config.page_size // ms._line
    reason = _ineligible(ms, vm, page_cache, order)
    if reason is not None:
        lines[reason] = len(order) * per_page
        return (*_scalar(ms, vm, page_cache, order, t, busy_per_ref), lines)
    fault_kernel = 0.0
    for fresh, pages in _runs(order):
        bulk = None
        if fresh:
            bulk = _bulk(ms, vm, page_cache, pages, t, busy_per_ref)
        if bulk is not None:
            t, kernel = bulk
            lines["bulk"] += len(pages) * per_page
        else:
            t, kernel = _scalar(ms, vm, page_cache, pages, t, busy_per_ref)
            key = "bus_not_drained" if fresh else "retouched"
            lines[key] += len(pages) * per_page
        # Page-fault times are whole multiples of PAGE_FAULT_NS, exact in
        # float64, so summing them per run matches the oracle's one chain.
        fault_kernel += kernel
    return t, fault_kernel, lines


def _ineligible(ms: MemorySystem, vm, page_cache: dict,
                order: list[int]) -> Optional[str]:
    """The reason no page of the pass may take the kernel, or ``None``."""
    if ms._llc_index is not None or ms.llc_shared or ms._mid is not None:
        return "geometry"
    if (
        page_cache or ms._sharers or ms._dirty or ms._pending or ms._inflight
        or ms._seen[0] or ms._tlb[0]._entries or ms._l1d[0].resident
        or ms._l2[0].resident or ms._shadow[0]._lines
    ):
        return "state_not_empty"
    physmem = vm.physmem
    is_mapped = vm.page_table.is_mapped
    to_fault = sum(1 for vpage in set(order) if not is_mapped(vpage))
    if physmem.fail_hook is not None or physmem.free_frames() < to_fault:
        return "reclaim_possible"
    return None


def _runs(order: list[int]):
    """Split the page order into maximal runs of fresh / re-touched pages."""
    seen: set[int] = set()
    run: list[int] = []
    fresh = True
    for vpage in order:
        is_fresh = vpage not in seen
        if is_fresh != fresh and run:
            yield fresh, run
            run = []
        fresh = is_fresh
        seen.add(vpage)
        run.append(vpage)
    if run:
        yield fresh, run


def _scalar(ms: MemorySystem, vm, page_cache: dict, pages: list[int],
            t: float, busy_per_ref: float) -> tuple[float, float]:
    """Run ``pages`` through the per-reference fast path."""
    psz = ms.config.page_size
    line = ms._line
    page_shift = psz.bit_length() - 1
    addrs: list[int] = []
    for vpage in pages:
        start = vpage << page_shift
        addrs.extend(range(start, start + psz, line))
    n = len(addrs)
    stream = _WriteStream(
        addrs=addrs,
        flags=[1] * n,
        prefetch=None,
        vpages=[a >> page_shift for a in addrs],
        offsets=[a & (psz - 1) for a in addrs],
        vlines=addrs,  # already line-aligned
        fast_kinds=[0] * n,  # init writes never take the hit filter
    )
    runner = loop_runner(ms, vm, page_cache, 0, stream)
    next(runner)
    t, _kernel_total, fault_kernel = runner.send((0, n, t, busy_per_ref, 1))
    runner.close()
    return t, fault_kernel


def _accumulate(start: float, step: float, count: int) -> float:
    """``start`` plus ``count`` additions of ``step``, one at a time."""
    if not count:
        return start
    values = np.full(count + 1, step)
    values[0] = start
    return float(np.add.accumulate(values)[-1])


def _bulk(ms: MemorySystem, vm, page_cache: dict, pages: list[int],
          t: float, busy_per_ref: float) -> Optional[tuple[float, float]]:
    """Retire a run of fresh pages; ``None`` (nothing mutated) if unsafe."""
    config = ms.config
    psz = config.page_size
    line = ms._line
    per_page = psz // line
    k = len(pages)
    n = k * per_page
    bus = ms.bus
    data_occ = (line + bus.COMMAND_BYTES) / bus.bandwidth_bytes_per_ns
    fault_ns = vm.PAGE_FAULT_NS
    is_mapped = vm.page_table.is_mapped
    unmapped = [not is_mapped(vpage) for vpage in pages]

    # ---- Plan the clock chain: per page a fault slot (0.0 when mapped;
    # x + 0.0 == x exactly) and one increment per line.
    width = per_page + 1
    increments = np.full((k, width), busy_per_ref + config.mem_latency_ns)
    increments[:, 0] = np.where(unmapped, fault_ns, 0.0)
    increments[:, 1] += ms._tlb_miss_ns  # every fresh page misses the TLB
    chain = np.cumsum(np.concatenate(([t], increments.ravel())))
    # Request time of each line: the clock after the preceding slot.
    requests = chain[:-1].reshape(k, width)[:, 1:].ravel()
    first = float(requests[0])
    backlog0 = bus._backlog_ns
    last0 = bus._last_update_ns
    if first > last0:
        drained = backlog0 - (first - last0) <= 0.0
    else:
        drained = first == last0 and backlog0 == 0.0
    if not drained or not bool(np.all(
        (requests[1:] > requests[:-1])
        & ((data_occ + data_occ) - (requests[1:] - requests[:-1]) <= 0.0)
    )):
        return None

    # ---- Faults, in page order, before any cache state moves.
    fault = vm.fault
    fault_kernel = 0.0
    for vpage in compress(pages, unmapped):
        fault(vpage, 0, concurrent_faults=1)
        fault_kernel += fault_ns
    frame_of = vm.page_table.frame_of
    frames = [frame_of(vpage) for vpage in pages]
    page_cache.update(zip(pages, [frame * psz for frame in frames]))
    offsets = np.arange(0, psz, line, dtype=np.int64)
    plines = (np.asarray(frames, dtype=np.int64)[:, None] * psz + offsets).ravel()
    vlines = (np.asarray(pages, dtype=np.int64)[:, None] * psz + offsets).ravel()
    pline_list = plines.tolist()

    # ---- TLB (every page misses once), L1d and shadow: insert-only LRU.
    tlb = ms._tlb[0]
    _append_lru(tlb._entries, pages, tlb.config.entries)
    tlb.hits += n - k
    tlb.misses += k
    shadow = ms._shadow[0]
    _append_lru(shadow._lines, pline_list, shadow.capacity)
    l1d = ms._l1d[0]
    _insert_fresh(l1d, vlines, (vlines >> l1d._line_shift) % l1d._num_sets)

    # ---- LLC: cold misses, evictions write back dirty victims.
    l2 = ms._l2[0]
    old_victims, evicting, evicted = _insert_fresh(
        l2, plines, (plines >> l2._line_shift) % l2._num_sets
    )
    sharers = ms._sharers
    dirty = ms._dirty
    writeback = np.zeros(n, dtype=bool)
    # A line of this run was written here, so it is dirty on CPU 0.
    writeback[evicting] = True
    for index, victim in old_victims:
        vsh = sharers.get(victim)
        if vsh is not None:
            vsh.discard(0)
        if dirty.get(victim) == 0:
            dirty[victim] = None
            writeback[index] = True
    evicted_list = evicted.tolist()
    sharers.update(
        zip(pline_list, [set() if gone else {0} for gone in evicted_list])
    )
    dirty.update(zip(pline_list, [None if gone else 0 for gone in evicted_list]))
    ms._seen[0].update(pline_list)
    frame_misses = ms.frame_misses
    for frame in frames:
        frame_misses[frame] += per_page

    # ---- Statistics and bus state, in the oracle's accumulation order.
    stats = ms.stats.cpus[0]
    stats.tlb_misses += k
    stats.l1d_misses += n
    stats.l2_misses[MissKind.COLD] += n
    stats.l2_stall_ns[MissKind.COLD] = _accumulate(
        stats.l2_stall_ns[MissKind.COLD], config.mem_latency_ns, n
    )
    ms.demand_l2_misses += n
    writebacks = int(np.count_nonzero(writeback))
    bus.busy_ns[_DATA] = _accumulate(bus.busy_ns[_DATA], data_occ, n)
    bus.busy_ns[_WRITEBACK] = _accumulate(
        bus.busy_ns[_WRITEBACK], data_occ, writebacks
    )
    bus.transactions[_DATA] += n
    bus.transactions[_WRITEBACK] += writebacks
    complete = requests + data_occ
    latest = float(complete[-1])
    if writebacks:
        latest = max(latest, float(np.max(complete[writeback] + data_occ)))
    bus.last_complete_ns = max(bus.last_complete_ns, latest)
    bus._last_update_ns = float(requests[-1])
    bus._backlog_ns = 0.0 + data_occ
    if writeback[-1]:
        bus._backlog_ns += data_occ
    return float(chain[-1]), fault_kernel


def _append_lru(entries: OrderedDict, keys: list[int], capacity: int) -> None:
    """Append new keys to an LRU ``OrderedDict``, evicting from the front."""
    if len(keys) >= capacity:
        entries.clear()
        keys = keys[-capacity:]
    entries.update(dict.fromkeys(keys))
    for _ in range(len(entries) - capacity):
        entries.popitem(last=False)


def _insert_fresh(cache, keys: np.ndarray, sets: np.ndarray):
    """Insert distinct keys no set holds into an LRU set-associative cache.

    Returns ``(old_victims, evicting, evicted)``: ``(reference index,
    line)`` per eviction of a way held before the run, the indices of the
    references that evicted one of ``keys``, and a mask of the keys that
    were evicted again within the run.
    """
    assoc = cache._associativity
    n = len(keys)
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_keys = keys[order]
    uniq, start, counts = np.unique(
        sorted_sets, return_index=True, return_counts=True
    )
    rank = np.arange(n) - np.repeat(start, counts)
    size = np.repeat(counts, counts)
    evicted = np.empty(n, dtype=bool)
    evicted[order] = rank < size - assoc
    # The reference of rank j >= assoc in its set evicts the run's key of
    # rank j - assoc.
    evicting = order[rank >= assoc]
    old_victims: list[tuple[int, int]] = []
    ways_of = cache._sets
    resident = cache.resident
    for s, begin, count in zip(uniq.tolist(), start.tolist(), counts.tolist()):
        ways = ways_of[s]
        newest = sorted_keys[begin:begin + count][::-1][:assoc].tolist()
        if ways:
            # The reference of rank j < assoc evicts old way assoc - 1 - j
            # once the set is full.
            for j in range(min(count, assoc)):
                slot = assoc - 1 - j
                if slot < len(ways):
                    old_victims.append((int(order[begin + j]), ways[slot]))
                    resident.discard(ways[slot])
        ways[:] = (newest + ways)[:assoc]
    resident.update(keys[~evicted].tolist())
    return old_victims, evicting, evicted
