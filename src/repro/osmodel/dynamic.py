"""Dynamic page recoloring and the adaptive CDPC re-planner.

Section 2.1 describes dynamic policies that detect conflicts at run time
(via a cache-miss lookaside buffer or TLB state plus miss counters) and
*recolor* a page by copying it to a frame of a different color.  The paper
notes that "the performance of dynamic policies for multiprocessors has
not been studied" and predicts high overheads: every processor's TLB must
be flushed and the copy generates traffic.  :class:`DynamicRecolorer`
implements such a policy so the prediction can be tested against CDPC
(see ``benchmarks/test_ablation_dynamic.py``).

:class:`AdaptiveCdpc` is the middle ground the paper never needed on a
dedicated machine: it keeps the compile-time plan but *re-plans* the
color assignment transactionally when capacity churn (competing address
spaces arriving and departing, the host revoking physical memory) makes
the original colors unhonorable.  The plan's color classes are remapped
bijectively onto the colors that still have capacity — a bijection
preserves the plan's conflict-freedom — and a bounded number of
already-mapped pages migrate to their new colors.

Both recolorers share one transactional migration primitive: the
replacement frame is allocated *before* the page is unmapped, the copy
window is an explicit step (where a capacity revocation may strike), and
every abort path returns the staged frame and leaves the VM→frame
mapping and the free lists exactly as they were.

:class:`HintWatchdog` decides when either runs: it watches the hint
honor rate and, when the static hints stop being honored, re-plans
through :class:`AdaptiveCdpc` or falls back to the
:class:`DynamicRecolorer`.  The engine calls it at phase boundaries and,
in the adaptive mode, after every page fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.machine.memory_system import MemorySystem
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer
from repro.osmodel.physmem import OutOfMemoryError
from repro.osmodel.policies import CdpcHintPolicy
from repro.osmodel.vm import VirtualMemory

#: Signature of the copy-window hook: ``(vpage, old_frame, new_frame)``.
#: Fault injectors and churn drivers use it to revoke capacity in the
#: worst possible window — after the copy destination is staged, before
#: the remap commits.  Raising :class:`OutOfMemoryError` from the hook
#: aborts the migration transactionally.
MigrationHook = Callable[[int, int, int], None]

#: Hinted faults a watchdog window needs before its honor rate is judged.
MIN_JUDGED_REQUESTS = 8
#: Re-plans allowed per run before the adaptive mode concedes and falls
#: back to the dynamic recolorer like a plain watchdog trip.
ADAPTIVE_MAX_REPLANS = 4
#: A window only counts as a *collapse* (and triggers a re-plan) when its
#: honor rate is below the watchdog threshold AND below this fraction of
#: the best healthy rate observed so far.  The relative test keeps a plan
#: that is merely mediocre from burning the re-plan budget the moment the
#: run starts; the watchdog reacts to *drops*.
ADAPTIVE_COLLAPSE_RATIO = 0.8


def remap_plan_colors(
    plan_colors: dict[int, int],
    capacity_by_color: list[int],
    demand_by_color: Optional[list[int]] = None,
) -> dict[int, int]:
    """Remap a vpage → color plan onto a surviving-capacity distribution.

    Each plan color class carries a *demand* — how many of its pages
    still need a frame (by default the class's page count).  Classes are
    packed onto colors greedily, most demanding class first onto the
    color with the most *remaining* capacity, debiting the capacity as
    it goes.  When capacity is spread evenly this degenerates to a
    permutation that preserves the plan's separation; when churn has
    concentrated the grantable frames on a few colors, classes *fold*
    onto the honorable band — trading some cache-bin separation for
    placements that can actually be honored, which is the right trade
    while capacity is gone (the next re-plan spreads back out once it
    returns).  Classes with zero demand keep their color: all their
    pages are placed, so moving their hint would only trigger migrations
    and burn capacity the faulting classes need.  Ties break toward the
    lowest color so the remap is deterministic.
    """
    num_colors = len(capacity_by_color)
    usage = [0] * num_colors
    for color in plan_colors.values():
        usage[color % num_colors] += 1
    demand = list(demand_by_color) if demand_by_color is not None else usage
    remaining = list(capacity_by_color)
    permutation: dict[int, int] = {}
    for cls in sorted(range(num_colors), key=lambda c: (-demand[c], c)):
        if demand[cls] <= 0:
            permutation[cls] = cls
            continue
        target = max(range(num_colors), key=lambda c: (remaining[c], -c))
        permutation[cls] = target
        remaining[target] -= demand[cls]
    return {
        vpage: permutation[color % num_colors]
        for vpage, color in plan_colors.items()
    }


@dataclass
class RecolorEvent:
    """One page migration."""

    vpage: int
    old_frame: int
    new_frame: int
    conflicts: int


class MigrationAborted(Exception):
    """A migration ran out of memory; the staged frame was returned."""


def migration_cost_ns(vm: VirtualMemory, ms: MemorySystem,
                      shootdown_ns: float) -> float:
    """Cost of one migration: copy both ways over the bus + shootdowns."""
    page = vm.config.page_size
    copy_ns = 2 * page / ms.bus.bandwidth_bytes_per_ns
    return copy_ns + shootdown_ns * vm.config.num_cpus


def migrate_page(
    vm: VirtualMemory,
    ms: MemorySystem,
    vpage: int,
    frame: int,
    new_color: int,
    conflicts: int = 0,
    pre_remap_hook: Optional[MigrationHook] = None,
) -> Optional[RecolorEvent]:
    """Move one mapped page to a frame of ``new_color``, transactionally.

    The transaction order is: stage (allocate the destination frame),
    copy (the window where ``pre_remap_hook`` may revoke capacity or
    fail), verify (the mapping may have moved under a reclaim), commit
    (unmap + map + free the old frame + invalidate its cache lines).

    Returns the :class:`RecolorEvent` on commit, ``None`` when the
    migration was skipped because the mapping changed under us (the
    staged frame is returned to its free list), and raises
    :class:`MigrationAborted` when memory ran out — in every case the
    VM→frame mapping and the free lists are left consistent.
    """
    physmem = vm.physmem
    try:
        new_frame = physmem.alloc(new_color)
    except OutOfMemoryError as exc:
        raise MigrationAborted(str(exc)) from exc
    try:
        # The copy window: two page-sized bus transfers in the model.  A
        # capacity revocation (or an injected failure) may strike here.
        if pre_remap_hook is not None:
            pre_remap_hook(vpage, frame, new_frame)
    except OutOfMemoryError as exc:
        # Abort: return the staged frame; the page stays mapped where it
        # was and the free lists balance.
        physmem.free(new_frame)
        raise MigrationAborted(str(exc)) from exc
    if vm.page_table.frame_of(vpage) != frame:
        # The page moved (or was reclaimed) under us while the allocator
        # ran its reclaim path or during the copy window; drop this
        # migration and return the staged frame.
        physmem.free(new_frame)
        return None
    vm.page_table.unmap(vpage)
    vm.page_table.map(vpage, new_frame)
    physmem.free(frame)
    ms.invalidate_frame(frame)
    return RecolorEvent(vpage, frame, new_frame, conflicts)


@dataclass
class DynamicRecolorer:
    """Miss-counter-driven page recoloring (the dynamic policy of §2.1)."""

    vm: VirtualMemory
    ms: MemorySystem
    #: Conflict misses a page must accumulate (since the last inspection)
    #: before it is considered for recoloring.
    threshold: int = 32
    #: Pages migrated per inspection at most — real implementations bound
    #: this to limit kernel time per interval.
    max_per_step: int = 16
    #: Per-processor TLB-shootdown cost.
    shootdown_ns: float = 3000.0
    events: list[RecolorEvent] = field(default_factory=list)
    #: Inspection intervals cut short because no frame of the target color
    #: could be allocated (graceful degradation: migration is best-effort).
    aborted_steps: int = 0
    #: Optional degradation-event callback: ``(kind, detail)``.
    on_degradation: Optional[Callable[[str, dict], None]] = None
    #: Optional copy-window hook (see :data:`MigrationHook`): called
    #: between staging the destination frame and committing the remap, so
    #: capacity revocation can be injected mid-migration.
    pre_remap_hook: Optional[MigrationHook] = None

    def migration_cost_ns(self) -> float:
        """Cost of one migration: copy both ways over the bus + shootdowns."""
        return migration_cost_ns(self.vm, self.ms, self.shootdown_ns)

    def _least_loaded_color(self) -> int:
        histogram = self.vm.color_histogram()
        return histogram.index(min(histogram))

    def step(self) -> tuple[list[RecolorEvent], float]:
        """Inspect counters and migrate the worst pages.

        Returns the migrations performed and the total kernel cost.  The
        inspected counters are consumed, so each interval reacts to fresh
        conflicts only.

        Each migration is transactional (see :func:`migrate_page`): the
        replacement frame is staged before the page is unmapped, and a
        failure anywhere in the window — allocation exhaustion, or a
        capacity revocation striking between the copy and the remap —
        returns the staged frame and abandons the remaining migrations
        for this interval (recorded in :attr:`aborted_steps`) with the
        VM→frame mapping and free lists intact.  Recoloring is an
        optimization, not a correctness requirement.
        """
        counters = self.ms.consume_frame_conflicts()
        if not counters:
            return [], 0.0
        reverse = {frame: vpage for vpage, frame in self.vm.page_table.mappings()}
        candidates = sorted(
            (
                (count, frame)
                for frame, count in counters.items()
                if count >= self.threshold and frame in reverse
            ),
            reverse=True,
        )[: self.max_per_step]

        performed: list[RecolorEvent] = []
        total_cost = 0.0
        for count, frame in candidates:
            vpage = reverse[frame]
            new_color = self._least_loaded_color()
            if new_color == self.vm.physmem.color_of(frame):
                continue
            try:
                event = migrate_page(
                    self.vm, self.ms, vpage, frame, new_color,
                    conflicts=count, pre_remap_hook=self.pre_remap_hook,
                )
            except MigrationAborted:
                self.aborted_steps += 1
                if self.on_degradation is not None:
                    self.on_degradation(
                        "aborted_recolor",
                        {"vpage": vpage, "wanted_color": new_color,
                         "migrated_before_abort": len(performed)},
                    )
                break
            if event is None:
                continue
            performed.append(event)
            total_cost += self.migration_cost_ns()
        self.events.extend(performed)
        return performed, total_cost

    @property
    def total_migrations(self) -> int:
        return len(self.events)


@dataclass
class ReplanEvent:
    """One adaptive re-plan: new hints plus the migrations that realized it."""

    #: The fresh vpage → color hint table (bijective remap of the plan).
    hints: dict[int, int]
    #: Migrations committed while realizing the new plan.
    migrations: list[RecolorEvent]
    #: True when the migration pass was cut short by exhaustion.
    aborted: bool
    #: Honor rate observed in the window that triggered the re-plan.
    honor_rate_before: float
    #: Kernel cost of the committed migrations.
    cost_ns: float


@dataclass
class AdaptiveCdpc:
    """Transactional mid-run color re-planning (the adaptive CDPC mode).

    When capacity churn collapses the hint honor rate, the static plan is
    not abandoned (the dynamic-recolorer fallback) but *re-planned*: the
    plan's color classes that still have pages to place are packed onto
    the colors ranked by surviving grantable capacity (free frames plus
    reclaimable held frames), and the hottest stale mapped pages migrate
    to their new colors — each migration transactional, every abort path
    leaving VM/physmem invariants intact.
    """

    vm: VirtualMemory
    ms: MemorySystem
    #: The compile-time vpage → color plan being adapted.
    plan_colors: dict[int, int]
    #: Pages migrated per re-plan at most (bounds kernel time, exactly as
    #: the dynamic recolorer bounds its inspection intervals).
    max_migrations: int = 32
    #: Per-processor TLB-shootdown cost (same model as the recolorer).
    shootdown_ns: float = 3000.0
    events: list[ReplanEvent] = field(default_factory=list)
    aborted_replans: int = 0
    on_degradation: Optional[Callable[[str, dict], None]] = None
    #: Copy-window hook forwarded to every migration.
    pre_remap_hook: Optional[MigrationHook] = None

    def capacity_by_color(self) -> list[int]:
        """Frames per color a fault of this address space can be *granted*.

        Free frames are granted directly.  *Held* frames (a competing
        address space's) count too: the held-frame reclaimer pages out a
        competitor frame of the exact requested color when one exists, so
        a color rich in held frames honors hints nearly as well as a free
        one.  Frames this address space already maps do NOT count —
        cold-page eviction picks the globally coldest page regardless of
        the requested color, so owning frames of a color does not make
        that color honorable.  *Revoked* frames are truly gone.
        """
        physmem = self.vm.physmem
        capacity = [
            physmem.free_frames_of_color(color)
            for color in range(physmem.num_colors)
        ]
        for frame in physmem.held_frames():
            capacity[physmem.color_of(frame)] += 1
        return capacity

    def replan(self, honor_rate: float = 0.0) -> ReplanEvent:
        """Re-map the plan onto surviving capacity and migrate the worst pages.

        The color permutation is computed by :meth:`remap_hints`; the
        migration pass then walks the mapped pages whose current color
        disagrees with the new hint, hottest (most recorded misses)
        first, and moves up to :attr:`max_migrations` of them.  A
        migration abort (exhaustion, or revocation striking in the copy
        window) abandons the rest of the pass — the new hint table is
        still installed, so subsequent faults land on honorable colors.
        """
        hints = self.remap_hints()
        migrations: list[RecolorEvent] = []
        aborted = False
        cost = 0.0
        physmem = self.vm.physmem
        frame_misses = self.ms.frame_misses
        stale = sorted(
            (
                (-frame_misses.get(frame, 0), vpage, frame)
                for vpage, frame in self.vm.page_table.mappings()
                if hints.get(vpage) is not None
                and physmem.color_of(frame) != hints[vpage]
            ),
        )[: self.max_migrations]
        for _priority, vpage, frame in stale:
            try:
                event = migrate_page(
                    self.vm, self.ms, vpage, frame, hints[vpage],
                    pre_remap_hook=self.pre_remap_hook,
                )
            except MigrationAborted:
                aborted = True
                self.aborted_replans += 1
                if self.on_degradation is not None:
                    self.on_degradation(
                        "aborted_replan",
                        {"vpage": vpage, "wanted_color": hints[vpage],
                         "migrated_before_abort": len(migrations)},
                    )
                break
            if event is None:
                continue
            migrations.append(event)
            cost += migration_cost_ns(self.vm, self.ms, self.shootdown_ns)
        outcome = ReplanEvent(
            hints=hints,
            migrations=migrations,
            aborted=aborted,
            honor_rate_before=honor_rate,
            cost_ns=cost,
        )
        self.events.append(outcome)
        if self.on_degradation is not None:
            self.on_degradation(
                "adaptive_replan",
                {"migrations": len(migrations), "aborted": aborted,
                 "honor_rate_before": round(honor_rate, 4)},
            )
        return outcome

    def demand_by_color(self) -> list[int]:
        """Pages per plan class that are *unmapped* — the future faults.

        A page evicted by revocation (or a reclaim cascade) re-faults the
        next time the program touches it; a page that is mapped does not
        fault at all.  Ranking classes by unmapped pages aims the re-plan
        at exactly the demand the new hints will serve.
        """
        num_colors = self.vm.physmem.num_colors
        frame_of = self.vm.page_table.frame_of
        demand = [0] * num_colors
        for vpage, color in self.plan_colors.items():
            if frame_of(vpage) is None:
                demand[color % num_colors] += 1
        return demand

    def remap_hints(self) -> dict[int, int]:
        """Remap the plan's colors onto surviving capacity.

        See :func:`remap_plan_colors`; capacity here is grantable frames
        (free plus reclaimable-with-matching-color held), demand the
        unmapped pages per class.
        """
        return remap_plan_colors(
            self.plan_colors,
            self.capacity_by_color(),
            demand_by_color=self.demand_by_color(),
        )

    @property
    def total_replans(self) -> int:
        return len(self.events)

    @property
    def total_migrations(self) -> int:
        return sum(len(event.migrations) for event in self.events)


@dataclass
class HintWatchdog:
    """The hint-honor watchdog and the run-time recoloring it falls back to.

    A plain watchdog (``threshold`` set) trips once the cumulative honor
    rate drops below ``threshold``: the static hints are cleared and the
    Section 2.1 recolorer takes over (``dynamic_recolor`` runs it from
    the start).  The adaptive watchdog (``plan_colors`` set) judges a
    window of recent faults and re-plans through :class:`AdaptiveCdpc`
    on a collapse, tripping only once the re-plan budget is spent.
    Migrated pages go back to the engine through
    ``apply_migrations(vpages, cost_ns)``.
    """

    vm: VirtualMemory
    ms: MemorySystem
    apply_migrations: Callable[[list[int], float], None]
    on_degradation: Callable[[str, dict], None]
    #: Honor rate below which the hints are judged lost; None never trips.
    threshold: Optional[float] = None
    #: The compile-time vpage → color plan; set, the mode is adaptive.
    plan_colors: Optional[dict[int, int]] = None
    dynamic_recolor: bool = False
    recolor_threshold: int = 16
    recolor_max_per_step: int = 32
    tracer: Tracer | NullTracer = NULL_TRACER  # one ``cdpc.replan`` span each
    tripped: bool = field(default=False, init=False)
    recolorer: Optional[DynamicRecolorer] = field(default=None, init=False)
    adaptive: Optional[AdaptiveCdpc] = field(default=None, init=False)
    #: Best healthy window rate seen, against which a collapse is judged.
    ref_rate: Optional[float] = field(default=None, init=False)
    # Counters at the last re-plan (or healthy window), so each window
    # judges fresh faults only.
    _base_requests: int = field(default=0, init=False)
    _base_honored: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.dynamic_recolor:
            self._start_recolorer()

    @property
    def aborted_recolor_steps(self) -> int:
        return self.recolorer.aborted_steps if self.recolorer else 0

    def at_boundary(self) -> None:
        """Phase boundary: the recolor step, then the watchdog judgment."""
        if self.recolorer is not None:
            events, cost_ns = self.recolorer.step()
            self.apply_migrations([event.vpage for event in events], cost_ns)
        if self.threshold is None or self.tripped:
            return
        if self.plan_colors is not None:
            self._judge_window(boundary=True)
            return
        physmem = self.vm.physmem
        if physmem.hint_requests < MIN_JUDGED_REQUESTS:
            return
        rate = physmem.hint_honor_rate
        if rate < self.threshold:
            self._trip(rate)

    def on_fault(self) -> None:
        """Adaptive judgment after every page fault.

        A capacity-revocation storm plays out within a phase; judging per
        fault lets the re-plan fire mid-storm, while there is still
        unmapped demand to re-aim at surviving capacity.
        """
        if not self.tripped:
            self._judge_window()

    def _start_recolorer(self) -> None:
        self.recolorer = DynamicRecolorer(
            self.vm,
            self.ms,
            threshold=self.recolor_threshold,
            max_per_step=self.recolor_max_per_step,
            on_degradation=self.on_degradation,
        )

    def _trip(self, rate: float) -> None:
        self.tripped = True
        if isinstance(self.vm.policy, CdpcHintPolicy):
            self.vm.policy.clear_hints()
        if self.recolorer is None:
            self._start_recolorer()
        self.on_degradation(
            "watchdog_trip",
            {"hint_honor_rate": round(rate, 4), "threshold": self.threshold,
             "hint_requests": self.vm.physmem.hint_requests},
        )

    def _reset_window(self) -> None:
        physmem = self.vm.physmem
        self._base_requests = physmem.hint_requests
        self._base_honored = physmem.hints_honored

    def _judge_window(self, boundary: bool = False) -> None:
        """Adaptive CDPC: re-plan colors transactionally instead of giving up.

        The rate is judged over the faults since the last re-plan (or
        healthy window): the cumulative rate would keep one early
        collapse visible forever and re-trigger endlessly.  A collapse
        must fall below the threshold AND below
        :data:`ADAPTIVE_COLLAPSE_RATIO` of the best healthy window.  On a
        collapse the new hints install and the hottest stale pages
        migrate (see :meth:`AdaptiveCdpc.replan`).
        """
        physmem = self.vm.physmem
        requests = physmem.hint_requests - self._base_requests
        if requests < MIN_JUDGED_REQUESTS:
            return
        rate = (physmem.hints_honored - self._base_honored) / requests
        ref = self.ref_rate
        collapsed = (
            rate < self.threshold
            and ref is not None
            and rate < ADAPTIVE_COLLAPSE_RATIO * ref
        )
        if not collapsed:
            if boundary or requests >= 64:
                # Healthy window: fold it into the reference rate and
                # start fresh.  Rolling the window intra-phase keeps the
                # judgment tracking the *recent* fault stream — without
                # it, the faults of a long healthy stretch average away
                # the first minutes of a collapse and the watchdog reacts
                # only after the damage is done.
                self.ref_rate = rate if ref is None else max(ref, rate)
                self._reset_window()
            return
        if self.adaptive is None:
            self.adaptive = AdaptiveCdpc(
                self.vm,
                self.ms,
                plan_colors=dict(self.plan_colors),
                max_migrations=self.recolor_max_per_step,
                on_degradation=self.on_degradation,
            )
        elif self.adaptive.total_replans >= ADAPTIVE_MAX_REPLANS:
            self._trip(rate)
            return
        if not any(self.adaptive.demand_by_color()):
            # Nothing unmapped: the collapse already played out and there
            # is no future demand to re-aim.  Start a fresh window rather
            # than burning a re-plan on a no-op.
            self._reset_window()
            return
        with self.tracer.span("cdpc.replan", honor_rate=round(rate, 4)) as span:
            event = self.adaptive.replan(rate)
            span.set(migrations=len(event.migrations), aborted=event.aborted)
        if isinstance(self.vm.policy, CdpcHintPolicy):
            self.vm.policy.install_hints(event.hints)
        self.apply_migrations(
            [migration.vpage for migration in event.migrations], event.cost_ns
        )
        # Fresh window: judge the re-planned hints on their own faults.
        self._reset_window()
