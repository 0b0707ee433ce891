"""The execution engine: runs a program on the simulated multiprocessor.

``run_program`` reproduces the paper's methodology end to end:

1. **Layout** — arrays are placed in virtual memory by the compiler's
   layout pass (aligned + group-padded by default; packed unaligned for
   the Figure 9 baseline).
2. **Compilation** — access summaries are extracted and, when enabled,
   the prefetch pass runs.
3. **OS setup** — a virtual-memory instance is created under the chosen
   page-mapping policy.  With CDPC enabled, hints are delivered either
   through the madvise extension (IRIX style) or by pre-touching pages in
   coloring order (Digital UNIX style).
4. **Initialization** — the master touches every array page in the
   program's init order, taking the page faults that determine bin
   hopping's coloring.  An optional jitter models the kernel fault race.
5. **Steady state** — a representative execution window runs: one warmup
   pass (statistics discarded, like the paper's cold-phase discard), then
   one measured pass with per-phase statistics weighted by occurrence
   counts.

Per-processor clocks advance by instruction work plus memory stalls;
parallel loops end at a barrier where arrival spread is charged to load
imbalance; sequential and suppressed loops charge slave idle time to the
matching Figure 2 overhead category.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.compiler.ir import LoopKind, Program
from repro.compiler.padding import layout_arrays
from repro.compiler.parallelize import schedule_loop
from repro.compiler.prefetch_pass import PrefetchPlan, insert_prefetches
from repro.compiler.summaries import extract_summary
from repro.core.runtime import CdpcRuntime
from repro.machine.config import MachineConfig
from repro.machine.fast_path import loop_runner as fast_loop_runner
from repro.machine.first_touch import FALLBACK_REASONS, first_touch_init
from repro.machine.memory_system import MemorySystem
from repro.machine.stats import MachineStats
from repro.obs import DEFAULT_DISTANCE_EDGES, Observability, ObsConfig
from repro.osmodel.dynamic import HintWatchdog
from repro.osmodel.physmem import CascadeReclaimer, HeldFrameReclaimer
from repro.osmodel.policies import (
    BinHoppingPolicy,
    CdpcHintPolicy,
    MappingPolicy,
    PageColoringPolicy,
)
from repro.osmodel.vm import VirtualMemory
from repro.robustness.degradation import (
    ColdPageReclaimer,
    DegradationLog,
    DegradationReport,
)
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.invariants import check_invariants
from repro.sim.results import (
    PhaseResult,
    RunResult,
    add_scaled_stats,
)
from repro.sim.trace_cache import (
    default_trace_cache,
    layout_fingerprint,
    plan_fingerprint,
    trace_key,
)
from repro.sim.tracegen import (
    INSTRUCTION_BASE,
    SimProfile,
    loop_traces,
    occurrence_scale,
)
from repro.sim.windows import representative_window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.diagnostics import LintReport
    from repro.checker.staticmiss import StaticMissProfile
    from repro.scenarios.churn import ChurnDriver, ChurnSchedule

_CHUNK = 16  # references simulated per processor per scheduling round


@dataclass(frozen=True)
class EngineOptions:
    """Configuration of one benchmark run."""

    policy: str = "page_coloring"  # native OS policy: page_coloring | bin_hopping
    cdpc: bool = False
    cdpc_delivery: str = "auto"  # madvise | touch | auto
    prefetch: bool = False
    aligned: bool = True
    profile: SimProfile = field(default_factory=SimProfile)
    race_seed: Optional[int] = None
    #: Window (pages) of fault-order perturbation modeling the kernel race
    #: bin hopping suffers; 0 disables.
    init_jitter: int = 4
    memory_pressure: float = 0.0
    #: Enable the Section 2.1 alternative: miss-counter-driven dynamic
    #: page recoloring, inspected at every phase boundary.
    dynamic_recolor: bool = False
    #: The paper's footnote-1 extension: prefetches fill missing TLB
    #: entries instead of being dropped (Section 6.2).
    prefetch_fills_tlb: bool = False
    recolor_threshold: int = 16
    recolor_max_per_step: int = 32
    seed: int = 0
    #: Deterministic mid-run perturbations (pressure, hint loss, forced
    #: allocation failures, race storms); None runs fault-free.
    fault_plan: Optional[FaultPlan] = None
    #: Run the page-table/physical-memory/miss-accounting invariant sweep
    #: after initialization and after every phase, raising on violation.
    check_invariants: bool = False
    #: Hint-honor-rate watchdog (:class:`repro.osmodel.dynamic.HintWatchdog`):
    #: when the rate drops below this threshold the engine abandons the
    #: static CDPC hints and falls back to the Section 2.1 dynamic
    #: recolorer.  None disables the watchdog.
    hint_watchdog: Optional[float] = None
    #: Scheduled capacity churn (co-runner arrivals/departures, host
    #: capacity revocation/restoration), executed at phase boundaries.
    #: None runs churn-free.
    churn: Optional["ChurnSchedule"] = None
    #: Adaptive CDPC: instead of abandoning the static hints when the
    #: watchdog fires, re-plan the coloring transactionally against the
    #: surviving capacity (demand-driven color remap + bounded
    #: migrations) and keep going.  The adaptive watchdog is judged over
    #: a *window* of recent faults — checked after every hinted fault,
    #: not just at phase boundaries — so a mid-phase collapse is repaired
    #: mid-phase.  Requires ``cdpc`` and ``hint_watchdog``.  The re-plan
    #: budget and the collapse test are the constants
    #: ``ADAPTIVE_MAX_REPLANS`` and ``ADAPTIVE_COLLAPSE_RATIO`` in
    #: :mod:`repro.osmodel.dynamic`.
    adaptive_cdpc: bool = False
    #: Times the measured window repeats (statistics are averaged over
    #: epochs, so results stay comparable across epoch counts).  Churn
    #: scenarios need many phase-boundary beats for their schedules to
    #: play out; a plain run keeps the default single epoch, which is
    #: bit-identical to the historical behavior.
    epochs: int = 1
    #: Fast path: a scalar hit filter retires references that provably
    #: hit the on-chip cache and TLB with no coherence side effect without
    #: the per-reference memory-system call, and the first-touch kernel
    #: runs the init pass.  Results are bit-identical to the reference
    #: path (``fast_path=False``), which is retained as the oracle for the
    #: equivalence suite.
    fast_path: bool = True
    #: Memoize generated reference streams in the process-wide trace
    #: cache, reusing them across warmup/measured passes, repeated phase
    #: occurrences and runs with identical trace inputs.
    trace_cache: bool = True
    #: Run the repro.checker static-analysis gate before simulating.  By
    #: default it is warn-only: ERROR diagnostics emit a warning and the
    #: run proceeds.
    lint: bool = True
    #: With ``strict=True`` the engine refuses to simulate a program with
    #: ERROR-severity diagnostics, raising
    #: :class:`repro.checker.LintError` instead.
    strict: bool = False
    #: Cross-validate the symbolic miss predictor against this run: build
    #: a :class:`repro.checker.StaticMissProfile` before simulating and,
    #: after the run, check every measured miss component against the
    #: profile's self-reported ``[lo, hi]`` interval, raising
    #: :class:`repro.checker.StaticCheckError` on any violation.  Only
    #: meaningful for configurations the predictor models (no prefetch,
    #: faults, churn, pressure or dynamic recoloring); the
    #: engine rejects unsupported combinations up front.
    static_check: bool = False
    #: Observability: metrics registry + span tracing + sampled hot-path
    #: profiling (:class:`repro.obs.ObsConfig`).  ``None`` (the default)
    #: is the shared no-op bundle; simulated results are bit-identical
    #: with observability on or off — instruments only read wall clocks.
    obs: Optional[ObsConfig] = None

    def resolved_delivery(self) -> str:
        if self.cdpc_delivery != "auto":
            return self.cdpc_delivery
        return "touch" if self.policy == "bin_hopping" else "madvise"


def _loop_group_pairs(program: Program) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    for phase in program.phases:
        for loop in phase.loops:
            names = loop.array_names()
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    key = frozenset((a, b))
                    if key not in seen:
                        seen.add(key)
                        pairs.append((a, b))
    return pairs


def _build_policy(config: MachineConfig, options: EngineOptions) -> MappingPolicy:
    colors = config.num_colors
    if options.policy == "page_coloring":
        native: MappingPolicy = PageColoringPolicy(colors)
    elif options.policy == "bin_hopping":
        native = BinHoppingPolicy(colors, race_seed=options.race_seed)
    else:
        raise ValueError(f"unknown native policy {options.policy!r}")
    if options.cdpc and options.resolved_delivery() == "madvise":
        return CdpcHintPolicy(colors, fallback=native)
    return native


class _Simulation:
    """Mutable state of one run."""

    def __init__(self, program: Program, config: MachineConfig, options: EngineOptions):
        self.program = program
        self.config = config
        self.options = options
        self.num_cpus = config.num_cpus
        self.obs = Observability.from_config(options.obs)
        tracer = self.obs.tracer

        groups = _loop_group_pairs(program)
        with tracer.span("compile.layout"):
            self.layout = layout_arrays(
                program.arrays,
                config.l2.line_size,
                config.l1d.size,
                aligned=options.aligned,
                groups=groups,
            )
        with tracer.span("compile.summaries"):
            self.summary = extract_summary(program, self.layout)
        self.prefetch_plan: Optional[PrefetchPlan] = None
        if options.prefetch:
            with tracer.span("compile.prefetch"):
                self.prefetch_plan = insert_prefetches(
                    program, self.layout, config, self.num_cpus
                )

        policy = _build_policy(config, options)
        frames = self._frame_budget()
        with tracer.span("os.setup", frames=frames):
            self.vm = VirtualMemory(config, policy, memory_frames=frames)
            if options.memory_pressure > 0:
                self.vm.physmem.occupy_fraction(
                    options.memory_pressure, seed=options.seed
                )

        self.degradation_log = DegradationLog()
        self.vm.physmem.event_hook = self.degradation_log.record

        self.runtime: Optional[CdpcRuntime] = None
        if options.cdpc:
            with tracer.span("color.assign"):
                self.runtime = CdpcRuntime.from_summary(
                    self.summary, config, self.num_cpus
                )

        self.lint_report: Optional["LintReport"] = None
        if options.lint:
            with tracer.span("check.lint"):
                self.lint_report = self._run_lint_gate()

        self.static_profile: Optional["StaticMissProfile"] = None
        if options.static_check:
            self._validate_static_check()
            from repro.checker.staticmiss import predict_program

            with tracer.span(
                "check.staticmiss", policy=options.policy, cdpc=options.cdpc
            ):
                self.static_profile = predict_program(
                    self.program,
                    config,
                    num_cpus=self.num_cpus,
                    policy=options.policy,
                    cdpc=options.cdpc,
                    profile=options.profile,
                    seed=options.seed,
                    init_jitter=options.init_jitter,
                    epochs=options.epochs,
                    layout=self.layout,
                    coloring=self.runtime.coloring if self.runtime else None,
                )

        self.ms = MemorySystem(
            config, prefetch_fills_tlb=options.prefetch_fills_tlb
        )
        # Graceful degradation: on allocator exhaustion, reclaim a
        # competing address space's frame or evict the coldest mapped page
        # instead of raising OutOfMemoryError.  Reclaim only engages where
        # the run would otherwise crash, so fault-free results are
        # unchanged.  An evicted mapping's translation is dropped too.
        cold = ColdPageReclaimer(
            self.vm, self.ms,
            on_evict=lambda vpage, frame: self.page_cache.pop(vpage, None),
        )
        self.vm.physmem.reclaim_policy = CascadeReclaimer([
            HeldFrameReclaimer(),
            cold,
        ])
        # Capacity revocation must not confiscate the competing address
        # space's frames — the subject's cold pages pay.
        self.vm.physmem.revocation_policy = cold
        self.clocks = [0.0] * self.num_cpus
        self.page_cache: dict[int, int] = {}  # vpage -> frame base address
        self._invariant_checks = 0
        self._build_hooks()
        self._trace_cache = default_trace_cache() if options.trace_cache else None
        # Observability wiring.  Profilers are ``None`` when disabled so
        # the hot chunk path pays one identity check; the physmem hooks
        # are installed only when metrics are on (one attribute check per
        # hinted allocation otherwise).
        self._chunk_prof = self.obs.profiler("engine.chunk")
        registry = self.obs.registry
        if registry.enabled:
            self._tc_hits: Optional[object] = registry.counter("trace_cache.hits")
            self._tc_misses: Optional[object] = registry.counter("trace_cache.misses")
            self._tracegen_ns: Optional[object] = registry.histogram(
                "tracegen.generate_ns"
            )
            physmem = self.vm.physmem
            physmem.distance_hook = registry.histogram(
                "physmem.fallback_distance", DEFAULT_DISTANCE_EDGES
            ).observe
            physmem.profiler = self.obs.profiler("physmem.alloc")
        else:
            self._tc_hits = None
            self._tc_misses = None
            self._tracegen_ns = None
        self._layout_fp = layout_fingerprint(self.layout)
        self._plan_fp = plan_fingerprint(self.prefetch_plan)
        self._rng = random.Random(options.seed)
        self.init_ns = 0.0
        # Init lines per path (first-touch kernel or fallback reason).
        self._init_lines: dict[str, int] = {}
        # Occurrence counters per phase, for miss_variation (Section 3.2's
        # wave5 anomaly: one phase whose miss rate varies per occurrence).
        self._phase_occurrence: dict[str, int] = {}

    def _build_hooks(self) -> None:
        """Build the optional run-time behaviours into ordered hook lists.

        The firing order shapes the results (bit identity with the
        oracle depends on it), so it is fixed here, once (DESIGN.md §8).
        """
        options = self.options
        physmem = self.vm.physmem
        record = self.degradation_log.record
        self._on_start: list[Callable[[], None]] = []
        self._on_init: list[Callable[[], None]] = []
        self._on_phase_begin: list[Callable[[], None]] = []
        self._on_phase_end: list[Callable[[], None]] = []

        self.injector: Optional[FaultInjector] = None
        if options.fault_plan is not None and options.fault_plan.active:
            self.injector = FaultInjector(
                options.fault_plan, physmem, self.config.num_colors,
                on_event=record,
            )
            self.injector.initial_pressure()
            self._on_phase_begin.append(self.injector.on_phase_boundary)

        self.churn: Optional["ChurnDriver"] = None
        if options.churn is not None and options.churn.active:
            from repro.scenarios.churn import ChurnDriver

            self.churn = ChurnDriver(options.churn, physmem, on_event=record)
            # Beat 0 fires before initialization — the analogue of the
            # fault injector's initial pressure — so a scenario can
            # constrain the capacity the program initializes under, not
            # just perturb the steady state.
            self._on_start.append(self._churn_beat)
            self._on_phase_begin.append(self._churn_beat)

        threshold = options.hint_watchdog if options.cdpc else None
        adaptive = options.adaptive_cdpc and threshold is not None
        self.watchdog = HintWatchdog(
            self.vm,
            self.ms,
            apply_migrations=self._apply_migrations,
            on_degradation=record,
            threshold=threshold,
            plan_colors=self.runtime.hints if adaptive else None,
            dynamic_recolor=options.dynamic_recolor,
            recolor_threshold=options.recolor_threshold,
            recolor_max_per_step=options.recolor_max_per_step,
            tracer=self.obs.tracer,
        )
        if options.dynamic_recolor or threshold is not None:
            self._on_phase_end.append(self.watchdog.at_boundary)
        # Per-fault adaptive judgment for the chunk hot loop (None keeps
        # the fault path free of the check entirely).
        self._fault_watch = self.watchdog.on_fault if adaptive else None

        if options.check_invariants:
            self._on_init.append(self._run_invariant_sweep)
            self._on_phase_end.append(self._run_invariant_sweep)

    # ------------------------------------------------------------------

    def _run_lint_gate(self) -> "LintReport":
        """Pre-simulation static gate, reusing the artifacts just built.

        Warn-only by default: ERROR diagnostics emit a warning and the
        simulation proceeds; ``strict=True`` refuses to simulate the
        program.  The already-computed layout, summary and CDPC coloring
        are handed to the checker, so the gate adds no duplicate
        compilation work.
        """
        from repro.checker.lint import lint_context, lint_context_report

        ctx = lint_context(
            self.program,
            self.config,
            num_cpus=self.num_cpus,
            aligned=self.options.aligned,
            cdpc=self.options.cdpc,
            layout=self.layout,
            summary=self.summary,
            coloring=self.runtime.coloring if self.runtime else None,
            static=self.options.static_check,
        )
        report = lint_context_report(ctx)
        if self.options.strict:
            report.raise_if_errors()
        elif report.errors():
            import warnings

            first = report.errors()[0]
            warnings.warn(
                f"static analysis found {len(report.errors())} ERROR "
                f"diagnostic(s) in '{self.program.name}'; simulating anyway "
                f"(strict=False). First: {first.rule_id} {first.span}: "
                f"{first.message}",
                stacklevel=4,
            )
        return report

    def _validate_static_check(self) -> None:
        """Reject option combinations the symbolic predictor cannot model.

        The predictor mirrors the deterministic trace/placement pipeline
        only; anything that perturbs placement or accounting at runtime
        (faults, pressure, churn, recoloring, prefetch) would
        make the cross-validation gate meaningless, so it is an error to
        combine them rather than a silently vacuous check.
        """
        options = self.options
        unsupported = [
            name
            for name, active in (
                ("prefetch", options.prefetch),
                ("dynamic_recolor", options.dynamic_recolor),
                ("adaptive_cdpc", options.adaptive_cdpc),
                ("churn", options.churn is not None),
                ("fault_plan", options.fault_plan is not None),
                ("memory_pressure", options.memory_pressure > 0),
                ("hint_watchdog", options.hint_watchdog is not None),
                ("race_seed", options.race_seed is not None),
            )
            if active
        ]
        if unsupported:
            raise ValueError(
                "static_check does not model these options: "
                + ", ".join(unsupported)
            )
        if options.policy not in ("page_coloring", "bin_hopping"):
            raise ValueError(
                f"static_check does not model policy {options.policy!r}"
            )
        if options.cdpc:
            expected = (
                "touch" if options.policy == "bin_hopping" else "madvise"
            )
            if options.resolved_delivery() != expected:
                raise ValueError(
                    "static_check models the native CDPC delivery only "
                    f"({expected!r} on {options.policy!r}; got "
                    f"{options.resolved_delivery()!r})"
                )

    def _frame_budget(self) -> int:
        psz = self.config.page_size
        data_pages = -(-self.layout.total_bytes // psz)
        instr_bytes = 0
        for phase in self.program.phases:
            for loop in phase.loops:
                for access in loop.accesses:
                    footprint = getattr(access, "footprint_bytes", None)
                    if footprint:
                        instr_bytes = max(instr_bytes, footprint)
        pages = data_pages + -(-instr_bytes // psz)
        colors = self.config.num_colors
        # Three times the footprint, rounded to whole color cycles: enough
        # that the machine never OOMs, while memory_pressure can still make
        # individual colors scarce.
        budget = max(colors * 4, -(-pages * 3 // colors) * colors)
        return budget

    # ------------------------------------------------------------------
    # Robustness hooks

    #: Honor-rate histogram buckets sampled once per churn beat.
    _HONOR_RATE_EDGES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def _churn_beat(self) -> None:
        """Advance the churn schedule one beat and sample churn telemetry.

        Capacity revocation may evict mapped pages through the reclaim
        cascade; the cold-page reclaimer's ``on_evict`` hook already
        drops the engine's stale translations, so nothing else here needs
        to touch the page cache.
        """
        self.churn.on_beat()
        registry = self.obs.registry
        if registry.enabled:
            physmem = self.vm.physmem
            registry.gauge("churn.capacity_frames").set(
                float(physmem.capacity_frames())
            )
            registry.gauge("churn.free_frames").set(float(physmem.free_frames()))
            if physmem.hint_requests:
                registry.histogram(
                    "churn.honor_rate", self._HONOR_RATE_EDGES
                ).observe(physmem.hint_honor_rate)

    def _run_invariant_sweep(self) -> None:
        report = check_invariants(self.vm, self.ms)
        self._invariant_checks += 1
        report.raise_if_failed()

    def _apply_migrations(self, vpages: list[int], cost_ns: float) -> None:
        """Drop migrated pages' translations and charge the migration cost.

        Migration cost (page copies plus a TLB shootdown on every
        processor) is charged as kernel time to all processors — the
        inter-processor interference the paper predicts for dynamic
        recoloring on multiprocessors.
        """
        for vpage in vpages:
            self.page_cache.pop(vpage, None)
            self.ms.shootdown(vpage)
        if cost_ns:
            stats = self.ms.stats.cpus
            for cpu in range(self.num_cpus):
                stats[cpu].overhead_ns["kernel"] += cost_ns
            self._sync_clocks(max(self.clocks) + cost_ns)

    # ------------------------------------------------------------------
    # Setup and initialization

    def deliver_cdpc(self) -> None:
        assert self.runtime is not None
        delivery = self.options.resolved_delivery()
        if delivery == "madvise":
            hints = self.runtime.hints
            if self.injector is not None:
                hints = self.injector.filter_hints(hints)
            self.vm.madvise_colors(hints)
        elif delivery == "touch":
            # Serialized user-level faulting, charged to the master.
            order = self.runtime.touch_order()
            if self.injector is not None:
                order = self.injector.filter_touch_order(order)
            t = self.clocks[0]
            stats = self.ms.stats.cpus[0]
            for vpage in order:
                if self.vm.ensure_mapped(vpage, cpu=0):
                    t += self.vm.PAGE_FAULT_NS
                    stats.overhead_ns["kernel"] += self.vm.PAGE_FAULT_NS
            self._sync_clocks(t)
        else:
            raise ValueError(f"unknown CDPC delivery {delivery!r}")

    def init_pages_order(self) -> list[int]:
        """Page fault order of the program's initialization loops."""
        psz = self.config.page_size
        order: list[int] = []
        for group in self.program.effective_init_groups():
            page_lists = [list(self.layout.pages(name, psz)) for name in group]
            longest = max(len(pages) for pages in page_lists)
            for index in range(longest):
                for pages in page_lists:
                    if index < len(pages):
                        order.append(pages[index])
        if self.options.init_jitter > 1 and isinstance(
            self._native_policy(), BinHoppingPolicy
        ):
            order = self._jitter(order, self.options.init_jitter)
        return order

    def _native_policy(self) -> MappingPolicy:
        policy = self.vm.policy
        if isinstance(policy, CdpcHintPolicy):
            return policy.fallback
        return policy

    def _jitter(self, order: list[int], window: int) -> list[int]:
        result = list(order)
        for start in range(0, len(result), window):
            chunk = result[start : start + window]
            self._rng.shuffle(chunk)
            result[start : start + window] = chunk
        return result

    def run_init(self) -> None:
        """Master initializes every array page (the paper's init section)."""
        psz = self.config.page_size
        t = self.clocks[0]
        stats = self.ms.stats.cpus[0]
        line = self.config.l2.line_size
        order = self.init_pages_order()
        if self.options.fast_path:
            # The first-touch kernel retires fresh pages in bulk and sends
            # the rest through the per-reference fast path; either way a
            # page faults at its first touch, exactly when
            # ``ensure_mapped`` below would.  As below, only page-fault
            # time is kernel overhead (TLB service only advances the clock).
            t, fault_kernel, self._init_lines = first_touch_init(
                self.ms, self.vm, self.page_cache, order, t, self.config.cycle_ns
            )
            stats.overhead_ns["kernel"] += fault_kernel
        else:
            for vpage in order:
                if self.vm.ensure_mapped(vpage, cpu=0):
                    t += self.vm.PAGE_FAULT_NS
                    stats.overhead_ns["kernel"] += self.vm.PAGE_FAULT_NS
                base = self.vm.page_table.frame_of(vpage) * psz
                self.page_cache[vpage] = base
                # Touch each line of the page once (initialization writes).
                for offset in range(0, psz, line):
                    result = self.ms.access(
                        0, t, vpage * psz + offset, base + offset, is_write=True
                    )
                    t += self.config.cycle_ns + result.stall_ns + result.kernel_ns
        self._sync_clocks(t)
        self.init_ns = t

    def _sync_clocks(self, value: float) -> None:
        for cpu in range(self.num_cpus):
            self.clocks[cpu] = value

    # ------------------------------------------------------------------
    # Steady state

    def run_phase(self, phase, record: bool) -> Optional[PhaseResult]:
        for hook in self._on_phase_begin:
            hook()
        bus = self.ms.bus
        if record:
            self.ms.stats = MachineStats.for_cpus(self.num_cpus)
            bus_before = dict(bus.busy_ns)
        t0 = self.clocks[0]
        occurrence = self._phase_occurrence.get(phase.name, 0)
        self._phase_occurrence[phase.name] = occurrence + 1
        scale = occurrence_scale(phase.miss_variation, occurrence, phase.name)
        for loop in phase.loops:
            self.run_loop(loop, fraction_scale=scale)
        self._run_sequential_tail(self.clocks[0] - t0)
        for hook in self._on_phase_end:
            hook()
        if not record:
            return None
        bus_delta = {
            kind.value: bus.busy_ns[kind] - bus_before[kind] for kind in bus.busy_ns
        }
        return PhaseResult(
            name=phase.name,
            occurrences=phase.occurrences,
            stats=self.ms.stats,
            wall_ns=self.clocks[0] - t0,
            bus_busy_ns=bus_delta,
        )

    def _run_sequential_tail(self, phase_elapsed_ns: float) -> None:
        """Unparallelized code at the end of each phase (sequential time).

        The master executes ``sequential_fraction`` of the phase's wall
        time as extra serial work while the slaves spin.
        """
        fraction = self.program.sequential_fraction
        if fraction <= 0 or phase_elapsed_ns <= 0:
            return
        extra = fraction * phase_elapsed_ns
        master = self.ms.stats.cpus[0]
        master.busy_ns += extra
        master.instructions += int(extra / self.config.cycle_ns)
        self.clocks[0] += extra
        for cpu in range(1, self.num_cpus):
            self.ms.stats.cpus[cpu].overhead_ns["sequential"] += extra
        self._sync_clocks(self.clocks[0])

    def run_loop(self, loop, fraction_scale: float = 1.0) -> None:
        schedule = schedule_loop(loop, self.num_cpus)
        traces = self._loop_traces(loop, schedule, fraction_scale)
        start = self.clocks[0]
        if loop.kind is LoopKind.PARALLEL:
            self._simulate(loop, traces, range(self.num_cpus), _CHUNK)
            self._barrier()
        else:
            # The master alone, its whole stream as one chunk.
            self._simulate(loop, traces, [0], len(traces[0]))
            elapsed = self.clocks[0] - start
            category = (
                "suppressed" if loop.kind is LoopKind.SUPPRESSED else "sequential"
            )
            for cpu in range(1, self.num_cpus):
                self.ms.stats.cpus[cpu].overhead_ns[category] += elapsed
            self._sync_clocks(self.clocks[0])

    def _loop_traces(self, loop, schedule, fraction_scale: float):
        """Generate (or fetch memoized) per-CPU traces for one loop.

        The cache key fingerprints every input that shapes the streams —
        loop + schedule, layout, machine geometry, simulation profile,
        prefetch plan and the occurrence-dependent fraction scale — so a
        hit is guaranteed to return bit-identical traces.
        """

        def generate():
            started = time.perf_counter()
            traces = loop_traces(
                loop,
                schedule,
                self.layout,
                self.config,
                self.options.profile,
                self.prefetch_plan,
                fraction_scale=fraction_scale,
            )
            if self._tracegen_ns is not None:
                self._tracegen_ns.observe((time.perf_counter() - started) * 1e9)
            return traces

        if self._trace_cache is None:
            return generate()
        key = trace_key(
            schedule,
            self._layout_fp,
            self.config,
            self.options.profile,
            self._plan_fp,
            fraction_scale,
        )
        if self._tc_hits is not None:
            (self._tc_hits if key in self._trace_cache else self._tc_misses).inc()
        return self._trace_cache.get_or_generate(key, generate)

    def _barrier(self) -> None:
        clocks = self.clocks
        tmax = max(clocks)
        stats = self.ms.stats.cpus
        for cpu in range(self.num_cpus):
            stats[cpu].overhead_ns["load_imbalance"] += tmax - clocks[cpu]
        if self.num_cpus > 1:
            cost = 500.0 + 300.0 * math.log2(self.num_cpus)
            for cpu in range(self.num_cpus):
                stats[cpu].overhead_ns["synchronization"] += cost
            tmax += cost
        self._sync_clocks(tmax)

    def _simulate(self, loop, traces, cpus, quantum: int) -> None:
        """Run the given processors' streams interleaved in clock order.

        Always advancing the processor with the smallest clock keeps bus
        requests arriving in (approximate) time order, which is what makes
        the contention model behave like a closed queueing system: each
        processor has at most one outstanding miss, so queueing delays
        bound themselves at saturation instead of growing with burst size.
        Each turn simulates up to ``quantum`` references.
        """
        clocks = self.clocks
        psz = self.config.page_size
        line = self.config.l2.line_size
        active = [cpu for cpu in cpus if len(traces[cpu])]
        streams = {cpu: traces[cpu].ref_stream(psz, line) for cpu in active}
        positions = dict.fromkeys(active, 0)
        fault_concurrency = len(active)
        if self.injector is not None:
            fault_concurrency = self.injector.fault_concurrency(fault_concurrency)
        runners = None
        if self.options.fast_path:
            runners = {}
            for cpu in active:
                runners[cpu] = fast_loop_runner(
                    self.ms, self.vm, self.page_cache, cpu, streams[cpu],
                    fault_watch=self._fault_watch,
                )
                next(runners[cpu])
        while active:
            cpu = min(active, key=clocks.__getitem__)
            end = min(positions[cpu] + quantum, len(traces[cpu]))
            if runners is not None:
                self._run_chunk_fast(cpu, runners[cpu], loop, traces[cpu],
                                     positions[cpu], end, fault_concurrency)
            else:
                self._run_chunk(cpu, loop, traces[cpu], streams[cpu],
                                positions[cpu], end, fault_concurrency)
            positions[cpu] = end
            if end >= len(traces[cpu]):
                active.remove(cpu)
        if runners is not None:
            for runner in runners.values():
                runner.close()

    def _run_chunk_fast(self, cpu, runner, loop, trace, start, end,
                        fault_concurrency) -> None:
        """Dispatch one chunk to the flattened fast path (repro.machine).

        Performs the same post-chunk accounting as the oracle
        :meth:`_run_chunk`; the per-reference simulation itself runs in
        the primed :func:`repro.machine.fast_path.loop_runner` generator,
        which is bit-identical to the oracle by construction (and by the
        equivalence suite).
        """
        busy_per_ref = (
            self.config.cycle_ns * loop.instructions_per_word * trace.words_per_ref
        )
        prof = self._chunk_prof
        started = prof.tick() if prof is not None else None
        t, kernel_total, _faults = runner.send(
            (start, end, self.clocks[cpu], busy_per_ref, fault_concurrency)
        )
        if started is not None:
            prof.observe(started)
        stats = self.ms.stats.cpus[cpu]
        count = end - start
        stats.busy_ns += busy_per_ref * count
        stats.instructions += int(
            loop.instructions_per_word * trace.words_per_ref * count
        )
        stats.overhead_ns["kernel"] += kernel_total
        self.clocks[cpu] = t

    def _run_chunk(self, cpu, loop, trace, stream, start, end,
                   fault_concurrency) -> None:
        prof = self._chunk_prof
        prof_started = prof.tick() if prof is not None else None
        ms = self.ms
        vm = self.vm
        page_table = vm.page_table
        page_cache = self.page_cache
        psz = self.config.page_size
        fault_ns = vm.PAGE_FAULT_NS
        busy_per_ref = (
            self.config.cycle_ns * loop.instructions_per_word * trace.words_per_ref
        )
        t = self.clocks[cpu]
        stats = ms.stats.cpus[cpu]
        kernel_total = 0.0

        # Shared per-trace columns; indexed by absolute position, never
        # sliced per chunk (the lists are reused across chunks and runs).
        addrs = stream.addrs
        flags = stream.flags
        prefetches = stream.prefetch
        vpages = stream.vpages
        offsets = stream.offsets
        access = ms.access
        fault_watch = self._fault_watch

        index = start
        while index < end:
            vpage = vpages[index]
            base = page_cache.get(vpage)
            if base is None:
                if not page_table.is_mapped(vpage):
                    vm.fault(vpage, cpu, concurrent_faults=fault_concurrency)
                    t += fault_ns
                    kernel_total += fault_ns
                    if fault_watch is not None:
                        fault_watch()
                base = page_table.frame_of(vpage) * psz
                page_cache[vpage] = base
            if prefetches is not None:
                target = prefetches[index]
                if target:
                    tlb_strict = bool(target & 1)
                    target &= ~1
                    tpage = target // psz
                    tbase = page_cache.get(tpage)
                    if tbase is None:
                        # Target page not yet faulted: the prefetch is
                        # dropped exactly as a TLB-missing prefetch is.
                        stats.prefetches_issued += 1
                        stats.prefetches_dropped_tlb += 1
                    else:
                        t += ms.prefetch(
                            cpu, t, target, tbase + target % psz, tlb_strict
                        )
            flag = flags[index]
            result = access(cpu, t, addrs[index], base + offsets[index],
                            flag & 1, flag & 2)
            t += busy_per_ref + result[0] + result[1]
            kernel_total += result[1]
            index += 1

        count = end - start
        stats.busy_ns += busy_per_ref * count
        stats.instructions += int(
            loop.instructions_per_word * trace.words_per_ref * count
        )
        stats.overhead_ns["kernel"] += kernel_total
        self.clocks[cpu] = t
        if prof_started is not None:
            prof.observe(prof_started)

    # ------------------------------------------------------------------

    def _prologue(self) -> None:
        """Everything before the steady state: hint delivery and init."""
        tracer = self.obs.tracer
        for hook in self._on_start:
            hook()
        if self.options.cdpc:
            with tracer.span("cdpc.deliver", mode=self.options.resolved_delivery()):
                self.deliver_cdpc()
        with tracer.span("sim.init"):
            self.run_init()
        for hook in self._on_init:
            hook()

    def run(self) -> RunResult:
        tracer = self.obs.tracer
        self._prologue()
        window = representative_window(self.program)
        with tracer.span("sim.warmup", phases=len(window.warmup)):
            for phase in window.warmup:
                self.run_phase(phase, record=False)
        total = MachineStats.for_cpus(self.num_cpus)
        wall = 0.0
        bus_busy: dict[str, float] = {}
        phase_results: list[PhaseResult] = []
        epochs = max(1, self.options.epochs)
        for epoch in range(epochs):
            for phase, weight in zip(window.measured, window.weights):
                scaled_weight = weight / epochs
                with tracer.span(
                    "sim.loop", phase=phase.name, weight=weight, epoch=epoch
                ) as span:
                    result = self.run_phase(phase, record=True)
                    assert result is not None
                    span.set(
                        wall_ns=result.wall_ns,
                        l2_misses=result.stats.total_l2_misses(),
                    )
                phase_results.append(result)
                add_scaled_stats(total, result.stats, scaled_weight)
                wall += result.wall_ns * scaled_weight
                for key, value in result.bus_busy_ns.items():
                    bus_busy[key] = bus_busy.get(key, 0.0) + value * scaled_weight
        self._emit_run_metrics(total)
        if self.static_profile is not None:
            registry = self.obs.registry
            if registry.enabled:
                registry.histogram("staticmiss.analyze_ns").observe(
                    self.static_profile.analyze_ns
                )
                registry.gauge("staticmiss.predicted_misses").set(
                    self.static_profile.predicted_total()
                )
        result = RunResult(
            workload=self.program.name,
            policy=self.options.policy,
            num_cpus=self.num_cpus,
            config=self.config,
            cdpc=self.options.cdpc,
            prefetch=self.options.prefetch,
            aligned=self.options.aligned,
            stats=total,
            wall_ns=wall,
            init_ns=self.init_ns,
            bus_busy_ns=bus_busy,
            phases=phase_results,
            hint_honor_rate=self.vm.physmem.hint_honor_rate,
            array_misses=self._attribute_misses(),
            degradation=DegradationReport.collect(
                self.degradation_log,
                self.vm.physmem,
                aborted_recolor_steps=self.watchdog.aborted_recolor_steps,
                invariant_checks=self._invariant_checks,
                injector=self.injector,
                churn=self.churn,
                adaptive=self.watchdog.adaptive,
            ),
            obs=self.obs.report(),
        )
        if self.static_profile is not None:
            from repro.checker.staticmiss import StaticCheckError

            result.static_check = self.static_profile
            violations = self.static_profile.check(result)
            if violations:
                raise StaticCheckError(self.static_profile, violations)
        return result

    def _emit_run_metrics(self, total: MachineStats) -> None:
        """Publish end-of-run counters into the run's metrics registry.

        Emitting from the already-maintained simulator counters (instead
        of instrumenting every access) keeps the hot paths untouched; the
        registry is the read side, not the accounting of record.
        """
        registry = self.obs.registry
        if not registry.enabled:
            return
        total.emit_metrics(registry)
        self.ms.emit_metrics(registry)
        physmem = self.vm.physmem
        registry.counter("physmem.allocations").inc(physmem.allocations)
        registry.counter("physmem.hint_requests").inc(physmem.hint_requests)
        registry.counter("physmem.hints_honored").inc(physmem.hints_honored)
        registry.counter("physmem.reclaims").inc(physmem.reclaims)
        registry.counter("physmem.forced_failures").inc(physmem.forced_failures)
        registry.gauge("physmem.hint_honor_rate").set(physmem.hint_honor_rate)
        registry.gauge("engine.watchdog_tripped").set(float(self.watchdog.tripped))
        registry.counter("engine.init_bulk_lines").inc(
            self._init_lines.get("bulk", 0)
        )
        for reason in FALLBACK_REASONS:
            registry.counter(f"engine.init_scalar_lines.{reason}").inc(
                self._init_lines.get(reason, 0)
            )
        registry.counter("physmem.frames_revoked").inc(physmem.frames_revoked_total)
        registry.counter("physmem.frames_restored").inc(
            physmem.frames_restored_total
        )
        adaptive = self.watchdog.adaptive
        if adaptive is not None:
            registry.counter("engine.adaptive_replans").inc(adaptive.total_replans)
            registry.counter("engine.replan_migrations").inc(
                adaptive.total_migrations
            )

    def _attribute_misses(self) -> dict[str, int]:
        """Map per-frame miss counts back to the arrays that own them."""
        reverse = {
            frame: vpage for vpage, frame in self.vm.page_table.mappings()
        }
        psz = self.config.page_size
        attribution: dict[str, int] = {}
        for frame, count in self.ms.frame_misses.items():
            vpage = reverse.get(frame)
            if vpage is None:
                label = "other"
            else:
                vaddr = vpage * psz
                if vaddr >= INSTRUCTION_BASE:
                    label = "instructions"
                else:
                    label = self.layout.array_at(vaddr) or "other"
            attribution[label] = attribution.get(label, 0) + count
        return attribution


def run_program(
    program: Program, config: MachineConfig, options: Optional[EngineOptions] = None
) -> RunResult:
    """Simulate one program on one machine configuration.

    Warns when the program looks unscaled for a scaled machine (data set
    hundreds of times the cache on a ``scaled()`` config) — the usual
    symptom of passing full-size arrays to a 1/16 machine.  Scale the
    program with :meth:`Program.scaled` to match ``config.scale_factor``.
    """
    if config.scale_factor > 1 and program.data_set_bytes > 128 * config.l2.size:
        import warnings

        warnings.warn(
            f"program '{program.name}' has a {program.data_set_bytes >> 20}MB "
            f"data set on a machine scaled 1/{config.scale_factor} "
            f"({config.l2.size >> 10}KB cache); did you forget "
            f"program.scaled({config.scale_factor})?",
            stacklevel=2,
        )
    sim = _Simulation(program, config, options or EngineOptions())
    return sim.run()


def measure_occurrence_variation(
    program: Program,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    repeats: int = 4,
) -> dict[str, dict[str, tuple[float, float, float]]]:
    """Re-measure each phase ``repeats`` times in the steady state.

    Reproduces the validation behind the representative-execution-window
    methodology (Section 3.2): the paper found that per-occurrence
    instruction counts and miss rates vary by less than 1% of the mean for
    every phase but one.  Returns, per phase, the (mean, std, cv) of the
    instruction count and the external-cache miss count across
    occurrences.
    """
    from repro.sim.windows import occurrence_variation

    sim = _Simulation(program, config, options or EngineOptions())
    sim._prologue()
    for phase in program.phases:  # warmup, as in a normal run
        sim.run_phase(phase, record=False)
    report: dict[str, dict[str, tuple[float, float, float]]] = {}
    for phase in program.phases:
        instructions: list[float] = []
        misses: list[float] = []
        for _ in range(repeats):
            result = sim.run_phase(phase, record=True)
            assert result is not None
            instructions.append(float(result.stats.total_instructions()))
            misses.append(float(result.stats.total_l2_misses()))
        report[phase.name] = {
            "instructions": occurrence_variation(instructions),
            "misses": occurrence_variation(misses),
        }
    return report


def run_benchmark(
    name: str,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    **option_overrides,
) -> RunResult:
    """Build a SPEC95fp workload at the machine's scale factor and run it."""
    from repro.workloads.specfp import get_workload

    workload = get_workload(name, scale=config.scale_factor)
    if options is None:
        options = EngineOptions(**option_overrides)
    elif option_overrides:
        options = replace(options, **option_overrides)
    return run_program(workload.program, config, options)
