"""Run results: the measured quantities behind every figure and table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.machine.config import MachineConfig
from repro.machine.stats import OVERHEAD_CATEGORIES, CpuStats, MachineStats, MissKind
from repro.robustness.degradation import DegradationReport


def add_scaled_cpu_stats(dst: CpuStats, src: CpuStats, weight: float) -> None:
    """Accumulate ``weight`` copies of ``src`` into ``dst``."""
    dst.instructions += int(src.instructions * weight)
    dst.l1d_hits += int(src.l1d_hits * weight)
    dst.l1d_misses += int(src.l1d_misses * weight)
    dst.l1i_hits += int(src.l1i_hits * weight)
    dst.l1i_misses += int(src.l1i_misses * weight)
    dst.l2_hits += int(src.l2_hits * weight)
    dst.tlb_misses += int(src.tlb_misses * weight)
    dst.prefetches_issued += int(src.prefetches_issued * weight)
    dst.prefetches_dropped_tlb += int(src.prefetches_dropped_tlb * weight)
    dst.prefetches_useful += int(src.prefetches_useful * weight)
    dst.prefetch_stalls += int(src.prefetch_stalls * weight)
    dst.prefetch_stall_ns += src.prefetch_stall_ns * weight
    dst.l1_stall_ns += src.l1_stall_ns * weight
    dst.busy_ns += src.busy_ns * weight
    for kind in MissKind:
        dst.l2_misses[kind] += int(src.l2_misses[kind] * weight)
        dst.l2_stall_ns[kind] += src.l2_stall_ns[kind] * weight
    for name in OVERHEAD_CATEGORIES:
        dst.overhead_ns[name] += src.overhead_ns[name] * weight


def add_scaled_stats(dst: MachineStats, src: MachineStats, weight: float) -> None:
    for dst_cpu, src_cpu in zip(dst.cpus, src.cpus):
        add_scaled_cpu_stats(dst_cpu, src_cpu, weight)


@dataclass
class PhaseResult:
    """Raw (unweighted) measurements for one phase execution."""

    name: str
    occurrences: int
    stats: MachineStats
    wall_ns: float
    bus_busy_ns: dict[str, float]


@dataclass
class RunResult:
    """Weighted steady-state measurements for one benchmark run."""

    workload: str
    policy: str
    num_cpus: int
    config: MachineConfig
    cdpc: bool = False
    prefetch: bool = False
    aligned: bool = True
    stats: MachineStats = field(default_factory=lambda: MachineStats.for_cpus(1))
    wall_ns: float = 0.0
    init_ns: float = 0.0
    bus_busy_ns: dict[str, float] = field(default_factory=dict)
    phases: list[PhaseResult] = field(default_factory=list)
    hint_honor_rate: float = 1.0
    #: External-cache misses attributed to each array (plus "instructions"
    #: and "other"), unweighted and including warmup — a diagnostic for
    #: which data structures drive the misses.
    array_misses: dict[str, int] = field(default_factory=dict)
    #: Graceful-degradation accounting: reclaims, watchdog trips, aborted
    #: recolor steps, fallback-distance histogram (None when the run was
    #: produced without the engine, e.g. hand-built in tests).
    degradation: Optional[DegradationReport] = None
    #: Observability report (``{"metrics": <registry snapshot>,
    #: "trace_events": [...]}``) when the run was executed with
    #: ``EngineOptions.obs`` enabled, else ``None``.  Deliberately
    #: excluded from :meth:`to_dict`: it carries wall-clock timings, and
    #: ``to_dict`` is the bit-identity contract between the fast and
    #: reference engine paths.
    obs: Optional[dict] = None
    #: The symbolic :class:`repro.checker.StaticMissProfile` this run was
    #: cross-validated against when ``EngineOptions.static_check`` was on;
    #: ``None`` otherwise.  Excluded from :meth:`to_dict` (it carries
    #: analyzer wall-clock time, and ``to_dict`` is the bit-identity
    #: contract between the fast and reference engine paths).
    static_check: Optional[object] = None

    # ------------------------------------------------------------------
    # Figure 2 quantities

    @property
    def combined_execution_ns(self) -> float:
        """Sum of per-processor execution time (Figure 2, first graph)."""
        return self.stats.combined_execution_ns()

    def overhead_breakdown_ns(self) -> dict[str, float]:
        """Combined overhead by category (Figure 2, second graph)."""
        return self.stats.combined_overhead_ns()

    def mcpi(self) -> float:
        """Average memory cycles per instruction (Figure 2, third graph)."""
        return self.stats.mean_mcpi()

    def mcpi_breakdown(self) -> dict[str, float]:
        """MCPI by stall source, averaged over active processors."""
        parts: dict[str, float] = {}
        active = [cpu for cpu in self.stats.cpus if cpu.instructions]
        if not active:
            return parts
        for cpu in active:
            for key, value in cpu.mcpi_breakdown().items():
                parts[key] = parts.get(key, 0.0) + value / len(active)
        return parts

    def bus_utilization(self) -> float:
        """Fraction of the run the bus was busy (Figure 2, fourth graph)."""
        if self.wall_ns <= 0:
            return 0.0
        return min(1.0, sum(self.bus_busy_ns.values()) / self.wall_ns)

    def bus_utilization_breakdown(self) -> dict[str, float]:
        if self.wall_ns <= 0:
            return {k: 0.0 for k in self.bus_busy_ns}
        return {k: v / self.wall_ns for k, v in self.bus_busy_ns.items()}

    # ------------------------------------------------------------------
    # Miss accounting

    def misses(self, kind: MissKind) -> int:
        return self.stats.total_misses(kind)

    def replacement_misses(self) -> int:
        return self.misses(MissKind.CAPACITY) + self.misses(MissKind.CONFLICT)

    def communication_misses(self) -> int:
        return self.misses(MissKind.TRUE_SHARING) + self.misses(MissKind.FALSE_SHARING)

    def miss_breakdown(self) -> dict[str, int]:
        return self.stats.miss_breakdown()

    # ------------------------------------------------------------------
    # Timing

    def measured_time_s(self, steady_state_repeats: float = 1.0) -> float:
        """Projected full-run time in seconds on the modeled machine.

        The steady-state window time is multiplied by the workload's
        repeat factor and by the geometric scale factor (a 1/16-scale data
        set takes ~1/16 the sweep time of the full one).
        """
        return (
            self.wall_ns * steady_state_repeats * self.config.scale_factor / 1e9
        )

    def speedup_over(self, baseline: "RunResult") -> float:
        """Wall-clock speedup of this run relative to ``baseline``."""
        if self.wall_ns <= 0:
            raise ValueError("run has no measured time")
        return baseline.wall_ns / self.wall_ns

    def to_dict(self) -> dict:
        """Serializable summary (JSON-friendly) of the run.

        Used by the CLI's ``--json`` flag and by downstream tooling that
        wants to archive experiment results without pickling simulator
        objects.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "num_cpus": self.num_cpus,
            "cdpc": self.cdpc,
            "prefetch": self.prefetch,
            "aligned": self.aligned,
            "scale_factor": self.config.scale_factor,
            "wall_ns": self.wall_ns,
            "init_ns": self.init_ns,
            "combined_execution_ns": self.combined_execution_ns,
            "mcpi": self.mcpi(),
            "mcpi_breakdown": self.mcpi_breakdown(),
            "misses": self.miss_breakdown(),
            "replacement_misses": self.replacement_misses(),
            "communication_misses": self.communication_misses(),
            "overheads_ns": self.overhead_breakdown_ns(),
            "bus_utilization": self.bus_utilization(),
            "bus_utilization_breakdown": self.bus_utilization_breakdown(),
            "hint_honor_rate": self.hint_honor_rate,
            "array_misses": dict(self.array_misses),
            "degradation": (
                self.degradation.to_dict() if self.degradation is not None else None
            ),
            "phases": [
                {"name": p.name, "occurrences": p.occurrences,
                 "wall_ns": p.wall_ns}
                for p in self.phases
            ],
            # Retired sampling key: perfbench/golden.json hashes this dict.
            "sampling": None,
        }

    def label(self) -> str:
        tags = [self.policy]
        if self.cdpc:
            tags.append("cdpc")
        if self.prefetch:
            tags.append("pf")
        if not self.aligned:
            tags.append("unaligned")
        return f"{self.workload}@{self.num_cpus}cpu[{'+'.join(tags)}]"
