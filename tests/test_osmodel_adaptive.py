"""Tests for the adaptive CDPC re-planner and transactional migration.

Covers the capacity-churn machinery the dynamic-recoloring tests do not:
demand-driven plan remapping, grantable-capacity accounting, the
transactional abort paths when capacity is revoked in the migration copy
window (the worst possible moment), and the hint watchdog's state machine
driven without the engine.
"""

import pytest

from repro.machine.config import CacheConfig, MachineConfig
from repro.machine.memory_system import MemorySystem
from repro.osmodel.dynamic import (
    ADAPTIVE_MAX_REPLANS,
    AdaptiveCdpc,
    DynamicRecolorer,
    HintWatchdog,
    MigrationAborted,
    migrate_page,
    remap_plan_colors,
)
from repro.osmodel.physmem import OutOfMemoryError
from repro.osmodel.policies import CdpcHintPolicy, PageColoringPolicy
from repro.osmodel.vm import VirtualMemory
from repro.robustness.invariants import check_invariants


def machine(num_cpus=2) -> MachineConfig:
    return MachineConfig(
        num_cpus=num_cpus,
        page_size=256,
        l1d=CacheConfig(512, 64, 2),
        l1i=CacheConfig(512, 64, 2),
        l2=CacheConfig(4096, 64, 1),  # 16 colors
    )


def build():
    config = machine()
    vm = VirtualMemory(config, PageColoringPolicy(config.num_colors))
    ms = MemorySystem(config)
    return config, vm, ms


class TestRemapPlanColors:
    def test_even_capacity_keeps_identity(self):
        # Four classes, one page each, four frames free on every color:
        # the greedy pack has no reason to move anything.
        plan = {0: 0, 1: 1, 2: 2, 3: 3}
        remapped = remap_plan_colors(plan, [4, 4, 4, 4])
        assert set(remapped.values()) == {0, 1, 2, 3}

    def test_folds_onto_surviving_capacity(self):
        # Colors 0 and 1 are capacity-dead; every demanding class must
        # land on the surviving band even if that means sharing colors.
        plan = {0: 0, 1: 1, 2: 2, 3: 3}
        remapped = remap_plan_colors(plan, [0, 0, 8, 8])
        assert set(remapped.values()) <= {2, 3}

    def test_demand_drives_packing_order(self):
        # Class 0 has demand 3, class 1 demand 1; the single rich color
        # must go to the demanding class.
        plan = {0: 0, 10: 0, 20: 0, 1: 1}
        remapped = remap_plan_colors(
            plan, [1, 1, 9, 1], demand_by_color=[3, 1, 0, 0]
        )
        assert remapped[0] == remapped[10] == remapped[20] == 2

    def test_zero_demand_class_keeps_color(self):
        # Class 1's pages are all mapped (zero demand): moving its hint
        # would only trigger migrations, so it stays put.
        plan = {0: 0, 1: 1}
        remapped = remap_plan_colors(
            plan, [0, 0, 8, 8], demand_by_color=[2, 0, 0, 0]
        )
        assert remapped[1] == 1
        assert remapped[0] in (2, 3)

    def test_deterministic(self):
        plan = {v: v % 4 for v in range(32)}
        capacity = [3, 7, 0, 5]
        assert remap_plan_colors(plan, capacity) == remap_plan_colors(
            plan, capacity
        )


class TestCapacityAndDemand:
    def test_capacity_counts_free_and_held_not_own_or_revoked(self):
        _, vm, ms = build()
        pm = vm.physmem
        adaptive = AdaptiveCdpc(vm, ms, plan_colors={})
        baseline = adaptive.capacity_by_color()
        assert baseline == [
            pm.free_frames_of_color(c) for c in range(pm.num_colors)
        ]
        # Held frames still count (the held-frame reclaimer can evict a
        # matching-color competitor frame on demand) ...
        pm.occupy_fraction(0.25, seed=1)
        assert sum(adaptive.capacity_by_color()) == sum(baseline)
        # ... frames this address space maps do not ...
        vm.ensure_mapped(0)
        assert sum(adaptive.capacity_by_color()) == sum(baseline) - 1
        # ... and revoked frames are truly gone.
        revoked = pm.revoke_frames(8)
        assert sum(adaptive.capacity_by_color()) == sum(baseline) - 1 - len(
            revoked
        )

    def test_demand_counts_only_unmapped_plan_pages(self):
        _, vm, ms = build()
        plan = {0: 2, 1: 2, 2: 5}
        adaptive = AdaptiveCdpc(vm, ms, plan_colors=plan)
        assert adaptive.demand_by_color()[2] == 2
        assert adaptive.demand_by_color()[5] == 1
        vm.ensure_mapped(0)
        assert adaptive.demand_by_color()[2] == 1


class TestReplan:
    def _conflicted_setup(self):
        config, vm, ms = build()
        # Plan puts pages 0..3 on distinct colors; map them, then mark
        # them stale by planning different colors than they sit on.
        for vpage in range(4):
            vm.ensure_mapped(vpage)
        plan = {
            vpage: (vm.color_of_vpage(vpage) + 1) % config.num_colors
            for vpage in range(4)
        }
        return config, vm, ms, AdaptiveCdpc(vm, ms, plan_colors=plan)

    def test_replan_migrates_stale_pages(self):
        _, vm, ms, adaptive = self._conflicted_setup()
        event = adaptive.replan(honor_rate=0.3)
        assert event.migrations
        assert not event.aborted
        assert event.cost_ns > 0
        for migration in event.migrations:
            assert vm.page_table.frame_of(migration.vpage) == migration.new_frame
        check_invariants(vm, ms).raise_if_failed()

    def test_replan_respects_migration_budget(self):
        _, vm, ms, adaptive = self._conflicted_setup()
        adaptive.max_migrations = 2
        event = adaptive.replan()
        assert len(event.migrations) <= 2

    def test_revocation_in_copy_window_aborts_transactionally(self):
        # Capacity revoked between the copy and the remap: the migration
        # must abort, return the staged frame, and leave every invariant
        # intact — the new hint table still installs.
        _, vm, ms, adaptive = self._conflicted_setup()
        pm = vm.physmem

        def revoke_everything(vpage, old_frame, new_frame):
            pm.revoke_frames(pm.free_frames(), reclaim=False)
            raise OutOfMemoryError("capacity revoked mid-copy")

        adaptive.pre_remap_hook = revoke_everything
        mapped_before = dict(vm.page_table.mappings())
        seen = []
        adaptive.on_degradation = lambda kind, detail: seen.append(kind)
        event = adaptive.replan(honor_rate=0.2)
        assert event.aborted
        assert event.migrations == []
        assert event.hints  # the re-planned hints still install
        assert adaptive.aborted_replans == 1
        assert dict(vm.page_table.mappings()) == mapped_before
        check_invariants(vm, ms).raise_if_failed()
        assert "aborted_replan" in seen

    def test_counters_accumulate_across_replans(self):
        _, vm, ms, adaptive = self._conflicted_setup()
        first = adaptive.replan()
        adaptive.replan()
        assert adaptive.total_replans == 2
        assert adaptive.total_migrations >= len(first.migrations)


class TestMigratePageTransaction:
    def test_commit_moves_page_and_conserves_frames(self):
        _, vm, ms = build()
        vm.ensure_mapped(0)
        frame = vm.page_table.frame_of(0)
        free_before = vm.physmem.free_frames()
        target = (vm.physmem.color_of(frame) + 3) % vm.physmem.num_colors
        event = migrate_page(vm, ms, 0, frame, target)
        assert event is not None
        assert vm.physmem.color_of(event.new_frame) == target
        assert vm.physmem.free_frames() == free_before
        check_invariants(vm, ms).raise_if_failed()

    def test_stale_mapping_skips_and_returns_staged_frame(self):
        _, vm, ms = build()
        vm.ensure_mapped(0)
        frame = vm.page_table.frame_of(0)
        free_before = vm.physmem.free_frames()
        # Lie about the current frame: the verify step must drop the
        # migration and return the staged frame.
        event = migrate_page(vm, ms, 0, frame + 1, 5)
        assert event is None
        assert vm.page_table.frame_of(0) == frame
        assert vm.physmem.free_frames() == free_before
        check_invariants(vm, ms).raise_if_failed()

    def test_exhaustion_raises_migration_aborted(self):
        _, vm, ms = build()
        vm.ensure_mapped(0)
        frame = vm.page_table.frame_of(0)
        vm.physmem.occupy_fraction(1.0, seed=0)
        with pytest.raises(MigrationAborted):
            migrate_page(vm, ms, 0, frame, 5)
        assert vm.page_table.frame_of(0) == frame
        check_invariants(vm, ms).raise_if_failed()


class TestRecolorerRevocationRegression:
    """Regression: capacity revoked between copy and remap (satellite 1)."""

    def _conflicted(self):
        config, vm, ms = build()
        recolorer = DynamicRecolorer(vm, ms, threshold=2, max_per_step=4)
        for vpage in (0, 16, 32):
            vm.ensure_mapped(vpage)
        for _ in range(8):
            for vpage in (0, 16, 32):
                addr = vpage * config.page_size
                ms.access(0, 0.0, addr, vm.translate(addr), is_write=False)
        return vm, ms, recolorer

    def test_revocation_mid_migration_aborts_cleanly(self):
        vm, ms, recolorer = self._conflicted()
        pm = vm.physmem

        def revoke_mid_copy(vpage, old_frame, new_frame):
            pm.revoke_frames(pm.free_frames(), reclaim=False)
            raise OutOfMemoryError("host revoked capacity mid-copy")

        recolorer.pre_remap_hook = revoke_mid_copy
        mapped_before = dict(vm.page_table.mappings())
        events, cost = recolorer.step()
        assert events == [] and cost == 0.0
        assert recolorer.aborted_steps == 1
        assert dict(vm.page_table.mappings()) == mapped_before
        check_invariants(vm, ms).raise_if_failed()

    def test_nonfatal_revocation_lets_migration_commit(self):
        # A revocation that leaves the staged frame alone must not stop
        # the commit — and the four-state accounting must still balance.
        vm, ms, recolorer = self._conflicted()
        pm = vm.physmem
        recolorer.pre_remap_hook = lambda *_: pm.revoke_frames(
            4, reclaim=False
        )
        events, _ = recolorer.step()
        assert events
        assert pm.frames_revoked_total >= 4
        check_invariants(vm, ms).raise_if_failed()


class WatchdogRig:
    """A hinted VM plus a watchdog whose callbacks record what they get."""

    def __init__(self, adaptive=False, threshold=0.9):
        config = machine()
        colors = config.num_colors
        self.policy = CdpcHintPolicy(colors, fallback=PageColoringPolicy(colors))
        self.vm = VirtualMemory(config, self.policy)
        self.pm = self.vm.physmem
        self.plan = {vpage: vpage % colors for vpage in range(8)}
        self.policy.install_hints(self.plan)
        self.events = []
        self.migrations = []
        self.watchdog = HintWatchdog(
            self.vm,
            MemorySystem(config),
            apply_migrations=lambda vpages, cost: self.migrations.append(vpages),
            on_degradation=lambda kind, detail: self.events.append(kind),
            threshold=threshold,
            plan_colors=self.plan if adaptive else None,
        )

    def faults(self, requests, honored):
        """Account ``requests`` hinted faults, ``honored`` of them honored."""
        self.pm.hint_requests += requests
        self.pm.hints_honored += honored

    def healthy_reference(self):
        self.faults(10, 10)
        self.watchdog.at_boundary()
        assert self.watchdog.ref_rate == 1.0


class TestHintWatchdog:
    def test_no_judgment_under_eight_requests(self):
        rig = WatchdogRig()
        rig.faults(7, 0)
        rig.watchdog.at_boundary()
        assert not rig.watchdog.tripped
        adaptive = WatchdogRig(adaptive=True)
        adaptive.faults(7, 0)
        adaptive.watchdog.at_boundary()
        assert adaptive.watchdog.ref_rate is None

    def test_plain_trip_fires_once_clears_hints_installs_recolorer(self):
        rig = WatchdogRig()
        assert rig.watchdog.recolorer is None
        rig.faults(10, 2)
        rig.watchdog.at_boundary()
        assert rig.watchdog.tripped
        assert rig.policy.num_hints == 0
        assert isinstance(rig.watchdog.recolorer, DynamicRecolorer)
        rig.faults(10, 0)
        rig.watchdog.at_boundary()
        assert rig.events == ["watchdog_trip"]

    def test_no_replan_before_a_healthy_reference(self):
        rig = WatchdogRig(adaptive=True)
        rig.faults(10, 0)
        rig.watchdog.on_fault()
        rig.watchdog.at_boundary()
        # The first window only sets the reference; a window no worse
        # than a bad reference is no collapse.
        assert rig.watchdog.ref_rate == 0.0
        rig.faults(10, 0)
        rig.watchdog.at_boundary()
        assert rig.watchdog.adaptive is None
        assert rig.events == []

    @pytest.mark.parametrize(
        "threshold, honored",
        [(0.95, 9), (0.5, 7)],
        ids=["above_ratio", "above_threshold"],
    )
    def test_collapse_needs_both_threshold_and_ratio(self, threshold, honored):
        rig = WatchdogRig(adaptive=True, threshold=threshold)
        rig.healthy_reference()
        # 0.9 is below the 0.95 threshold but not below 0.8 x 1.0; 0.7 is
        # below 0.8 x 1.0 but not below the 0.5 threshold.
        rig.faults(10, honored)
        rig.watchdog.on_fault()
        assert rig.watchdog.adaptive is None
        # Below both: a collapse, answered by a re-plan.
        rig.faults(10, 0)
        rig.watchdog.at_boundary()
        assert rig.watchdog.adaptive.total_replans == 1
        assert rig.events == ["adaptive_replan"]
        assert not rig.watchdog.tripped

    def test_zero_unmapped_demand_resets_window_without_replan(self):
        rig = WatchdogRig(adaptive=True)
        rig.healthy_reference()
        for vpage in rig.plan:
            rig.vm.ensure_mapped(vpage)
        rig.faults(10, 0)
        rig.watchdog.on_fault()
        assert rig.watchdog.adaptive.total_replans == 0
        assert rig.migrations == []
        # A fresh window: the next eight honored faults judge as healthy.
        rig.faults(8, 8)
        rig.watchdog.at_boundary()
        assert rig.watchdog.adaptive.total_replans == 0
        assert not rig.watchdog.tripped

    def test_collapse_after_the_replan_budget_concedes(self):
        rig = WatchdogRig(adaptive=True)
        rig.healthy_reference()
        for _ in range(ADAPTIVE_MAX_REPLANS):
            rig.faults(10, 0)
            rig.watchdog.on_fault()
        assert rig.watchdog.adaptive.total_replans == ADAPTIVE_MAX_REPLANS
        assert len(rig.migrations) == ADAPTIVE_MAX_REPLANS
        assert rig.watchdog.recolorer is None
        rig.faults(10, 0)
        rig.watchdog.on_fault()
        assert rig.watchdog.tripped
        assert rig.watchdog.adaptive.total_replans == ADAPTIVE_MAX_REPLANS
        assert rig.policy.num_hints == 0
        assert isinstance(rig.watchdog.recolorer, DynamicRecolorer)
        assert rig.events[-1] == "watchdog_trip"
