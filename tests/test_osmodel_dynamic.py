"""Tests for the dynamic page-recoloring extension."""

from repro.machine.config import CacheConfig, MachineConfig
from repro.machine.memory_system import MemorySystem
from repro.osmodel.dynamic import DynamicRecolorer
from repro.osmodel.policies import PageColoringPolicy
from repro.osmodel.vm import VirtualMemory


def machine(num_cpus=2) -> MachineConfig:
    return MachineConfig(
        num_cpus=num_cpus,
        page_size=256,
        l1d=CacheConfig(512, 64, 2),
        l1i=CacheConfig(512, 64, 2),
        l2=CacheConfig(4096, 64, 1),  # 16 colors
    )


def build(num_cpus=2):
    config = machine(num_cpus)
    vm = VirtualMemory(config, PageColoringPolicy(config.num_colors))
    ms = MemorySystem(config)
    recolorer = DynamicRecolorer(vm, ms, threshold=2, max_per_step=4)
    return config, vm, ms, recolorer


def provoke_conflicts(config, vm, ms, vpages):
    """Map pages to the same color and thrash between them."""
    for vpage in vpages:
        vm.ensure_mapped(vpage)
    for _ in range(8):
        for vpage in vpages:
            addr = vpage * config.page_size
            ms.access(0, 0.0, addr, vm.translate(addr), is_write=False)


class TestFrameConflictCounters:
    def test_counters_accumulate_and_reset(self):
        config, vm, ms, _ = build()
        # Pages 0 and 16 share color 0 under page coloring.
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        counters = ms.consume_frame_conflicts()
        assert counters and all(v > 0 for v in counters.values())
        assert ms.consume_frame_conflicts() == {}

    def test_invalidate_frame_purges_lines(self):
        config, vm, ms, _ = build()
        vm.ensure_mapped(0)
        paddr = vm.translate(0)
        ms.access(0, 0.0, 0, paddr, False)
        ms.invalidate_frame(paddr // config.page_size)
        sharers, dirty = ms.line_state(paddr)
        assert not sharers and dirty is None


class TestRecolorer:
    def test_step_migrates_conflicting_page(self):
        config, vm, ms, recolorer = build()
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        old_colors = [vm.color_of_vpage(v) for v in (0, 16, 32)]
        assert len(set(old_colors)) == 1  # all on color 0
        events, cost = recolorer.step()
        assert events
        assert cost > 0
        migrated = {e.vpage for e in events}
        # At least one of the pages moved to a different color.
        new_colors = {vm.color_of_vpage(v) for v in (0, 16, 32)}
        assert len(new_colors) > 1
        for event in events:
            assert vm.page_table.frame_of(event.vpage) == event.new_frame
            assert event.vpage in migrated

    def test_old_frame_returns_to_free_pool(self):
        config, vm, ms, recolorer = build()
        # Three same-color pages: enough to overflow the 2-way L1 set so
        # the conflicts reach the external cache.
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        free_before = vm.physmem.free_frames()
        events, _ = recolorer.step()
        assert events
        assert vm.physmem.free_frames() == free_before

    def test_threshold_gates_migration(self):
        config, vm, ms, _ = build()
        recolorer = DynamicRecolorer(vm, ms, threshold=10_000)
        provoke_conflicts(config, vm, ms, [0, 16])
        events, cost = recolorer.step()
        assert events == [] and cost == 0.0

    def test_no_counters_no_cost(self):
        _, _, _, recolorer = build()
        assert recolorer.step() == ([], 0.0)

    def test_migration_cost_includes_all_processors(self):
        config, vm, ms, recolorer = build(num_cpus=2)
        config8 = machine(8)
        vm8 = VirtualMemory(config8, PageColoringPolicy(config8.num_colors))
        ms8 = MemorySystem(config8)
        recolorer8 = DynamicRecolorer(vm8, ms8)
        assert recolorer8.migration_cost_ns() > recolorer.migration_cost_ns()

    def test_step_survives_allocator_exhaustion(self):
        """OOM mid-migration aborts the interval instead of crashing."""
        config, vm, ms, recolorer = build()
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        mapped_before = dict(vm.page_table.mappings())
        vm.physmem.occupy_fraction(1.0, seed=0)  # drain every free frame
        events, cost = recolorer.step()
        assert events == [] and cost == 0.0
        assert recolorer.aborted_steps == 1
        # Transactionality: every page is still mapped, exactly as before.
        assert dict(vm.page_table.mappings()) == mapped_before

    def test_aborted_step_reports_degradation(self):
        config, vm, ms, recolorer = build()
        seen = []
        recolorer.on_degradation = lambda kind, detail: seen.append((kind, detail))
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        vm.physmem.occupy_fraction(1.0, seed=0)
        recolorer.step()
        assert seen and seen[0][0] == "aborted_recolor"
        assert "wanted_color" in seen[0][1]

    def test_step_resumes_after_pressure_lifts(self):
        config, vm, ms, recolorer = build()
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        taken = vm.physmem.occupy_fraction(1.0, seed=0)
        recolorer.step()
        assert recolorer.aborted_steps == 1
        for frame in taken:
            vm.physmem.free(frame)
        provoke_conflicts(config, vm, ms, [0, 16, 32])
        events, _ = recolorer.step()
        assert events  # migration works again once memory is back

    def test_engine_integration(self):
        from repro.machine.config import sgi_base
        from repro.sim.engine import EngineOptions, run_benchmark
        from repro.sim.tracegen import SimProfile

        config = sgi_base(4).scaled(16)
        result = run_benchmark(
            "tomcatv",
            config,
            EngineOptions(
                policy="page_coloring",
                dynamic_recolor=True,
                recolor_threshold=4,
                profile=SimProfile.fast(),
            ),
        )
        assert result.wall_ns > 0  # runs to completion with recoloring on
