"""First-touch init kernel: bit-identity with the oracle, and engagement.

The init pass retires fresh pages through the vectorized kernel in
:mod:`repro.machine.first_touch` and sends re-touched pages (and whole
passes it cannot prove safe) through the per-reference fast path.  These
tests pin three things:

* the full serialized ``RunResult`` matches the ``fast_path=False``
  oracle on every bundled workload, at a scale where a page holds more
  than two lines, under CDPC delivery, init jitter, churn and forced
  allocation failures;
* the memory-system state the kernel leaves behind — LRU order of every
  TLB, shadow and cache way list, the directory dicts in insertion
  order, the bus floats — equals what the per-reference path leaves;
* the kernel engages where it should and falls back, with the right
  reason, where it must.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.machine.config import (
    CacheConfig,
    MachineConfig,
    sgi_base,
    sliced_llc_8x,
    three_level,
)
from repro.machine.first_touch import FALLBACK_REASONS, _scalar, first_touch_init
from repro.machine.memory_system import MemorySystem
from repro.obs import ObsConfig
from repro.osmodel.policies import BinHoppingPolicy
from repro.osmodel.vm import VirtualMemory
from repro.robustness.faults import FaultPlan
from repro.scenarios import preset, scenario_tasks
from repro.sim.engine import EngineOptions, run_benchmark
from repro.sim.tracegen import SimProfile
from repro.workloads.specfp import WORKLOAD_NAMES

CONFIG = sgi_base(2).scaled(16)
FAST = EngineOptions(profile=SimProfile.fast())
METRICS = ObsConfig(metrics=True, tracing=False, profile_sample_rate=0)

POLICIES = {
    "page_coloring": {"policy": "page_coloring"},
    "bin_hopping": {"policy": "bin_hopping"},
    "cdpc": {"policy": "bin_hopping", "cdpc": True},
}


def _fast_matching_oracle(workload, config, options):
    """Run fast and oracle, assert they agree; return the fast run."""
    fast = run_benchmark(
        workload, config, replace(options, fast_path=True, obs=METRICS)
    )
    oracle = run_benchmark(
        workload, config, replace(options, fast_path=False, trace_cache=False)
    )
    assert fast.to_dict() == oracle.to_dict()
    return fast


def _assert_matches_oracle(workload, config, options):
    """Run fast and oracle; return the fast run's init line counters."""
    return _init_lines(_fast_matching_oracle(workload, config, options))


def _init_lines(run):
    counters = run.obs["metrics"]["counters"]
    return {
        "bulk": counters["engine.init_bulk_lines"],
        **{
            reason: counters[f"engine.init_scalar_lines.{reason}"]
            for reason in FALLBACK_REASONS
        },
    }


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("label", sorted(POLICIES))
def test_every_workload_matches_oracle(workload, label):
    lines = _assert_matches_oracle(
        workload, CONFIG, replace(FAST, **POLICIES[label])
    )
    # On the paper's machine only re-touched boundary pages fall back.
    assert lines["bulk"] > 0
    assert all(
        lines[reason] == 0 for reason in FALLBACK_REASONS if reason != "retouched"
    )


@pytest.mark.parametrize("workload", ["tomcatv", "swim"])
def test_pages_of_many_lines_match_oracle(workload):
    """At scale 4 a page holds 8 lines, not 2."""
    config = sgi_base(2).scaled(4)
    assert config.page_size // config.l2.line_size > 2
    lines = _assert_matches_oracle(
        workload, config, replace(FAST, policy="bin_hopping")
    )
    assert lines["bulk"] > 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"policy": "bin_hopping", "cdpc": True, "cdpc_delivery": "touch"},
        {"policy": "bin_hopping", "cdpc": True, "cdpc_delivery": "madvise"},
        {"policy": "bin_hopping", "init_jitter": 16},
        {"policy": "bin_hopping", "init_jitter": 0},
    ],
    ids=["touch", "madvise", "jitter16", "jitter0"],
)
def test_delivery_and_jitter_match_oracle(overrides):
    lines = _assert_matches_oracle("su2cor", CONFIG, replace(FAST, **overrides))
    assert lines["bulk"] > 0


def test_churn_with_beat_zero_pressure_matches_oracle():
    """The smoke preset's co-runner holds 45% of frames before init."""
    spec = preset("smoke")
    labels, tasks = scenario_tasks(spec, CONFIG, options=FAST)
    workload, config, options = tasks[labels.index("cdpc-adaptive")]
    fast = _fast_matching_oracle(workload, config, options)
    assert _init_lines(fast)["bulk"] > 0
    # The adaptive watchdog fired, so identity covers a mid-run re-plan.
    assert fast.degradation.adaptive_replans >= 1


def test_forced_allocation_failures_fall_back():
    plan = FaultPlan(seed=7, pressure=0.4, alloc_failure_rate=0.02)
    lines = _assert_matches_oracle(
        "tomcatv", CONFIG,
        replace(FAST, policy="bin_hopping", cdpc=True, fault_plan=plan),
    )
    assert lines["bulk"] == 0
    assert lines["reclaim_possible"] > 0


@pytest.mark.parametrize("preset_fn", [sliced_llc_8x, three_level])
def test_other_geometries_fall_back_whole(preset_fn):
    lines = _assert_matches_oracle(
        "tomcatv", preset_fn(2).scaled(16), replace(FAST, policy="bin_hopping")
    )
    assert lines["bulk"] == 0
    assert lines["geometry"] > 0
    assert sum(lines.values()) == lines["geometry"]


# ---------------------------------------------------------------------------
# Direct memory-system state comparison: kernel vs per-reference path.

TWO_WAY = MachineConfig(
    num_cpus=2,
    page_size=256,
    l1d=CacheConfig(1024, 64, 2),
    l1i=CacheConfig(1024, 64, 2),
    l2=CacheConfig(8192, 64, 2),
)

#: Fresh runs separated by re-touched pages (including an immediate
#: repeat and a page long gone from every cache), long enough to wrap
#: the TLB, the shadow cache and every LLC set.
ORDER = (
    list(range(0, 40)) + [39, 39, 5]
    + list(range(40, 140)) + [0, 139, 70]
    + list(range(200, 230))
)


def _system(config):
    ms = MemorySystem(config)
    vm = VirtualMemory(config, BinHoppingPolicy(config.num_colors))
    return ms, vm, {}


def _state(ms, vm, page_cache):
    def ways(cache):
        return [list(w) for w in cache._sets], cache.resident

    tlb = ms._tlb[0]
    bus = ms.bus
    return {
        "tlb": (list(tlb._entries), tlb.hits, tlb.misses),
        "l1d": ways(ms._l1d[0]),
        "l2": ways(ms._l2[0]),
        "shadow": list(ms._shadow[0]._lines),
        "sharers": list(ms._sharers.items()),
        "dirty": list(ms._dirty.items()),
        "pending": ms._pending,
        "seen": ms._seen[0],
        "frame_misses": list(ms.frame_misses.items()),
        "demand": ms.demand_l2_misses,
        "stats": asdict(ms.stats.cpus[0]),
        "bus": (
            bus._backlog_ns, bus._last_update_ns, bus.last_complete_ns,
            dict(bus.busy_ns), dict(bus.transactions),
        ),
        "page_cache": list(page_cache.items()),
        "page_table": list(vm.page_table.mappings()),
        "free": vm.physmem.free_lists(),
    }


@pytest.mark.parametrize("config", [CONFIG, TWO_WAY], ids=["dm", "two_way"])
def test_kernel_leaves_the_per_reference_state(config):
    kernel = _system(config)
    t, fault_kernel, lines = first_touch_init(*kernel, ORDER, 0.0, 2.5)
    scalar = _system(config)
    assert (t, fault_kernel) == _scalar(*scalar, ORDER, 0.0, 2.5)
    assert _state(*kernel) == _state(*scalar)
    per_page = config.page_size // config.l2.line_size
    assert lines["retouched"] == 6 * per_page
    assert lines["bulk"] == (len(ORDER) - 6) * per_page


def test_queued_bus_falls_back_without_faulting():
    """A run whose requests would queue leaves no fault behind for the
    per-reference path to repeat; later runs see a drained bus again."""
    kernel = _system(CONFIG)
    scalar = _system(CONFIG)
    for ms, _vm, _cache in (kernel, scalar):
        ms.bus._backlog_ns = 30_000.0  # the first run's early requests queue
    result = first_touch_init(*kernel, ORDER, 0.0, 2.5)
    assert result[:2] == _scalar(*scalar, ORDER, 0.0, 2.5)
    assert _state(*kernel) == _state(*scalar)
    assert result[2]["bus_not_drained"] == 40 * 2
    assert result[2]["bulk"] > 0


def test_prior_state_falls_back():
    ms, vm, page_cache = _system(CONFIG)
    vm.fault(7, 0)
    ms.access(0, 0.0, 7 * 256, vm.translate(7 * 256), is_write=True)
    _t, _fk, lines = first_touch_init(ms, vm, page_cache, ORDER, 0.0, 2.5)
    assert lines["state_not_empty"] == len(ORDER) * 2
