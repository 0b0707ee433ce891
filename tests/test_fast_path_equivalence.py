"""Fast-path/oracle equivalence: the optimization must be bit-identical.

The scalar hit filter (``EngineOptions(fast_path=True)``) retires a
reference without the per-reference memory-system call only when it can
prove the oracle would produce the same state and timing; everything else
falls through to the inlined per-reference path.  These tests pin the
contract: for every policy and engine feature that shapes the reference
stream or the memory-system state machine, the full serialized
``RunResult`` — counters, float stall times, overheads, degradation
report — matches the ``fast_path=False`` oracle exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.machine.config import sgi_base
from repro.obs import ObsConfig
from repro.robustness.faults import FaultPlan
from repro.sim.engine import EngineOptions, run_benchmark
from repro.sim.tracegen import SimProfile

CONFIG = sgi_base(4).scaled(16)

#: Every variant crosses a different hazard for the hit filter:
#: coherence (cdpc/bin_hopping layouts), mid-reference TLB fills
#: (prefetch_fills_tlb), phase-boundary remapping (dynamic_recolor),
#: mid-run frame seizure/reclaim (fault plans), and a watchdog trip that
#: clears the hints mid-run (watchdog_trip).
VARIANTS = {
    "page_coloring": {"policy": "page_coloring"},
    "bin_hopping": {"policy": "bin_hopping"},
    "cdpc": {"policy": "bin_hopping", "cdpc": True},
    "prefetch": {"policy": "page_coloring", "prefetch": True},
    "prefetch_fills_tlb": {
        "policy": "bin_hopping",
        "cdpc": True,
        "prefetch": True,
        "prefetch_fills_tlb": True,
    },
    "dynamic_recolor": {"policy": "bin_hopping", "dynamic_recolor": True},
    "fault_plan": {
        "policy": "bin_hopping",
        "cdpc": True,
        "fault_plan": FaultPlan(
            seed=7, pressure=0.4, hint_loss=0.2, alloc_failure_rate=0.02
        ),
    },
    "fault_race": {
        "policy": "bin_hopping",
        "race_seed": 3,
        "fault_plan": FaultPlan(seed=3, race_storm=2),
    },
    # Color-skewed pressure plus hint loss sinks the honor rate below the
    # watchdog threshold: the hints are cleared mid-run and the dynamic
    # recolorer takes over at the following phase boundaries.
    "watchdog_trip": {
        "policy": "page_coloring",
        "cdpc": True,
        "cdpc_delivery": "madvise",
        "hint_watchdog": 0.95,
        "fault_plan": FaultPlan(
            seed=5, pressure=0.95, pressure_color_skew=1.0, hint_loss=0.5
        ),
    },
}


@pytest.mark.parametrize("workload", ["tomcatv", "swim"])
@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_fast_path_matches_reference(workload, label):
    base = EngineOptions(profile=SimProfile.fast(), **VARIANTS[label])
    fast = run_benchmark(
        workload, CONFIG,
        replace(base, fast_path=True, trace_cache=True, obs=ObsConfig()),
    )
    reference = run_benchmark(
        workload, CONFIG, replace(base, fast_path=False, trace_cache=False)
    )
    assert fast.to_dict() == reference.to_dict()
    # A filter that never fires matches the oracle for free.
    assert fast.obs["metrics"]["counters"]["memsys.fast_retired_data"] > 0
    if label == "watchdog_trip":
        assert fast.degradation.watchdog_trips == 1


def test_fast_path_is_the_default():
    assert EngineOptions().fast_path
    assert EngineOptions().trace_cache
