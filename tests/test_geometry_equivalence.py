"""Geometry equivalence: new machine shapes keep the bit-identity contract.

The sliced XOR-hashed LLC and the three-level shared-LLC geometry thread
new state through the memory system (per-level lookup, slice-hash set
indexing, shared-LLC coherence).  The fast path must remain
bit-identical to the ``fast_path=False`` oracle on every one
of them — same counters, same float stall times, same serialized result.

Hypothesis sweeps additionally explore random small programs (loop
kinds, access mixes, array shapes, processor counts) and random tiny
geometries (slice counts, associativities, optional mid level, shared vs
private LLC) the bundled workloads and presets never produce, and the
symbolic analyzer's occupancy witnesses are replayed through the real
simulator on the sliced geometry.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.ir import (
    ArrayDecl,
    InitOrder,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
)
from repro.machine.config import MachineConfig, sliced_llc_8x, three_level
from repro.machine.hierarchy import CacheHierarchy, CacheLevel, xor_slice_masks
from repro.obs import ObsConfig
from repro.sim.engine import EngineOptions, run_benchmark, run_program
from repro.sim.tracegen import SimProfile

from tests.test_sim_engine import tiny_machine

GEOMETRIES = {
    "sliced_llc_8x": sliced_llc_8x,
    "three_level": three_level,
}

POLICIES = {
    "page_coloring": {"policy": "page_coloring"},
    "bin_hopping": {"policy": "bin_hopping"},
    "cdpc": {"policy": "bin_hopping", "cdpc": True},
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("label", sorted(POLICIES))
def test_fast_path_matches_oracle(geometry, label):
    """The fast path against the oracle on each geometry preset."""
    config = GEOMETRIES[geometry](2).scaled(16)
    base = EngineOptions(profile=SimProfile.fast(), **POLICIES[label])
    oracle = run_benchmark(
        "tomcatv", config, replace(base, fast_path=False, trace_cache=False)
    )
    fast = run_benchmark(
        "tomcatv", config,
        replace(base, fast_path=True, trace_cache=True, obs=ObsConfig()),
    )
    assert fast.to_dict() == oracle.to_dict()
    # A filter that never fires matches the oracle for free.
    assert fast.obs["metrics"]["counters"]["memsys.fast_retired_data"] > 0


@st.composite
def programs(draw):
    """Small random programs over a few arrays and loop shapes."""
    num_arrays = draw(st.integers(1, 3))
    names = [f"a{i}" for i in range(num_arrays)]
    arrays = tuple(
        ArrayDecl(name, draw(st.integers(1, 6)) * 256) for name in names
    )
    loops = []
    for li in range(draw(st.integers(1, 3))):
        accesses = tuple(
            PartitionedAccess(
                draw(st.sampled_from(names)),
                units=draw(st.integers(1, 4)),
                is_write=draw(st.booleans()),
                sweeps=draw(st.sampled_from([1.0, 2.0])),
                fraction=draw(st.sampled_from([0.5, 1.0])),
            )
            for _ in range(draw(st.integers(1, num_arrays)))
        )
        loops.append(
            Loop(f"l{li}", draw(st.sampled_from(list(LoopKind))), accesses)
        )
    phases = (
        Phase("steady", tuple(loops), occurrences=draw(st.integers(1, 2))),
    )
    return Program(
        "rand", arrays, phases,
        init_order=draw(st.sampled_from(list(InitOrder))),
    )


class TestProgramProperty:
    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(1, 4))
    def test_fast_path_bit_identical_on_random_programs(self, program, num_cpus):
        config = tiny_machine(num_cpus)
        fast = run_program(
            program, config, EngineOptions(fast_path=True, trace_cache=False)
        )
        oracle = run_program(
            program, config, EngineOptions(fast_path=False, trace_cache=False)
        )
        assert fast.to_dict() == oracle.to_dict()


@st.composite
def tiny_geometries(draw):
    """Random small hierarchies at a 256-byte page, 64-byte lines."""
    slices = draw(st.sampled_from([1, 2, 4]))
    assoc = draw(st.sampled_from([1, 2]))
    size = draw(st.sampled_from([8192, 16384]))
    shared = draw(st.booleans())
    lines_per_page = 256 // 64
    sets_per_slice = size // (64 * assoc * slices)
    if slices > 1:
        frame_masks, offset_masks = xor_slice_masks(
            slices, sets_per_slice // lines_per_page,
            page_shift=8, line_shift=6,
        )
        llc = CacheLevel(
            size, 64, assoc, shared=shared, slices=slices,
            frame_masks=frame_masks, offset_masks=offset_masks,
        )
    else:
        llc = CacheLevel(size, 64, assoc, shared=shared)
    mid = (
        CacheLevel(2048, 64, 2, hit_ns=25.0)
        if draw(st.booleans())
        else None
    )
    hierarchy = CacheHierarchy(
        l1d=CacheLevel(1024, 64, 2),
        l1i=CacheLevel(1024, 64, 2),
        mid=mid,
        llc=llc,
    )
    return MachineConfig(
        num_cpus=draw(st.integers(1, 3)), page_size=256, hierarchy=hierarchy
    )


class TestGeometryProperty:
    @settings(max_examples=15, deadline=None)
    @given(programs(), tiny_geometries(), st.booleans())
    def test_fast_path_bit_identical_on_random_geometries(
        self, program, config, cdpc
    ):
        base = EngineOptions(
            policy="bin_hopping" if cdpc else "page_coloring", cdpc=cdpc
        )
        fast = run_program(
            program, config,
            replace(base, fast_path=True, trace_cache=False),
        )
        oracle = run_program(
            program, config,
            replace(base, fast_path=False, trace_cache=False),
        )
        assert fast.to_dict() == oracle.to_dict()


class TestWitnessReplay:
    @pytest.mark.parametrize("preset", [sliced_llc_8x, three_level])
    def test_occupancy_witnesses_replay_through_simulator(self, preset):
        """A symbolic overflow witness is a real conflict on the machine."""
        from repro.checker.lint import _group_pairs
        from repro.checker.staticmiss import (
            derive_static_plan,
            program_image,
            replay_witness,
            verify_plan,
        )
        from repro.compiler.padding import layout_arrays
        from repro.workloads import get_workload

        config = preset(4).scaled(16)
        program = get_workload("tomcatv", scale=16).program
        layout = layout_arrays(
            program.arrays, config.l2.line_size, config.l1d.size,
            aligned=True, groups=_group_pairs(program),
        )
        image = program_image(program, layout, config, 4)
        plan = derive_static_plan(
            program, layout, config, policy="page_coloring", cdpc=False
        )
        verification = verify_plan(image, plan)
        assert verification.witnesses, "expected occupancy overflows"
        counts = replay_witness(verification.witnesses[0], config)
        assert counts["conflict"] > 0

    def test_witness_frames_come_from_the_color_function(self):
        """On the sliced geometry the replay must honor the slice hash —
        naive ``color + i * num_colors`` frames would land elsewhere."""
        config = sliced_llc_8x(1).scaled(16)
        cf = config.color_function
        assert not cf.classic
        some_color = 5
        it = cf.frames_of_color(some_color)
        frames = [next(it) for _ in range(4)]
        assert all(cf.color_of(f) == some_color for f in frames)
        assert any(
            f % cf.num_colors != some_color for f in frames
        ), "hash should break the classic frame arithmetic"
