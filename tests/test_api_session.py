"""Tests for the repro.api Session facade."""

from __future__ import annotations

import pytest

import repro
from repro import Session
from repro.api import run_benchmark, run_program
from repro.machine.config import sgi_base
from repro.sim import engine as _engine
from repro.sim.engine import EngineOptions
from repro.sim.tracegen import SimProfile
from tests.conftest import make_two_array_program


@pytest.fixture(scope="module")
def config():
    """Scaled 2-CPU SGI machine — cheap enough for named-workload runs."""
    return sgi_base(2).scaled(16)


class TestSessionConstruction:
    def test_importable_from_top_level(self):
        assert repro.Session is Session
        assert "Session" in repro.__all__

    def test_requires_exactly_one_target(self, config):
        with pytest.raises(TypeError, match="exactly one"):
            Session()
        with pytest.raises(TypeError, match="exactly one"):
            Session(
                "tomcatv", program=make_two_array_program(config.page_size)
            )

    def test_unknown_option_rejected(self):
        # The retired legacy spellings are unknown keywords like any other.
        for name in ("no_such_option", "max_workers", "fast", "unaligned"):
            with pytest.raises(TypeError, match=name):
                Session("tomcatv", **{name: 1})

    def test_default_config_scaling(self):
        session = Session("tomcatv", cpus=4, scale=8)
        assert session.config.num_cpus == 4

    def test_with_options_returns_new_session(self, config):
        base = Session("tomcatv", config=config)
        derived = base.with_options(aligned=False)
        assert derived is not base
        assert derived.options.aligned is False
        assert base.options.aligned is True

    def test_obs_shorthand(self, config):
        session = Session("tomcatv", config=config, obs=True)
        assert session.options.obs is not None
        assert session.options.obs.metrics
        off = Session("tomcatv", config=config, obs=False)
        assert off.options.obs is None


class TestDelegates:
    def test_run_benchmark_matches_engine(self, config):
        legacy = _engine.run_benchmark("tomcatv", config, profile=SimProfile.fast())
        facade = run_benchmark("tomcatv", config, profile=SimProfile.fast())
        assert facade.to_dict() == legacy.to_dict()

    def test_run_program_matches_engine(self, config):
        program = make_two_array_program(config.page_size)
        legacy = _engine.run_program(
            program, config, EngineOptions(profile=SimProfile.fast())
        )
        facade = run_program(program, config, profile=SimProfile.fast())
        assert facade.to_dict() == legacy.to_dict()

    def test_session_run_matches_delegate(self, config):
        session = Session("tomcatv", config=config, profile=SimProfile.fast())
        assert session.run().to_dict() == run_benchmark(
            "tomcatv", config, profile=SimProfile.fast()
        ).to_dict()

    def test_session_run_override_does_not_mutate(self, config):
        session = Session("tomcatv", config=config)
        session.run(profile=SimProfile.fast())
        assert session.options.profile == SimProfile()


class TestSessionSweep:
    def test_sweep_returns_policy_results(self, config):
        session = Session("tomcatv", config=config, profile=SimProfile.fast())
        results = session.sweep(
            policies=["page_coloring", "bin_hopping"], workers=1
        )
        assert sorted(results) == ["bin_hopping", "page_coloring"]
        assert session.last_campaign is not None
        assert session.last_campaign.report.completed == 2

    def test_sweep_obs_report_requires_sweep(self, config):
        session = Session("tomcatv", config=config)
        assert session.sweep_obs_report() is None


class TestSessionScenarioSweep:
    @pytest.fixture(scope="class")
    def tiny_spec(self):
        from repro.scenarios import CapacityEvent, ScenarioSpec

        return ScenarioSpec(
            name="tiny",
            workload="swim",
            seed=3,
            capacity_events=(CapacityEvent(beat=1, delta_frames=-0.2),),
        )

    @pytest.fixture(scope="class")
    def small_session(self):
        from repro.machine.config import sgi_base

        return Session(
            "fpppp",
            config=sgi_base(2).scaled(4),
            profile=SimProfile.fast(),
        )

    def test_scenario_detection(self, tiny_spec):
        from repro.api import _is_scenario

        assert _is_scenario("smoke")
        assert _is_scenario(tiny_spec)
        assert _is_scenario(tiny_spec.to_dict())
        assert _is_scenario({"name": "x", "capacity_events": []})
        # Policy shapes must NOT be mistaken for scenarios.
        assert not _is_scenario(None)
        assert not _is_scenario(["page_coloring", "cdpc"])
        assert not _is_scenario({"cdpc": {"cdpc": True}})

    def test_sweep_runs_scenario_modes(self, small_session, tiny_spec):
        results = small_session.sweep(tiny_spec, workers=1)
        assert sorted(results) == [
            "bin-hopping", "cdpc-adaptive", "dynamic-recolor"
        ]
        assert small_session.last_scenario is not None
        assert small_session.last_campaign is not None
        assert small_session.last_scenario.results is results or (
            small_session.last_scenario.results == results
        )

    def test_session_workload_overrides_spec(self, small_session, tiny_spec):
        # The fixture session already ran the sweep above in class scope;
        # the report must carry the session's workload, not the spec's.
        if small_session.last_scenario is None:
            small_session.sweep(tiny_spec, workers=1)
        assert small_session.last_scenario.spec.workload == "fpppp"

    def test_scenario_report_renders_figure(self, small_session, tiny_spec):
        if small_session.last_scenario is None:
            small_session.sweep(tiny_spec, workers=1)
        figure = small_session.last_scenario.figure(width=16)
        assert "hint honor rate" in figure

    def test_unknown_kwarg_rejected(self, small_session, tiny_spec):
        for name in ("bogus", "max_workers", "fast", "unaligned"):
            with pytest.raises(TypeError, match="unknown sweep option"):
                small_session.sweep(tiny_spec, **{name: 1})

    def test_unknown_preset_name_raises(self, small_session):
        with pytest.raises(KeyError, match="unknown scenario preset"):
            small_session.sweep("not-a-preset")
