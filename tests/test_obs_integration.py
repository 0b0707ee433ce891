"""End-to-end observability tests: engine, harness, campaign rollup."""

from __future__ import annotations

import pytest

from repro import Session
from repro.harness import CampaignOptions, run_campaign
from repro.harness.retry import RetryPolicy
from repro.machine.config import sgi_base
from repro.obs import ObsConfig, Tracer, validate_metrics, validate_trace
from repro.sim.engine import run_benchmark
from repro.sim.tracegen import SimProfile


@pytest.fixture(scope="module")
def config():
    """Scaled 2-CPU SGI machine — the cheap way to run named workloads."""
    return sgi_base(2).scaled(16)


def _double(task: int) -> int:
    return task * 2


def _fail_on_odd(task: int) -> int:
    if task % 2:
        raise ValueError(f"task {task} is odd")
    return task


FAST = SimProfile.fast()


class TestEngineObs:
    def test_disabled_by_default(self, config):
        result = run_benchmark("tomcatv", config, profile=FAST)
        assert result.obs is None

    def test_enabled_run_is_bit_identical(self, config):
        plain = run_benchmark("tomcatv", config, profile=FAST)
        observed = run_benchmark(
            "tomcatv", config, profile=FAST, obs=ObsConfig()
        )
        assert observed.to_dict() == plain.to_dict()
        assert "obs" not in observed.to_dict()

    def test_report_contents(self, config):
        result = run_benchmark(
            "tomcatv", config, profile=FAST,
            obs=ObsConfig(profile_sample_rate=1),
        )
        report = result.obs
        assert report is not None
        validate_metrics(report["metrics"])
        counters = report["metrics"]["counters"]
        assert counters["machine.instructions"] > 0
        assert counters["physmem.allocations"] > 0
        span_names = {e["name"] for e in report["trace_events"] if e["ph"] == "X"}
        assert {"compile.summaries", "os.setup", "sim.init", "sim.loop"} <= span_names
        validate_trace(
            {"schema": "repro.obs.trace/v1",
             "traceEvents": report["trace_events"]}
        )

    def test_metrics_only_config_skips_trace(self, config):
        result = run_benchmark(
            "tomcatv", config, profile=FAST,
            obs=ObsConfig(tracing=False),
        )
        assert "trace_events" not in result.obs
        assert result.obs["metrics"]["counters"]


class TestHarnessSpans:
    def test_serial_spans_one_per_attempt(self):
        tracer = Tracer()
        campaign = run_campaign(
            _double, [1, 2, 3],
            options=CampaignOptions(tracer=tracer),
            max_workers=1,
        )
        assert campaign.report.completed == 3
        events = [e for e in tracer.export() if e["name"] == "harness.task"]
        assert len(events) == 3
        assert tracer.depth == 0

    def test_parallel_failure_closes_span_with_error(self):
        tracer = Tracer()
        campaign = run_campaign(
            _fail_on_odd, [1, 2, 3, 4],
            options=CampaignOptions(
                tracer=tracer,
                retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
            ),
            max_workers=2,
        )
        assert campaign.report.completed == 2
        assert len(campaign.report.failures) == 2
        assert tracer.depth == 0
        events = [e for e in tracer.export() if e["name"] == "harness.task"]
        assert len(events) == 4
        errors = sorted(
            e["args"]["error"] for e in events if "error" in e["args"]
        )
        assert errors == ["ValueError", "ValueError"]

    def test_progress_events_reach_total(self):
        seen: list[dict] = []
        run_campaign(
            _double, [1, 2, 3],
            options=CampaignOptions(on_progress=seen.append),
            max_workers=1,
        )
        assert seen[0]["done"] == 0  # post-resume snapshot
        assert [event["done"] for event in seen[1:]] == [1, 2, 3]
        assert all(event["total"] == 3 for event in seen)
        assert seen[-1]["failed"] == 0


class TestCampaignRollup:
    def test_sweep_rollup_merges_runs(self, config):
        tracer = Tracer()
        session = Session(
            "tomcatv", config=config, profile=FAST, obs=True
        )
        results = session.sweep(
            policies=["page_coloring", "bin_hopping"],
            campaign=CampaignOptions(tracer=tracer),
            workers=1,
        )
        report = session.sweep_obs_report(tracer=tracer)
        assert report is not None
        merged = report["metrics"]
        validate_metrics(merged)
        assert merged["scope"] == "campaign"
        assert len(merged["runs"]) == 2
        assert merged["campaign"]["completed"] == 2
        per_run = sum(
            result.obs["metrics"]["counters"]["machine.instructions"]
            for result in results.values()
        )
        assert merged["counters"]["machine.instructions"] == per_run
        pids = {e["pid"] for e in report["trace_events"]}
        assert pids == {0, 1, 2}  # orchestrator + one pid per run
        names = {e["name"] for e in report["trace_events"] if e["ph"] == "X"}
        assert "harness.task" in names and "sim.loop" in names

    def test_rollup_none_without_obs(self, config):
        session = Session("tomcatv", config=config, profile=FAST)
        session.sweep(policies=["page_coloring"], workers=1)
        assert session.sweep_obs_report() is None
