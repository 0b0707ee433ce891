"""End-to-end engine benchmark: the Figure 6 policy sweep, every path.

``python -m repro bench`` times the full policy sweep (every workload under
page coloring, bin hopping and CDPC) in three simulated legs:

* **reference** — the pre-optimization engine configuration: per-reference
  oracle path (``fast_path=False``), no trace cache, serial execution;
* **fast/cold** — the optimized exact configuration (scalar hit filter,
  first-touch init kernel, trace caching, worker pool) against an empty
  trace cache: what a first run pays, and the headline ``speedup``;
* **fast/warm** — the same configuration rerun against the now-warm
  cache, where traces and their reference streams are all reused: what
  every subsequent run in a session pays (``speedup_warm``).

Two further legs simulate nothing:

* **static_predict** — no simulation at all: the symbolic analyzer
  (:mod:`repro.checker.staticmiss`) predicts every cell's external-cache
  miss total, and the bench scores it against the oracle leg's measured
  results — analyzer wall time, relative prediction error, and the bound
  contract (every oracle measurement inside the predicted interval);
* **service** — the coloring service's overhead floor: an in-process
  :class:`~repro.service.server.ColoringService` on the synthetic engine
  is driven with a cached-heavy request mix, and the leg reports
  client-observed p50/p99 latency, throughput, shed rate and cache hit
  rate (plus a zero-loss check) — the numbers the service's SLO gate in
  CI is calibrated against.

The simulated legs produce ``RunResult`` objects whose serialized form
(``to_dict()``) must match the oracle bit-for-bit — the simulated
statistics are deterministic, so any divergence is a fast-path bug and
the bench exits nonzero.  The timing summary is written to
``BENCH_engine.json``, which also keeps a bounded ``history`` array (git
revision, date, throughput, speedups) appended on every
:func:`write_bench` so regressions are visible across commits.

Every leg runs as one fault-tolerant campaign (:mod:`repro.harness`), so
the JSON also carries per-leg retry/failure counters, and the report file
is published atomically (tmp+rename).

A measurement caveat that matters when reading the numbers: host wall
clock on small shared machines is noisy (CPU steal, frequency scaling),
and the parallel legs' win depends on the CPUs the process may actually
use (``os.sched_getaffinity``).  On a single-core host the fast legs run
serially and the reported speedup is the fast path (hit filter and
first-touch init kernel) + trace cache alone; the end-to-end figure
needs the process pool, i.e. a multi-core host.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from repro.harness.campaign import CampaignOptions
from repro.harness.report import CampaignReport
from repro.harness.store import atomic_write_text
from repro.harness.watchdog import available_cpus
from repro.machine.config import MachineConfig
from repro.sim.engine import EngineOptions
from repro.sim.results import RunResult
from repro.sim.sweeps import STANDARD_POLICIES, Task, run_task_campaign
from repro.sim.trace_cache import default_trace_cache

#: Default output file, at the repository root when run from there.
BENCH_OUTPUT = "BENCH_engine.json"

#: Maximum number of entries kept in the report's ``history`` array.
HISTORY_LIMIT = 100


def modeled_references(results: dict[str, dict[str, RunResult]]) -> int:
    """Total memory references modeled across a sweep's results."""
    total = 0
    for sweep in results.values():
        for result in sweep.values():
            for cpu in result.stats.cpus:
                total += cpu.l1d_hits + cpu.l1d_misses
                total += cpu.l1i_hits + cpu.l1i_misses
    return total


def _run_leg(
    workloads: Sequence[str],
    config: MachineConfig,
    options: EngineOptions,
    max_workers: Optional[int],
    campaign: Optional[CampaignOptions] = None,
) -> tuple[dict[str, dict[str, RunResult]], float, float, CampaignReport]:
    """Run the policy sweep for every workload as ONE campaign.

    Returns ``(results, wall_s, cpu_s, report)``.  Batching every
    workload×policy pair into a single campaign keeps the pool saturated
    across workload boundaries and yields one fault-tolerance report for
    the whole leg.  ``cpu_s`` is the parent process's CPU time only —
    when the sweep fans out to worker processes it understates the true
    compute, so wall seconds is the headline figure.
    """
    labels = list(STANDARD_POLICIES)
    tasks: list[Task] = [
        (workload, config, replace(options, **overrides))
        for workload in workloads
        for overrides in STANDARD_POLICIES.values()
    ]
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    outcome = run_task_campaign(
        tasks,
        max_workers=max_workers,
        campaign=campaign or CampaignOptions(strict=True),
    )
    outcome.raise_if_failed()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    results: dict[str, dict[str, RunResult]] = {}
    for position, workload in enumerate(workloads):
        chunk = outcome.results[position * len(labels):(position + 1) * len(labels)]
        results[workload] = dict(zip(labels, chunk))
    return results, wall, cpu, outcome.report


def find_divergences(
    fast: dict[str, dict[str, RunResult]],
    reference: dict[str, dict[str, RunResult]],
) -> list[str]:
    """Fields where the fast path's serialized results differ from the oracle."""
    divergences: list[str] = []
    for workload, sweep in reference.items():
        for label, ref_result in sweep.items():
            fast_dict = fast[workload][label].to_dict()
            ref_dict = ref_result.to_dict()
            if fast_dict == ref_dict:
                continue
            fields = [key for key in ref_dict if fast_dict.get(key) != ref_dict[key]]
            divergences.append(f"{workload}/{label}: {', '.join(fields)}")
    return divergences


def static_prediction_accuracy(
    reference: dict[str, dict[str, RunResult]],
    config: MachineConfig,
    options: EngineOptions,
) -> dict:
    """The static_predict leg: symbolic prediction scored against the oracle.

    Reuses the reference leg's measured results rather than simulating
    again, so the leg's wall time is pure analyzer time.  Each cell is
    judged twice: the *bound contract* (the oracle's measured miss
    components must fall inside the predictor's self-reported intervals
    — a violation is an analyzer bug) and *point accuracy* (relative
    error of the predicted total, the figure-of-merit the paper-style
    ``static_vs_sim`` figure plots).
    """
    from repro.checker.staticmiss import StaticMissProfile, predict_workload

    cells: list[dict] = []
    errors: list[float] = []
    analyze_ns: list[float] = []
    violations: list[str] = []
    wall0 = time.perf_counter()
    for workload, sweep in reference.items():
        for label, ref_result in sweep.items():
            overrides = STANDARD_POLICIES[label]
            prediction = predict_workload(
                workload,
                config,
                policy=overrides["policy"],
                cdpc=bool(overrides.get("cdpc", False)),
                profile=options.profile,
                seed=options.seed,
                init_jitter=options.init_jitter,
                epochs=options.epochs,
            )
            measured = StaticMissProfile.measured_from(ref_result)["total"]
            predicted = prediction.predicted_total()
            if measured > 0:
                error = abs(predicted - measured) / measured
            else:
                error = 0.0 if predicted == 0 else 1.0
            errors.append(error)
            analyze_ns.append(prediction.analyze_ns)
            if prediction.check(ref_result):
                violations.append(f"{workload}/{label}")
            cells.append(
                {
                    "workload": workload,
                    "policy": label,
                    "predicted": predicted,
                    "measured": measured,
                    "rel_error": error,
                    "analyze_ns": prediction.analyze_ns,
                }
            )
    wall = time.perf_counter() - wall0
    analyze_ns.sort()
    return {
        "wall_s": wall,
        "cells": cells,
        "max_rel_error": max(errors) if errors else 0.0,
        "mean_rel_error": sum(errors) / len(errors) if errors else 0.0,
        "median_analyze_ns": (
            analyze_ns[len(analyze_ns) // 2] if analyze_ns else 0.0
        ),
        "bound_violations": violations,
        "within_bound": not violations,
    }


def service_latency_leg(requests: int = 400, seed: int = 0) -> dict:
    """The service leg: cached-heavy loadgen against an in-process service.

    Uses the synthetic engine (no simulation) so the numbers isolate the
    *service's* own overhead — admission, batching, fingerprint caching,
    response plumbing — rather than engine time.  Single worker, no
    deadline, so batches execute serially in-thread and the leg stays
    sub-second.
    """
    import asyncio

    from repro.service import ColoringService, LoadSpec, run_loadgen

    async def _run() -> dict:
        async with ColoringService(
            engine="synthetic",
            batch_window_s=0.001,
            max_batch=16,
            queue_limit=10_000,
            quota_rate=1e9,
            quota_burst=1e9,
        ) as service:
            spec = LoadSpec(
                requests=requests,
                tenants=4,
                concurrency=32,
                cached_fraction=0.8,
                hot_keys=8,
                seed=seed,
            )
            report = (await run_loadgen(service.submit, spec)).to_dict()
            counters = service.metrics_snapshot()["counters"]
        return {
            "requests": report["sent"],
            "wall_s": report["elapsed_s"],
            "throughput_rps": report["throughput_rps"],
            "latency_ms": report["latency_ms"],
            "shed_rate": report["shed_rate"],
            "cache_hit_rate": report["cache_hit_rate"],
            "coalesced": report["coalesced"],
            "batches": counters.get("service.batches", 0),
            "lost": len(report["lost"]),
            "zero_loss": not report["lost"],
        }

    return asyncio.run(_run())


def run_bench(
    config: MachineConfig,
    workloads: Sequence[str],
    options: Optional[EngineOptions] = None,
    max_workers: Optional[int] = None,
    campaign: Optional[CampaignOptions] = None,
) -> dict:
    """Time the Figure 6 sweep on every engine path and compare results."""
    base = options or EngineOptions()
    reference_options = replace(base, fast_path=False, trace_cache=False)
    fast_options = replace(base, fast_path=True, trace_cache=True)

    ref_results, ref_wall, ref_cpu, ref_report = _run_leg(
        workloads, config, reference_options, max_workers=1
    )

    cache = default_trace_cache()
    cache.clear()
    cold_results, cold_wall, cold_cpu, cold_report = _run_leg(
        workloads, config, fast_options, max_workers=max_workers,
        campaign=campaign,
    )
    # Second pass over the (now warm) trace cache: traces and their
    # reference streams are reused.  With a worker pool the warmth is
    # per-worker, so warm == cold on multi-process runs.
    warm_results, warm_wall, warm_cpu, warm_report = _run_leg(
        workloads, config, fast_options, max_workers=max_workers,
        campaign=campaign,
    )

    divergences = find_divergences(cold_results, ref_results)
    divergences += [
        f"warm:{line}" for line in find_divergences(warm_results, ref_results)
    ]
    static_predict = static_prediction_accuracy(ref_results, config, base)
    service_leg = service_latency_leg()
    refs = modeled_references(cold_results)
    workers = max_workers if max_workers is not None else available_cpus()
    return {
        "benchmark": "figure6_policy_sweep",
        "machine": {
            "num_cpus": config.num_cpus,
            "scale_factor": config.scale_factor,
        },
        "workloads": list(workloads),
        "policies": list(STANDARD_POLICIES),
        "host": {
            "cpu_count": os.cpu_count(),
            "available_cpus": available_cpus(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "reference": {
            "fast_path": False,
            "trace_cache": False,
            "max_workers": 1,
            "wall_s": ref_wall,
            "cpu_s": ref_cpu,
            "refs_per_sec": refs / ref_wall if ref_wall > 0 else 0.0,
            "campaign": ref_report.to_dict(),
        },
        "fast": {
            "fast_path": True,
            "trace_cache": True,
            "max_workers": workers,
            # Mirrors the cold leg: BENCH consumers predating the
            # warm/cold split read these flat keys.
            "wall_s": cold_wall,
            "cpu_s": cold_cpu,
            "refs_per_sec": refs / cold_wall if cold_wall > 0 else 0.0,
            "trace_cache_stats": cache.stats(),
            "campaign": cold_report.to_dict(),
            "cold": {
                "wall_s": cold_wall,
                "cpu_s": cold_cpu,
                "refs_per_sec": refs / cold_wall if cold_wall > 0 else 0.0,
                "campaign": cold_report.to_dict(),
            },
            "warm": {
                "wall_s": warm_wall,
                "cpu_s": warm_cpu,
                "refs_per_sec": refs / warm_wall if warm_wall > 0 else 0.0,
                "trace_cache_stats": cache.stats(),
                "campaign": warm_report.to_dict(),
            },
        },
        "static_predict": static_predict,
        "service": service_leg,
        "modeled_references": refs,
        "speedup": ref_wall / cold_wall if cold_wall > 0 else 0.0,
        "speedup_warm": ref_wall / warm_wall if warm_wall > 0 else 0.0,
        "equivalent": not divergences,
        "divergences": divergences,
    }


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _history_entry(payload: dict) -> dict:
    return {
        "revision": _git_revision(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "refs_per_sec": payload.get("fast", {}).get("refs_per_sec", 0.0),
        "speedup": payload.get("speedup", 0.0),
        "speedup_warm": payload.get("speedup_warm", 0.0),
        "static_max_rel_error": payload.get("static_predict", {}).get(
            "max_rel_error", 0.0
        ),
        "static_analyze_ms": payload.get("static_predict", {}).get(
            "median_analyze_ns", 0.0
        ) / 1e6,
        "service_p50_ms": payload.get("service", {}).get("latency_ms", {}).get(
            "p50", 0.0
        ),
        "service_p99_ms": payload.get("service", {}).get("latency_ms", {}).get(
            "p99", 0.0
        ),
        "service_rps": payload.get("service", {}).get("throughput_rps", 0.0),
        "service_cache_hit_rate": payload.get("service", {}).get(
            "cache_hit_rate", 0.0
        ),
    }


def write_bench(payload: dict, path: str = BENCH_OUTPUT) -> None:
    """Publish the report, carrying the ``history`` array forward.

    The previous report's history (if the file exists and parses) is
    extended with one entry for this run — git revision, UTC date,
    fast-leg throughput and the two speedups — and truncated to the
    most recent :data:`HISTORY_LIMIT` entries, so the JSON doubles as a
    lightweight perf-regression log across commits.  The file is written
    atomically (tmp+rename) so a crash or a concurrent reader never
    observes a truncated ``BENCH_engine.json``.
    """
    target = Path(path)
    history: list[dict] = []
    if target.exists():
        try:
            previous = json.loads(target.read_text())
            if isinstance(previous, dict):
                old = previous.get("history", [])
                if isinstance(old, list):
                    history = old
        except (ValueError, OSError):
            history = []
    history = (history + [_history_entry(payload)])[-HISTORY_LIMIT:]
    payload = dict(payload)
    payload["history"] = history
    atomic_write_text(target, json.dumps(payload, indent=2) + "\n")
