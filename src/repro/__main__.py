"""Command-line interface: run paper benchmarks without writing code.

Examples::

    python -m repro run tomcatv --cpus 8 --policy page_coloring --cdpc
    python -m repro sweep swim --policies page_coloring,bin_hopping,cdpc
    python -m repro lint --format json
    python -m repro lint applu --cpus 16
    python -m repro faults tomcatv --pressure 0.6 --hint-loss 0.2 --check-invariants
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.analysis.report import render_table
from repro.checker.staticmiss import StaticCheckError
from repro.machine.config import MACHINE_PRESETS, MachineConfig, alpha_server
from repro.robustness.faults import FaultPlan
from repro.sim.engine import EngineOptions, run_benchmark, run_program
from repro.sim.tracegen import SimProfile
from repro.workloads import WORKLOAD_NAMES, get_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness import CampaignOptions

#: Where ``--resume`` persists results when no ``--store`` is given.
#: Entries are keyed by full task fingerprints, so one directory safely
#: serves every workload/policy/machine combination.
DEFAULT_STORE = ".repro/campaigns"

#: Every preset geometry plus the historical ``alpha`` alias.
_MACHINES = {
    **{name: preset for name, preset in MACHINE_PRESETS.items()},
    "alpha": alpha_server,
}


def _make_config(args) -> MachineConfig:
    return _MACHINES[args.machine](args.cpus).scaled(args.scale)


def _obs_config(args):
    """An ObsConfig when ``--metrics-out``/``--trace-out`` was given."""
    from repro.obs import ObsConfig

    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if not metrics_out and not trace_out:
        return None
    return ObsConfig(metrics=bool(metrics_out), tracing=bool(trace_out))


def _write_obs_outputs(args, report: dict) -> None:
    """Write the per-run/per-campaign observability files the flags asked for."""
    from repro.obs import write_metrics_json, write_trace_json
    from repro.obs.metrics import MetricsRegistry

    if args.metrics_out:
        snapshot = report.get("metrics")
        if snapshot is None:
            snapshot = MetricsRegistry(scope="run").snapshot()
        write_metrics_json(args.metrics_out, snapshot)
    if args.trace_out:
        write_trace_json(args.trace_out, report.get("trace_events", []))


def _options_for(policy_label: str, args) -> EngineOptions:
    cdpc = policy_label == "cdpc" or args.cdpc
    native = args.policy if policy_label == "cdpc" else policy_label
    if native == "cdpc":
        native = "page_coloring"
    return EngineOptions(
        policy=native,
        cdpc=cdpc,
        prefetch=args.prefetch,
        aligned=not args.unaligned,
        profile=SimProfile.fast() if args.fast else SimProfile(),
        obs=_obs_config(args),
        static_check=getattr(args, "static_check", False),
    )


def _result_row(label: str, result) -> list:
    return [
        label,
        round(result.wall_ns / 1e6, 2),
        round(result.mcpi(), 2),
        result.miss_breakdown()["conflict"],
        result.miss_breakdown()["capacity"],
        round(result.bus_utilization(), 2),
    ]


def cmd_list(_args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        workload = get_workload(name)
        rows.append(
            [workload.spec_id, f"{workload.data_set_mb:.1f}MB",
             workload.description]
        )
    print(render_table(["benchmark", "data set", "description"], rows))
    return 0


def cmd_run(args) -> int:
    config = _make_config(args)
    options = _options_for("cdpc" if args.cdpc else args.policy, args)
    try:
        result = run_benchmark(args.workload, config, options)
    except StaticCheckError as exc:
        print(f"static-check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out or args.trace_out:
        _write_obs_outputs(args, result.obs or {})
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(
        render_table(
            ["config", "wall ms", "MCPI", "conflict", "capacity", "bus"],
            [_result_row(result.label(), result)],
        )
    )
    return 0


def cmd_lint(args) -> int:
    """Static race detection + color-plan linting, no simulation."""
    from repro.checker import lint_program

    config = _make_config(args)
    if args.file:
        from repro.compiler.frontend import parse_program

        with open(args.file) as handle:
            program = parse_program(handle.read())
        programs = [program.scaled(args.scale)]
    elif args.workload == "all":
        programs = [
            get_workload(name, scale=args.scale).program
            for name in WORKLOAD_NAMES
        ]
    else:
        programs = [get_workload(args.workload, scale=args.scale).program]

    reports = [
        lint_program(
            program,
            config,
            cdpc=not args.no_cdpc,
            aligned=not args.unaligned,
            static=True,
        )
        for program in programs
    ]
    verifications = None
    if args.verify_plan:
        verifications = [
            _verify_program_plan(program, config, args) for program in programs
        ]
    num_errors = sum(len(report.errors()) for report in reports)
    if args.format == "json":
        payload = {
            "machine": args.machine,
            "cpus": args.cpus,
            "scale": args.scale,
            "num_errors": num_errors,
            "num_warnings": sum(len(r.warnings()) for r in reports),
            "reports": [report.to_dict() for report in reports],
        }
        if verifications is not None:
            payload["verifications"] = [
                {"program": program.name, **verification.to_dict()}
                for program, verification in zip(programs, verifications)
            ]
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(report.render_text() for report in reports))
        if verifications is not None:
            for program, verification in zip(programs, verifications):
                print(_render_verification(program.name, verification))
    if args.strict and num_errors:
        return 1
    return 0


def _verify_program_plan(program, config, args):
    """Derive the plan the OS would realize and verify it symbolically."""
    from repro.checker.lint import _group_pairs
    from repro.checker.staticmiss import (
        derive_static_plan,
        program_image,
        verify_plan,
    )
    from repro.compiler.padding import layout_arrays
    from repro.compiler.summaries import extract_summary
    from repro.core.coloring import generate_page_colors

    layout = layout_arrays(
        program.arrays,
        config.l2.line_size,
        config.l1d.size,
        aligned=not args.unaligned,
        groups=_group_pairs(program),
    )
    coloring = None
    if not args.no_cdpc:
        summary = extract_summary(program, layout)
        coloring = generate_page_colors(
            summary, config.page_size, config.num_colors, args.cpus
        )
    image = program_image(program, layout, config, args.cpus)
    plan = derive_static_plan(
        program,
        layout,
        config,
        policy="page_coloring",
        cdpc=coloring is not None,
        coloring=coloring,
    )
    return verify_plan(image, plan)


def _render_verification(name, verification) -> str:
    if verification.conflict_free:
        return (
            f"{name}: plan PROVEN conflict-free "
            f"({verification.sets_checked} bins checked, "
            f"max occupancy {verification.max_occupancy})"
        )
    worst = verification.witnesses[0] if verification.witnesses else None
    detail = ""
    if worst is not None:
        detail = (
            f"; worst: cpu {worst.cpu} color {worst.color} line "
            f"{worst.line_index} holds {len(worst.pages)} pages "
            f"({'/'.join(worst.arrays)})"
        )
    return (
        f"{name}: plan NOT conflict-free — "
        f"{len(verification.witnesses)} witness(es), "
        f"max occupancy {verification.max_occupancy}{detail}"
    )


def cmd_predict(args) -> int:
    """Symbolic miss prediction, optionally cross-validated by simulation."""
    from repro.checker.staticmiss import StaticMissProfile, predict_workload

    config = _make_config(args)
    names = (
        list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    )
    labels = [p.strip() for p in args.policies.split(",") if p.strip()]
    profile = SimProfile.fast() if args.fast else SimProfile()
    rows = []
    payloads = []
    violation_count = 0
    for name in names:
        for label in labels:
            cdpc = label == "cdpc"
            # "cdpc" is the STANDARD_POLICIES label: bin_hopping base
            # with compiler hints delivered by touching pages in order.
            native = "bin_hopping" if cdpc else label
            prediction = predict_workload(
                name,
                config,
                num_cpus=args.cpus,
                policy=native,
                cdpc=cdpc,
                profile=profile,
            )
            total = prediction.estimate("total")
            payload = prediction.to_dict()
            row = [
                f"{name}/{label}",
                round(prediction.predicted_total()),
                round(total.hi),
                f"{prediction.analyze_ns / 1e6:.0f}",
            ]
            if args.check:
                result = run_benchmark(
                    name,
                    config,
                    EngineOptions(policy=native, cdpc=cdpc, profile=profile),
                )
                measured = StaticMissProfile.measured_from(result)
                violations = prediction.check(result)
                violation_count += len(violations)
                payload["measured"] = measured
                payload["violations"] = violations
                row.extend(
                    [
                        round(measured["total"]),
                        "FAIL" if violations else "ok",
                    ]
                )
            rows.append(row)
            payloads.append(payload)
    if args.json:
        print(json.dumps({"predictions": payloads}, indent=2))
    else:
        headers = ["config", "predicted", "bound hi", "analyze ms"]
        if args.check:
            headers.extend(["measured", "check"])
        print(render_table(headers, rows))
    return 1 if violation_count else 0


def _campaign_options(args) -> "CampaignOptions":
    """Fault-tolerance options shared by the campaign-running commands."""
    from repro.harness import CampaignOptions, RetryPolicy

    store = args.store
    if args.resume and store is None:
        store = DEFAULT_STORE
    return CampaignOptions(
        store=store,
        resume=args.resume or store is not None,
        retry=RetryPolicy(max_attempts=max(1, args.retries + 1)),
        timeout_s=args.timeout,
        strict=args.strict,
    )


def cmd_sweep(args) -> int:
    """Compare mapping policies as one fault-tolerant campaign.

    Completed runs are durable the moment they finish when a store is
    configured (``--store``/``--resume``); Ctrl-C flushes what finished
    and prints the partial report instead of a traceback.
    """
    from dataclasses import replace as dc_replace

    from repro.obs import ProgressLine, Tracer
    from repro.sim.sweeps import run_task_campaign

    if args.machines:
        return _cmd_sweep_geometries(args)

    config = _make_config(args)
    labels = args.policies.split(",")
    tasks = [
        (args.workload, config, _options_for(label, args)) for label in labels
    ]
    tracer = Tracer() if args.trace_out else None
    progress = ProgressLine(label="sweep", force=args.progress)
    campaign = dc_replace(
        _campaign_options(args), tracer=tracer, on_progress=progress.update
    )
    try:
        outcome = run_task_campaign(
            tasks, max_workers=args.workers, campaign=campaign
        )
    except KeyboardInterrupt:
        # strict mode re-raises after flushing completed results.
        progress.finish()
        print("\nrepro sweep: interrupted", file=sys.stderr)
        return 130
    finally:
        progress.finish()
    report = outcome.report

    if args.metrics_out or args.trace_out:
        from repro.harness.campaign import campaign_obs_report

        _write_obs_outputs(args, campaign_obs_report(outcome, tracer=tracer) or {})

    rows = []
    payload: dict = {}
    for label, result in zip(labels, outcome.results):
        if result is None:
            continue
        rows.append(_result_row(label, result))
        payload[label] = result.to_dict()
    if args.json:
        payload["campaign"] = report.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        if rows:
            print(
                render_table(
                    ["policy", "wall ms", "MCPI", "conflict", "capacity", "bus"],
                    rows,
                )
            )
            from repro.analysis.figures import grouped_bar_chart

            cells = {
                args.machine: {
                    label: result.wall_ns / 1e6
                    for label, result in zip(labels, outcome.results)
                    if result is not None
                }
            }
            print()
            print(grouped_bar_chart(cells, unit="ms"))
        print(f"\ncampaign: {report.summary()}")
        for failure in report.failures:
            print(
                f"  FAILED {failure.label}: {failure.kind} "
                f"after {failure.attempts} attempt(s) {failure.message}",
                file=sys.stderr,
            )
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def _cmd_sweep_geometries(args) -> int:
    """Cross-geometry policy comparison (``sweep --machines a,b,c``)."""
    from repro.analysis.geometry import compare_geometries
    from repro.sim.engine import EngineOptions
    from repro.sim.sweeps import STANDARD_POLICIES

    machines = args.machines.split(",")
    unknown = sorted(set(machines) - set(_MACHINES))
    if unknown:
        print(
            f"repro sweep: unknown machine(s): {', '.join(unknown)}",
            file=sys.stderr,
        )
        return 2
    labels = args.policies.split(",")
    bad = [label for label in labels if label not in STANDARD_POLICIES]
    if bad:
        print(
            f"repro sweep: --machines supports the standard policy labels "
            f"({', '.join(STANDARD_POLICIES)}); got {', '.join(bad)}",
            file=sys.stderr,
        )
        return 2
    # ``alpha`` is a CLI alias, not a preset name the analysis layer knows.
    machines = ["alpha_server" if name == "alpha" else name for name in machines]
    base = EngineOptions(
        prefetch=args.prefetch,
        aligned=not args.unaligned,
        profile=SimProfile.fast() if args.fast else SimProfile(),
        obs=_obs_config(args),
    )
    try:
        comparison = compare_geometries(
            args.workload,
            machines,
            policies={label: STANDARD_POLICIES[label] for label in labels},
            cpus=args.cpus,
            scale=args.scale,
            options=base,
            max_workers=args.workers,
            campaign=_campaign_options(args),
        )
    except KeyboardInterrupt:
        print("\nrepro sweep: interrupted", file=sys.stderr)
        return 130
    report = comparison.campaign.report
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        rows = [
            [machine, policy, *_result_row(policy, result)[1:]]
            for (machine, policy), result in comparison.results.items()
        ]
        print(
            render_table(
                ["machine", "policy", "wall ms", "MCPI", "conflict",
                 "capacity", "bus"],
                rows,
            )
        )
        print()
        print(comparison.figure())
        print(f"\ncampaign: {report.summary()}")
        for failure in report.failures:
            print(
                f"  FAILED {failure.label}: {failure.kind} "
                f"after {failure.attempts} attempt(s) {failure.message}",
                file=sys.stderr,
            )
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def _scenario_spec(args):
    """The one scenario a ``scenario run`` invocation names."""
    from repro.scenarios import ScenarioSpec, preset

    if getattr(args, "spec", None):
        with open(args.spec) as handle:
            return ScenarioSpec.from_dict(json.load(handle))
    return preset(args.name)


def _scenario_row(scenario: str, label: str, result, degradation) -> list:
    return [
        scenario,
        label,
        round(result.wall_ns / 1e6, 2),
        round(result.mcpi(), 2),
        round(result.hint_honor_rate, 4),
        degradation.get("adaptive_replans", 0) if degradation else 0,
        degradation.get("watchdog_trips", 0) if degradation else 0,
    ]


_SCENARIO_COLUMNS = ["scenario", "mode", "wall ms", "MCPI", "honor",
                     "replans", "trips"]


def cmd_scenario(args) -> int:
    """Multi-programmed dynamic-capacity churn scenarios.

    ``run`` executes one scenario (a preset or a ``--spec`` JSON file)
    across the three comparison modes; ``sweep`` executes several presets
    as one crash-safe campaign.  Both inherit the sweep command's
    durability flags (``--store``/``--resume``/``--retries``/
    ``--timeout``/``--strict``).
    """
    if args.scenario_command == "list":
        from repro.scenarios import iter_presets

        rows = []
        for name, spec in iter_presets():
            rows.append([
                name,
                spec.workload,
                spec.seed,
                len(spec.jobs),
                len(spec.capacity_events),
                compile_horizon(spec),
            ])
        print(render_table(
            ["preset", "workload", "seed", "jobs", "capacity events", "beats"],
            rows,
        ))
        return 0

    from dataclasses import replace as dc_replace

    from repro.obs import ProgressLine, Tracer
    from repro.scenarios import preset, run_scenario, scenario_tasks
    from repro.sim.sweeps import run_task_campaign

    config = _make_config(args)
    base = EngineOptions(
        profile=SimProfile.fast() if args.fast else SimProfile(),
        check_invariants=args.check_invariants,
        obs=_obs_config(args),
    )
    tracer = Tracer() if args.trace_out else None
    progress = ProgressLine(label="scenario", force=args.progress)
    campaign = dc_replace(
        _campaign_options(args), tracer=tracer, on_progress=progress.update
    )

    if args.scenario_command == "run":
        spec = _scenario_spec(args)
        try:
            report = run_scenario(
                spec, config, options=base,
                max_workers=args.workers, campaign=campaign,
            )
        except KeyboardInterrupt:
            progress.finish()
            print("\nrepro scenario: interrupted", file=sys.stderr)
            return 130
        finally:
            progress.finish()
        if args.metrics_out or args.trace_out:
            from repro.harness.campaign import campaign_obs_report

            _write_obs_outputs(
                args, campaign_obs_report(report.campaign, tracer=tracer) or {}
            )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            degradation = report.degradation_summary()
            rows = [
                _scenario_row(spec.name, label, result,
                              degradation.get(label))
                for label, result in report.results.items()
            ]
            print(render_table(_SCENARIO_COLUMNS, rows))
            print()
            print(report.figure(width=args.width))
            summary = report.campaign.report
            print(f"\ncampaign: {summary.summary()}")
        summary = report.campaign.report
        if summary.interrupted:
            return 130
        return 0 if summary.ok else 1

    # sweep: several presets, one campaign.
    specs = [preset(name.strip()) for name in args.scenarios.split(",")]
    labels: list[tuple[str, str]] = []
    tasks = []
    for spec in specs:
        mode_labels, spec_tasks = scenario_tasks(spec, config, options=base)
        labels.extend((spec.name, mode) for mode in mode_labels)
        tasks.extend(spec_tasks)
    try:
        outcome = run_task_campaign(
            tasks, max_workers=args.workers, campaign=campaign
        )
    except KeyboardInterrupt:
        progress.finish()
        print("\nrepro scenario: interrupted", file=sys.stderr)
        return 130
    finally:
        progress.finish()
    if args.metrics_out or args.trace_out:
        from repro.harness.campaign import campaign_obs_report

        _write_obs_outputs(args, campaign_obs_report(outcome, tracer=tracer) or {})
    report = outcome.report
    if args.json:
        payload: dict = {
            "scenarios": {
                f"{scenario}/{mode}": result.to_dict()
                for (scenario, mode), result in zip(labels, outcome.results)
                if result is not None
            },
            "campaign": report.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            _scenario_row(
                scenario, mode, result,
                result.degradation.to_dict() if result.degradation else None,
            )
            for (scenario, mode), result in zip(labels, outcome.results)
            if result is not None
        ]
        print(render_table(_SCENARIO_COLUMNS, rows))
        print(f"\ncampaign: {report.summary()}")
        for failure in report.failures:
            print(
                f"  FAILED {failure.label}: {failure.kind} "
                f"after {failure.attempts} attempt(s) {failure.message}",
                file=sys.stderr,
            )
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def compile_horizon(spec) -> int:
    from repro.scenarios import compile_churn

    return compile_churn(spec).horizon


def cmd_runfile(args) -> int:
    from repro.compiler.frontend import parse_program

    with open(args.file) as handle:
        program = parse_program(handle.read())
    # Workload files declare full-scale sizes; scale them to the machine.
    program = program.scaled(args.scale)
    result = run_program(program, _make_config(args), _options_for(args.policy, args))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(
        render_table(
            ["config", "wall ms", "MCPI", "conflict", "capacity", "bus"],
            [_result_row(result.label(), result)],
        )
    )
    return 0


def _degradation_rows(report) -> list[list]:
    return [
        ["reclaims", report.reclaims],
        ["watchdog trips", report.watchdog_trips],
        ["aborted recolor steps", report.aborted_recolor_steps],
        ["forced alloc failures", report.forced_alloc_failures],
        ["dropped hints", report.dropped_hints],
        ["pressure events", report.pressure_events],
        ["frames seized", report.frames_seized],
        ["frames released", report.frames_released],
        ["fallback allocations", report.fallback_allocations],
        ["invariant checks passed", report.invariant_checks],
    ]


def _histogram_lines(report, per_line: int = 12) -> str:
    entries = [
        f"{distance}:{count}"
        for distance, count in sorted(report.fallback_distance_histogram.items())
        if distance > 0
    ]
    if not entries:
        return "(every hint honored at distance 0)"
    return "\n".join(
        "  " + " ".join(entries[i : i + per_line])
        for i in range(0, len(entries), per_line)
    )


def cmd_faults(args) -> int:
    config = _make_config(args)
    try:
        plan = FaultPlan(
            seed=args.seed,
            pressure=args.pressure,
            pressure_color_skew=args.color_skew,
            pressure_period=args.pressure_period,
            hint_loss=args.hint_loss,
            alloc_failure_rate=args.alloc_failure_rate,
            race_storm=args.race_storm,
        )
    except ValueError as exc:
        print(f"repro faults: error: {exc}", file=sys.stderr)
        return 2
    options = EngineOptions(
        policy=args.policy,
        cdpc=not args.no_cdpc,
        prefetch=args.prefetch,
        aligned=not args.unaligned,
        profile=SimProfile() if args.full else SimProfile.fast(),
        fault_plan=plan,
        check_invariants=args.check_invariants,
        hint_watchdog=args.watchdog,
        # Amplified fault races need a seeded bin-hopping RNG to matter.
        race_seed=args.seed if args.race_storm > 0 else None,
        seed=args.seed,
    )
    result = run_benchmark(args.workload, config, options)
    if args.json:
        payload = result.to_dict()
        payload["fault_plan"] = plan.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    print(
        render_table(
            ["config", "wall ms", "MCPI", "conflict", "capacity", "bus"],
            [_result_row(result.label(), result)],
        )
    )
    print(f"\nhint honor rate: {result.hint_honor_rate:.3f}")
    print("\ndegradation report:")
    print(render_table(["event", "value"], _degradation_rows(result.degradation)))
    print("\nfallback distance histogram (distance:count):")
    print(_histogram_lines(result.degradation))
    return 0


def cmd_obs_check(args) -> int:
    """Validate observability output files; exit nonzero on violation."""
    from repro.obs import validate_metrics_file, validate_trace_file

    if not args.metrics and not args.trace:
        print("repro obs-check: error: pass --metrics and/or --trace",
              file=sys.stderr)
        return 2
    status = 0
    for label, path, check in (
        ("metrics", args.metrics, validate_metrics_file),
        ("trace", args.trace, validate_trace_file),
    ):
        if path is None:
            continue
        try:
            check(path)
        except (OSError, ValueError) as exc:
            # SchemaError and json.JSONDecodeError are both ValueErrors.
            print(f"repro obs-check: {label} {path}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"{label} {path}: OK")
    return status


def _service_from_args(args, engine: str):
    """A ColoringService configured from the shared serve/loadgen flags."""
    from repro.harness.retry import RetryPolicy
    from repro.obs import MetricsRegistry, Tracer
    from repro.service import ColoringService

    tracer = Tracer() if getattr(args, "trace_out", None) else None
    return ColoringService(
        engine=engine,
        workers=args.workers or 1,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery_s=args.breaker_recovery,
        default_deadline_s=args.deadline,
        task_timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        store=args.store,
        registry=MetricsRegistry(scope="service"),
        tracer=tracer,
    )


def _write_service_obs(args, service) -> None:
    from repro.obs import write_metrics_json, write_trace_json

    if getattr(args, "metrics_out", None):
        write_metrics_json(args.metrics_out, service.metrics_snapshot())
    if getattr(args, "trace_out", None):
        write_trace_json(args.trace_out, service.tracer.export())


def cmd_serve(args) -> int:
    """Run the coloring service on a TCP JSON-lines socket until stopped."""
    import asyncio
    import signal as _signal

    from repro.service.transport import ServiceListener

    interrupted = False

    async def serve() -> None:
        nonlocal interrupted
        service = _service_from_args(args, args.engine)
        await service.start()
        listener = await ServiceListener.start(
            service, host=args.host, port=args.port
        )
        print(
            f"repro serve: listening on {listener.host}:{listener.port} "
            f"(engine={args.engine}, workers={service.workers}, "
            f"queue_limit={service.queue_limit})"
        )
        sys.stdout.flush()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop(is_interrupt: bool) -> None:
            nonlocal interrupted
            interrupted = interrupted or is_interrupt
            stop.set()

        handled: list = []
        for sig, is_interrupt in (
            (_signal.SIGINT, True),
            (_signal.SIGTERM, False),
        ):
            try:
                loop.add_signal_handler(sig, request_stop, is_interrupt)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)
            print("repro serve: draining...", file=sys.stderr)
            await listener.close()
            await service.drain()
            _write_service_obs(args, service)
            counters = service.metrics_snapshot()["counters"]
            print(
                "repro serve: done — "
                f"{counters.get('service.requests.submitted', 0)} submitted, "
                f"{counters.get('service.responses.ok', 0)} ok, "
                f"{counters.get('service.responses.degraded', 0)} degraded, "
                f"{counters.get('service.responses.rejected', 0)} rejected, "
                f"{counters.get('service.cache.hits', 0)} cache hits",
                file=sys.stderr,
            )

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        interrupted = True
    return 130 if interrupted else 0


def cmd_loadgen(args) -> int:
    """Drive a load shape at the service; report SLO + zero-loss."""
    import asyncio
    import tempfile

    from repro.service import LoadSpec, run_loadgen
    from repro.service.transport import ServiceClient

    spec = LoadSpec(
        requests=args.requests,
        tenants=args.tenants,
        concurrency=args.concurrency,
        cached_fraction=args.cached_fraction,
        hot_keys=args.hot_keys,
        delay_ms=args.delay_ms,
        kill_every=args.kill_every,
        hang_every=args.hang_every,
        fail_every=args.fail_every,
        hang_s=args.hang_s,
        deadline_s=args.request_deadline,
        flood_requests=args.flood,
        seed=args.seed,
        max_p99_ms=args.max_p99_ms,
        max_shed_rate=args.max_shed_rate,
    )
    chaos_needs_pool = bool(args.kill_every or args.hang_every)
    if chaos_needs_pool and args.connect is None and args.timeout is None:
        # kill/hang chaos must run in pool workers under a watchdog —
        # in-thread execution would take the whole process down.
        args.timeout = 5.0

    async def drive() -> dict:
        if args.connect is not None:
            host, _, port = args.connect.rpartition(":")
            clients = [
                await ServiceClient.connect(host or "127.0.0.1", int(port))
                for _ in range(min(spec.concurrency, 16))
            ]
            pool: asyncio.Queue = asyncio.Queue()
            for client in clients:
                pool.put_nowait(client)

            async def submit(request):
                client = await pool.get()
                try:
                    return await client.submit(request)
                finally:
                    pool.put_nowait(client)

            try:
                report = await run_loadgen(submit, spec, scratch=args.scratch)
            finally:
                for client in clients:
                    await client.close()
            return report.to_dict()
        service = _service_from_args(args, "synthetic")
        async with service:
            scratch = args.scratch
            if scratch is None and chaos_needs_pool:
                scratch = tempfile.mkdtemp(prefix="repro-loadgen-")
            report = await run_loadgen(service.submit, spec, scratch=scratch)
        _write_service_obs(args, service)
        payload = report.to_dict()
        payload["service_metrics"] = {
            key: value
            for key, value in service.metrics_snapshot()["counters"].items()
            if key.startswith("service.")
        }
        return payload

    payload = asyncio.run(drive())
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        latency = payload["latency_ms"]
        print(
            render_table(
                ["metric", "value"],
                [
                    ["sent", payload["sent"]],
                    ["answered ok/degraded", payload["answered"]],
                    ["rejected", payload["by_status"].get("rejected", 0)],
                    ["failed", payload["by_status"].get("failed", 0)],
                    ["lost", len(payload["lost"])],
                    ["cache hit rate", f"{payload['cache_hit_rate']:.1%}"],
                    ["coalesced", payload["coalesced"]],
                    ["shed rate (well-behaved)", f"{payload['shed_rate']:.1%}"],
                    ["p50 ms", f"{latency['p50']:.2f}"],
                    ["p99 ms", f"{latency['p99']:.2f}"],
                    ["throughput req/s", int(payload["throughput_rps"])],
                ],
            )
        )
        if payload["flood"]["sent"]:
            flood = payload["flood"]
            print(
                f"flood tenant: {flood['rejected']}/{flood['sent']} rejected"
            )
    slo = payload["slo"]
    if not slo["ok"]:
        for violation in slo["violations"]:
            print(f"repro loadgen: SLO violation: {violation}", file=sys.stderr)
        return 1
    print("loadgen: SLO ok, zero loss", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-directed page coloring reproduction (ASPLOS 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the SPEC95fp workload models")

    def add_machine(p, cpus=8):
        p.add_argument("--cpus", type=int, default=cpus,
                       help=f"processor count (default {cpus})")
        p.add_argument("--machine", choices=sorted(_MACHINES), default="sgi_base")
        p.add_argument("--scale", type=int, default=16,
                       help="geometric scale factor (default 16)")

    def add_campaign(p):
        """The durability and pool flags of every campaign-running verb."""
        p.add_argument(
            "--progress", action="store_true",
            help="force the live progress line even when stderr is not a TTY",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="persist completed runs durably and skip any already in "
            f"the store (default store: {DEFAULT_STORE})",
        )
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="result-store directory (implies result persistence; "
            "completed runs are written atomically as they finish)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="process-pool size (default: CPUs this process may use)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-run wall-clock deadline; hung workers are killed and "
            "the run retried (parallel mode only)",
        )
        p.add_argument(
            "--retries", type=int, default=2,
            help="retries per run after a crash or timeout (default 2)",
        )
        p.add_argument(
            "--strict", action="store_true",
            help="fail fast on the first unrecoverable run failure instead "
            "of reporting the completed subset",
        )

    def add_common(p, workload=True):
        """The machine and engine flags of run, sweep, faults and runfile."""
        if workload:
            p.add_argument("workload", choices=WORKLOAD_NAMES)
        add_machine(p)
        p.add_argument("--policy", default="page_coloring",
                       choices=["page_coloring", "bin_hopping"])
        p.add_argument("--cdpc", action="store_true")
        p.add_argument("--prefetch", action="store_true")
        p.add_argument("--unaligned", action="store_true")
        p.add_argument("--fast", action="store_true",
                       help="single-sweep fast simulation profile")
        p.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of a table")

    def add_obs(p):
        p.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="write the run's metric-registry snapshot as JSON "
            "(repro.obs.metrics/v1)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="write span trace events as chrome://tracing JSON "
            "(repro.obs.trace/v1)",
        )

    run_parser = sub.add_parser("run", help="run one configuration")
    add_common(run_parser)
    add_obs(run_parser)
    run_parser.add_argument(
        "--static-check", action="store_true",
        help="cross-validate the run against the symbolic miss "
        "prediction; nonzero exit if any measured miss component "
        "escapes its predicted interval",
    )

    sweep_parser = sub.add_parser("sweep", help="compare mapping policies")
    add_common(sweep_parser)
    add_obs(sweep_parser)
    add_campaign(sweep_parser)
    sweep_parser.add_argument(
        "--policies", default="page_coloring,bin_hopping,cdpc",
        help="comma-separated: page_coloring, bin_hopping, cdpc",
    )
    sweep_parser.add_argument(
        "--machines", default=None, metavar="NAMES",
        help="comma-separated machine presets for a cross-geometry "
        "comparison (e.g. sgi_base,sliced_llc_8x,three_level); renders "
        "one policy-comparison block per geometry",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="static race detection and color-plan linting (no simulation)",
    )
    lint_parser.add_argument(
        "workload", nargs="?", default="all",
        choices=[*WORKLOAD_NAMES, "all"],
        help="bundled workload to lint, or 'all' (default)",
    )
    lint_parser.add_argument(
        "--file", default=None,
        help="lint a workload described in the text format instead",
    )
    add_machine(lint_parser, cpus=16)
    lint_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is stable-ordered for CI diffing)",
    )
    lint_parser.add_argument(
        "--no-cdpc", action="store_true",
        help="skip the CDPC coloring (color-plan rules needing it are skipped)",
    )
    lint_parser.add_argument("--unaligned", action="store_true",
                             help="lint the packed unaligned layout")
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when ERROR-severity diagnostics exist",
    )
    lint_parser.add_argument(
        "--verify-plan", action="store_true",
        help="symbolically verify the realized color plan: prove it "
             "conflict-free or report occupancy witnesses",
    )

    predict_parser = sub.add_parser(
        "predict",
        help="static miss prediction from the symbolic footprint engine "
             "(no simulation unless --check)",
    )
    predict_parser.add_argument(
        "workload", nargs="?", default="all",
        choices=[*WORKLOAD_NAMES, "all"],
        help="bundled workload to predict, or 'all' (default)",
    )
    add_machine(predict_parser)
    predict_parser.add_argument(
        "--policies", default="page_coloring,bin_hopping,cdpc",
        help="comma-separated policy labels to predict "
             "(default page_coloring,bin_hopping,cdpc)",
    )
    predict_parser.add_argument(
        "--fast", action="store_true",
        help="predict for the reduced-sweep simulation profile",
    )
    predict_parser.add_argument(
        "--check", action="store_true",
        help="cross-validate: simulate each configuration and exit "
             "nonzero if any measured component leaves its interval",
    )
    predict_parser.add_argument("--json", action="store_true",
                                help="emit the full profiles as JSON")

    faults_parser = sub.add_parser(
        "faults",
        help="run one configuration under deterministic fault injection",
    )
    add_common(faults_parser)
    faults_parser.add_argument(
        "--pressure", type=float, default=0.0,
        help="peak fraction of free frames seized by competing address spaces",
    )
    faults_parser.add_argument(
        "--hint-loss", type=float, default=0.0,
        help="fraction of CDPC hints dropped before delivery",
    )
    faults_parser.add_argument(
        "--alloc-failure-rate", type=float, default=0.0,
        help="probability an allocation transiently behaves as exhausted",
    )
    faults_parser.add_argument(
        "--race-storm", type=int, default=0,
        help="extra concurrent faulters amplifying the bin-hopping race",
    )
    faults_parser.add_argument(
        "--color-skew", type=float, default=0.75,
        help="fraction of seized frames concentrated on a color band",
    )
    faults_parser.add_argument(
        "--pressure-period", type=int, default=2,
        help="phase boundaries between seize/release oscillations",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed reproduces identical results)",
    )
    faults_parser.add_argument(
        "--watchdog", type=float, default=0.5,
        help="hint-honor-rate threshold tripping the dynamic-recolor fallback",
    )
    faults_parser.add_argument(
        "--check-invariants", action="store_true",
        help="run the page-table/physmem consistency sweep every epoch",
    )
    faults_parser.add_argument(
        "--no-cdpc", action="store_true",
        help="run without CDPC hints (faults still fire; default is CDPC on)",
    )
    faults_parser.add_argument(
        "--full", action="store_true",
        help="use the full two-sweep simulation profile instead of fast",
    )

    scenario_parser = sub.add_parser(
        "scenario",
        help="multi-programmed dynamic-capacity churn scenarios "
        "(CDPC-adaptive vs dynamic-recolor vs bin-hopping)",
    )
    scn_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scn_sub.add_parser("list", help="list the scenario presets")

    def add_scenario_common(p):
        add_machine(p)
        p.add_argument("--fast", action="store_true",
                       help="single-sweep fast simulation profile")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of tables")
        add_campaign(p)
        p.add_argument(
            "--check-invariants", action="store_true",
            help="verify page-table/physmem invariants after init and "
            "every epoch of every mode",
        )
        add_obs(p)

    scn_run = scn_sub.add_parser(
        "run", help="run one scenario across the comparison modes"
    )
    from repro.scenarios import PRESETS

    scn_run.add_argument(
        "name", nargs="?", default="smoke", choices=sorted(PRESETS),
        help="scenario preset name (default smoke; see 'scenario list')",
    )
    scn_run.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a ScenarioSpec JSON file instead of a preset",
    )
    scn_run.add_argument(
        "--width", type=int, default=40,
        help="bar width of the churn figure (default 40)",
    )
    add_scenario_common(scn_run)

    scn_sweep = scn_sub.add_parser(
        "sweep", help="run several scenario presets as one campaign"
    )
    scn_sweep.add_argument(
        "--scenarios", default="smoke,churn",
        help="comma-separated preset names (default: smoke,churn)",
    )
    add_scenario_common(scn_sweep)

    obs_parser = sub.add_parser(
        "obs-check",
        help="validate --metrics-out / --trace-out files against the "
        "checked-in schemas",
    )
    obs_parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="metrics snapshot file to validate",
    )
    obs_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace file to validate",
    )

    def add_service_common(p):
        p.add_argument("--workers", type=int, default=None,
                       help="harness pool size per batch (default 1)")
        p.add_argument("--queue-limit", type=int, default=64,
                       help="bounded admission queue depth (default 64)")
        p.add_argument("--max-batch", type=int, default=8,
                       help="max requests batched into one campaign (default 8)")
        p.add_argument("--batch-window", type=float, default=0.005,
                       metavar="SECONDS",
                       help="how long to gather a batch (default 0.005)")
        p.add_argument("--quota-rate", type=float, default=50.0,
                       help="per-tenant admission tokens per second (default 50)")
        p.add_argument("--quota-burst", type=float, default=100.0,
                       help="per-tenant token-bucket burst (default 100)")
        p.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures tripping a workload-class "
                       "circuit breaker (default 3)")
        p.add_argument("--breaker-recovery", type=float, default=5.0,
                       metavar="SECONDS",
                       help="breaker open time before a recovery probe "
                       "(default 5)")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline (admission to answer)")
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-task watchdog; forces pool-mode execution")
        p.add_argument("--retries", type=int, default=2,
                       help="retries per task after crash/timeout (default 2)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="durable result store (answers survive restarts)")
        add_obs(p)

    serve_parser = sub.add_parser(
        "serve",
        help="run the coloring service on a TCP JSON-lines socket "
        "(admission control, batching, caching, degradation)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (default 0 = pick a free one)")
    serve_parser.add_argument(
        "--engine", choices=["harness", "synthetic"], default="harness",
        help="synthetic accepts loadgen/chaos requests (default harness)",
    )
    add_service_common(serve_parser)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive a seedable load shape (optionally fault-injected) at "
        "the service and check SLO + zero-loss",
    )
    loadgen_parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a running 'repro serve' instead of an in-process service",
    )
    loadgen_parser.add_argument("--requests", type=int, default=200)
    loadgen_parser.add_argument("--tenants", type=int, default=4)
    loadgen_parser.add_argument("--concurrency", type=int, default=16)
    loadgen_parser.add_argument(
        "--cached-fraction", type=float, default=0.7,
        help="fraction of requests drawn from the hot key set (default 0.7)",
    )
    loadgen_parser.add_argument("--hot-keys", type=int, default=8)
    loadgen_parser.add_argument(
        "--delay-ms", type=float, default=0.0,
        help="synthetic service time per request (default 0)",
    )
    loadgen_parser.add_argument(
        "--kill-every", type=int, default=0, metavar="N",
        help="every Nth request SIGKILLs its pool worker (0 = never)",
    )
    loadgen_parser.add_argument(
        "--hang-every", type=int, default=0, metavar="N",
        help="every Nth request hangs past the watchdog (0 = never)",
    )
    loadgen_parser.add_argument(
        "--fail-every", type=int, default=0, metavar="N",
        help="every Nth request raises deterministically (0 = never)",
    )
    loadgen_parser.add_argument("--hang-s", type=float, default=30.0)
    loadgen_parser.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline carried on each generated request",
    )
    loadgen_parser.add_argument(
        "--flood", type=int, default=0, metavar="N",
        help="extra requests from one flooding tenant (quota-shed food)",
    )
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="SLO gate: fail (exit 1) if answered p99 exceeds this",
    )
    loadgen_parser.add_argument(
        "--max-shed-rate", type=float, default=None,
        help="SLO gate: fail if well-behaved tenants' rejection rate "
        "exceeds this fraction",
    )
    loadgen_parser.add_argument(
        "--scratch", default=None, metavar="DIR",
        help="chaos marker directory (kill/hang fire once per request); "
        "default: a fresh temp dir for in-process kill/hang runs",
    )
    loadgen_parser.add_argument("--json", action="store_true",
                                help="emit the full loadgen report as JSON")
    add_service_common(loadgen_parser)

    file_parser = sub.add_parser(
        "runfile", help="run a workload described in the text format"
    )
    file_parser.add_argument("file")
    add_common(file_parser, workload=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "runfile": cmd_runfile,
        "faults": cmd_faults,
        "lint": cmd_lint,
        "predict": cmd_predict,
        "obs-check": cmd_obs_check,
        "scenario": cmd_scenario,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Uniform interrupt discipline: every verb exits 130 on ^C.
        # (sweep/scenario/serve catch it earlier to publish partial
        # results or drain cleanly, then return 130 themselves.)
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
