"""The repository's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload fig6_sweep --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``fig6_sweep`` -- the paper's Figure 6: 10 SPEC95fp models x page
  coloring / bin hopping / CDPC, simulated on 8 CPUs at scale 16;
* ``static_predict`` -- the same 30 cells answered by the symbolic miss
  predictor alone, no simulation;
* ``churn_hostile`` -- swim and tomcatv x the three churn-scenario modes
  under a hostile co-runner plus a capacity revocation and restore.

A run sets up (and times set-up in fresh processes), then runs whole
passes until ``--seconds`` have elapsed, checks every answer against the
oracle, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, or, with ``--trace 1``, the per-layer
metrics of one extra traced pass (its chrome://tracing file is written
to ``perfbench/out/``).  ``--regenerate-golden`` rewrites the stored
oracle digests of the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "sim_refs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "miss_err_factor": "ratio",
}

#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Pooled cell times a run needs before ``cell_tail_ms`` is a percentile
#: with 10 cells beyond it; with fewer, the maximum of 12 single times
#: (``churn_hostile``) swung too much, so the slowest cell's median over
#: the passes is reported instead.
TAIL_MIN_POOLED = 20

#: Seconds one pass takes on the reference host (2-CPU x86 VM, see
#: README.md); they turn ``--seconds`` into a fixed number of passes.
NOMINAL_PASS_S = {"fig6_sweep": 9.0, "static_predict": 5.7, "churn_hostile": 14.0}

#: Every run measures at least this many passes, so each per-cell time
#: is a median over passes.
MIN_PASSES = 2


def _import_cells():
    sys.path.insert(0, str(SRC))
    import cells

    return cells


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from before ``import repro`` to the first timed call."""
    started = time.perf_counter()
    cells = _import_cells()
    cells.setup(workload, seed)
    return time.perf_counter() - started


def measure_setup(cells, workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set up ``SETUP_SAMPLES`` times, each in a fresh interpreter.

    Returns the host seconds of each and the same in reference-host
    seconds: each scaled by the calibration points this process takes
    right before and right after it, as a pass scales its cells.
    """
    samples = []
    calibration = [cells.calibration_point()]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
        calibration.append(cells.calibration_point())
    ref = [
        t * cells.reference_scale(before, after)
        for t, before, after in zip(samples, calibration, calibration[1:])
    ]
    return samples, ref


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile (nearest rank) with
    at least 10 samples beyond it.  Below 20 samples that percentile would
    fall under the median, so the maximum is reported instead."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) >= 20 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def timed_passes(cells, bench, seconds: float) -> list:
    """The whole passes that cover ``seconds`` on the reference host, and
    at least ``MIN_PASSES``.

    The count is fixed by ``seconds`` and the workload, never by how fast
    this run goes, so two versions of the program do the same work.
    """
    count = max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[bench.workload]))
    return [cells.run_pass(bench) for _ in range(count)]


def grade(cells, bench, passes, golden, out_dir) -> dict:
    """Check every answer of ``passes`` against the oracle records."""
    oracle = cells.oracle_records(bench, golden, out_dir)
    failed: list[str] = []
    errors: list[float] = []
    for run in passes:
        for key, answer in run.answers.items():
            ok, error = cells.judge(answer, oracle[key])
            errors.append(error)
            if not ok:
                failed.append(key)
    return {
        "oracle": oracle,
        "attempted": sum(len(run.answers) for run in passes),
        "failed": failed,
        "max_rel_err": max(errors),
    }


def end_to_end(cells, bench, seconds: float, golden, out_dir) -> dict:
    """Timed passes; every time is in reference-host seconds (README.md)."""
    setup_samples, ref_setup_samples = measure_setup(cells, bench.workload, bench.seed)
    passes = timed_passes(cells, bench, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    graded = grade(cells, bench, passes, golden, out_dir)
    oracle = graded["oracle"]
    cell_ms = [s * 1000.0 for run in passes for s in run.ref_cell_s]
    cell_median_ms = [
        statistics.median(times) * 1000.0
        for times in zip(*(run.ref_cell_s for run in passes))
    ]
    if len(cell_ms) >= TAIL_MIN_POOLED:
        tail_ms, tail_pct = tail(cell_ms)
        tail_note = f"cell_tail_ms is p{tail_pct:.1f} of {len(cell_ms)} cells"
    else:
        tail_ms = max(cell_median_ms)
        tail_note = (
            f"cell_tail_ms is the slowest of {len(cell_median_ms)} cells' "
            f"medians over {len(passes)} passes ({len(cell_ms)} pooled cells)"
        )
    refs_per_s = [
        sum(oracle[key]["refs"] for key in run.answers) / run.ref_wall_s
        for run in passes
    ]
    metrics = {
        "setup_s": statistics.median(ref_setup_samples),
        "wall_s": statistics.median(run.ref_wall_s for run in passes),
        "cpu_s": statistics.median(run.ref_cpu_s for run in passes),
        "cell_p50_ms": statistics.median(cell_median_ms),
        "cell_tail_ms": tail_ms,
        "sim_refs_per_s": statistics.median(refs_per_s),
        "peak_rss_mb": peak_rss_mb,
        "miss_err_factor": 1.0 + graded["max_rel_err"],
    }
    notes = [
        f"passes: {len(passes)}; host wall_s "
        + ", ".join(f"{run.wall_s:.4f}" for run in passes)
        + "; host setup_s "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
        "median calibration point (ms): "
        + ", ".join(
            f"{statistics.median(run.calibration) * 1e3:.3f}" for run in passes
        )
        + f"; reference {cells.CALIBRATION_REF_S * 1e3:.3f}",
        tail_note,
    ]
    if bench.workload == "static_predict":
        notes.append(f"static_max_rel_err: {graded['max_rel_err']:.6f}")
    return {"metrics": metrics, "graded": graded, "notes": notes,
            "units": END_TO_END_UNITS}


def traced(cells, bench, tracer, golden, out_dir) -> dict:
    """A traced pass between two untraced ones; per-layer metrics of it.

    The untraced passes' mean wall is the base of ``obs.overhead_frac``;
    bracketing the traced pass cancels drift of the host and the first
    pass's one-time costs.  ``tracer`` already holds the set-up spans.
    """
    import layers
    from repro.obs import SchemaError, validate_trace_file, write_trace_json

    before = cells.run_pass(bench)
    run = cells.run_pass(bench, tracer)
    after = cells.run_pass(bench)
    plain_wall = (before.ref_wall_s + after.ref_wall_s) / 2
    overhead = run.ref_wall_s / plain_wall - 1.0
    graded = grade(cells, bench, [before, run, after], golden, out_dir)
    events = [
        {"name": "process_name", "ph": "M", "pid": tracer.pid, "tid": tracer.tid,
         "args": {"name": f"perfbench {bench.workload} seed {bench.seed}"}},
        *tracer.export(),
        *run.events,
    ]
    refs = sum(
        cells.modeled_refs(answer)
        for answer in run.answers.values()
        if isinstance(answer, cells.RunResult)
    )
    metrics = layers.per_layer(events, run.metrics, run.wall_s, overhead, refs)
    notes = [
        f"untraced passes {before.wall_s:.4f} s and {after.wall_s:.4f} s, "
        f"traced pass {run.wall_s:.4f} s"
    ]
    trace_path = out_dir / f"trace_{bench.workload}_seed{bench.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_json(str(trace_path), events)
    try:
        validate_trace_file(str(trace_path))
        notes.append(f"trace: {trace_path} ({len(events)} events, schema ok)")
    except SchemaError as error:
        graded["failed"].append(f"trace schema: {error}")
    return {"metrics": metrics, "graded": graded, "notes": notes,
            "units": layers.PER_LAYER_UNITS}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit=None, golden=None, out_dir=None) -> dict:
    """Run the benchmark in this process; returns the printed JSON object."""
    cells = _import_cells()
    from repro.obs import NULL_TRACER, Tracer

    out_dir = out_dir or cells.OUT_DIR
    tracer = Tracer() if trace else NULL_TRACER
    bench = cells.setup(workload, seed, tracer)
    if limit is not None:
        bench.cells = bench.cells[:limit]
    if trace:
        report = traced(cells, bench, tracer, golden, out_dir)
    else:
        report = end_to_end(cells, bench, seconds, golden, out_dir)
    graded = report["graded"]
    attempted = graded["attempted"]
    failed = graded["failed"]
    for note in report["notes"]:
        print(note)
    print(f"cells: attempted {attempted}, failed {len(failed)} "
          f"(fail_frac {len(failed) / attempted:.4f})")
    for key in failed:
        print(f"FAILED {key}")
    units = report["units"]
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "fig6_sweep", "static_predict", "churn_hostile"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--oracle-worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("keys", nargs="*", help=argparse.SUPPRESS)
    parser.add_argument("--regenerate-golden", action="store_true",
                        help="rewrite perfbench/golden.json from the oracle")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.regenerate_golden:
        payload = _import_cells().regenerate_golden()
        print(f"wrote {len(payload['cells'])} oracle records")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.oracle_worker:
        records = _import_cells().oracle_worker(args.workload, args.seed, args.keys)
        print(json.dumps(records))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
