"""The benchmark's workloads: cells, timed passes and the correctness oracle.

A *cell* is one answer the program gives: one SPEC95fp workload model
under one policy (or one churn-scenario mode).  A *pass* answers every
cell of a workload once, one after another in this process, starting
from an empty trace cache -- which is what every ``repro run``,
``repro sweep`` or ``repro predict`` invocation pays.

The program is driven only through its public entry points:
``repro.workloads.specfp.get_workload``, ``repro.sim.engine.run_benchmark``,
``repro.checker.staticmiss.predict_workload`` and
``repro.scenarios.runner.scenario_tasks``.

Answers are judged against the ``fast_path=False, trace_cache=False``
oracle.  At :data:`GOLDEN_SEED` the oracle's records are read from
``golden.json`` (regenerate with ``python3 perfbench/run.py
--regenerate-golden``); at any other seed they are computed after the
timed window, so the path under test never grades itself.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import repro  # noqa: F401  (package import is part of the measured set-up)
from repro.checker.staticmiss import StaticMissProfile, predict_workload
from repro.machine.config import MachineConfig, sgi_base
from repro.obs import NULL_TRACER, ObsConfig
from repro.scenarios.runner import scenario_tasks
from repro.scenarios.spec import CapacityEvent, JobSpec, ScenarioSpec
from repro.sim.engine import EngineOptions, run_benchmark
from repro.sim.results import RunResult
from repro.sim.sweeps import STANDARD_POLICIES
from repro.sim.trace_cache import default_trace_cache
from repro.workloads.specfp import WORKLOAD_NAMES, get_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = HERE / "out"
GOLDEN_SEED = 0

#: The paper's Figure 6 machine at the repository's standard 1/16 scale.
CPUS = 8
SCALE = 16

#: Processes the oracle runs in, after the timed window.
ORACLE_WORKERS = 2

#: Seconds an oracle worker may take before the run gives up on it.
ORACLE_TIMEOUT_S = 150

#: Iterations of one calibration sample, and the seconds a sample takes
#: on the reference host when it is quiet.  Each cell's host time is
#: reported in reference-host seconds: host seconds x (CALIBRATION_REF_S /
#: the mean of the calibration points just before and just after the
#: cell) ** CALIBRATION_EXPONENT.
CALIBRATION_ITERS = 40_000
CALIBRATION_REF_S = 0.016

#: How much the program slows, in log terms, when the calibration loop
#: slows: the loop reacts to a busy host more than the simulator does.
#: The slope of log pass time on log calibration time, fitted per
#: series of runs on the reference host, was mostly 0.4-1.0 (README.md,
#: *Reference-host seconds*).
CALIBRATION_EXPONENT = 0.75

#: Samples taken at each calibration point; the point reads their median.
#: The first sample after a cell runs with the table evicted from the
#: caches and reads slow, and a single sample catches a single hiccup, so
#: a median of several tracks the host far better.  The few long cells
#: of ``churn_hostile`` lean on each point more and take more samples.
CALIBRATION_SAMPLES = {"fig6_sweep": 3, "static_predict": 3, "churn_hostile": 7}

WORKLOADS = ("fig6_sweep", "static_predict", "churn_hostile")
SIMULATED = ("fig6_sweep", "churn_hostile")
CHURN_MODELS = ("swim", "tomcatv")


@dataclass(frozen=True)
class Cell:
    """One answer: ``key`` names it in the oracle records."""

    key: str
    model: str
    options: EngineOptions


@dataclass
class Bench:
    """Everything set-up produces: the machine and the cells of a workload."""

    workload: str
    seed: int
    config: MachineConfig
    cells: list[Cell]


@dataclass
class Pass:
    """One timed pass: host times and the answers, keyed by cell."""

    cell_s: list[float]
    cell_cpu_s: list[float]
    #: Calibration points: one before the first cell and one after each.
    calibration: list[float]
    answers: dict[str, object]
    #: Program trace events of each simulated cell, re-based onto the
    #: benchmark tracer's clock (traced passes only).
    events: list[dict] = field(default_factory=list)
    #: ``RunResult.obs["metrics"]`` of each simulated cell (traced only).
    metrics: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Host seconds of the pass's cells."""
        return sum(self.cell_s)

    @property
    def scales(self) -> list[float]:
        """Per cell, the factor from host to reference-host seconds."""
        cal = self.calibration
        return [reference_scale(before, after) for before, after in zip(cal, cal[1:])]

    @property
    def ref_cell_s(self) -> list[float]:
        return [t * k for t, k in zip(self.cell_s, self.scales)]

    @property
    def ref_wall_s(self) -> float:
        return sum(self.ref_cell_s)

    @property
    def ref_cpu_s(self) -> float:
        return sum(t * k for t, k in zip(self.cell_cpu_s, self.scales))


_CALIBRATION_TABLE = bytearray()


def calibration_sample() -> float:
    """Seconds one run of a fixed plain-Python loop takes right now.

    The loop hashes integers, reads an 8 MiB table at random and updates
    a dict, much like the simulator's hot path, so contention on a shared
    host slows it about as much as it slows the program.  It allocates no
    object the garbage collector tracks, so the program's heap does not
    change its time.  It is part of the benchmark, not of the program:
    dividing by it removes the host's drift and nothing a change to the
    program does.
    """
    global _CALIBRATION_TABLE
    if not _CALIBRATION_TABLE:
        _CALIBRATION_TABLE = bytearray(range(256)) * (1 << 15)
    table = _CALIBRATION_TABLE
    mask = len(table) - 1
    started = time.perf_counter()
    owners: dict[int, int] = {}
    x = 12345
    total = 0
    for i in range(CALIBRATION_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x & mask]
        owners[x & 0xFFFF] = i
    return time.perf_counter() - started


def calibration_point(samples: int = 3) -> float:
    """The median of ``samples`` calibration samples taken back to back."""
    return statistics.median(calibration_sample() for _ in range(samples))


def reference_scale(before: float, after: float) -> float:
    """The factor from host to reference-host seconds of something timed
    between the calibration points ``before`` and ``after``."""
    return (2 * CALIBRATION_REF_S / (before + after)) ** CALIBRATION_EXPONENT


def hostile_spec(model: str, seed: int) -> ScenarioSpec:
    """The ``smoke`` preset's shape around ``model``, seeded by the benchmark.

    A co-runner squats on 45% of the frames, skewed to the low colors,
    from beat 0 (before the program initializes); the host revokes 35%
    of capacity at beat 2 and restores it at beat 5, when the co-runner
    also leaves.  Leaving at beat 5 rather than the preset's 7 keeps the
    run at 7 measured epochs instead of 9.
    """
    return ScenarioSpec(
        name=f"hostile-{model}",
        workload=model,
        seed=seed,
        jobs=(
            JobSpec(
                name="coworker",
                arrive_beat=0,
                depart_beat=5,
                frames=0.45,
                color_skew=0.9,
            ),
        ),
        capacity_events=(
            CapacityEvent(beat=2, delta_frames=-0.35),
            CapacityEvent(beat=5, delta_frames=0.35),
        ),
    )


def setup(workload: str, seed: int, tracer=NULL_TRACER) -> Bench:
    """Build the machine, every workload model and the cells of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    config = sgi_base(CPUS).scaled(SCALE)
    models = CHURN_MODELS if workload == "churn_hostile" else WORKLOAD_NAMES
    for model in models:
        with tracer.span("workloads.build", model=model):
            get_workload(model, scale=config.scale_factor)
    cells: list[Cell] = []
    if workload == "churn_hostile":
        for model in CHURN_MODELS:
            labels, tasks = scenario_tasks(hostile_spec(model, seed), config)
            cells += [
                Cell(f"churn/{model}/{label}", model, options)
                for label, (_, _, options) in zip(labels, tasks)
            ]
    else:
        cells = [
            Cell(f"{model}/{label}", model, EngineOptions(seed=seed, **overrides))
            for model in WORKLOAD_NAMES
            for label, overrides in STANDARD_POLICIES.items()
        ]
    return Bench(workload, seed, config, cells)


def predict(cell: Cell, config: MachineConfig) -> StaticMissProfile:
    """The static answer for a cell: the symbolic analyzer, no simulation."""
    options = cell.options
    return predict_workload(
        cell.model,
        config,
        policy=options.policy,
        cdpc=options.cdpc,
        profile=options.profile,
        seed=options.seed,
        init_jitter=options.init_jitter,
        epochs=options.epochs,
    )


def run_pass(bench: Bench, tracer=None) -> Pass:
    """Answer every cell once; with a ``tracer`` the program traces too."""
    default_trace_cache().clear()
    gc.collect()
    traced = tracer is not None
    tracer = tracer if traced else NULL_TRACER
    obs = ObsConfig(profile_sample_rate=0) if traced else None
    static = bench.workload == "static_predict"
    answers: dict[str, object] = {}
    cell_s: list[float] = []
    cell_cpu_s: list[float] = []
    samples = CALIBRATION_SAMPLES[bench.workload]
    calibration = [calibration_point(samples)]
    events: list[dict] = []
    metrics: list[dict] = []
    with tracer.span("bench.pass", workload=bench.workload):
        for cell in bench.cells:
            started = time.perf_counter()
            cpu_started = time.process_time()
            if static:
                with tracer.span("checker.predict", cell=cell.key):
                    answers[cell.key] = predict(cell, bench.config)
            else:
                options = replace(cell.options, obs=obs) if traced else cell.options
                with tracer.span("sim.run", cell=cell.key) as span:
                    result = run_benchmark(cell.model, bench.config, options)
                answers[cell.key] = result
                if traced and result.obs is not None:
                    for event in result.obs.get("trace_events", ()):
                        rebased = dict(event)
                        rebased["ts"] = event["ts"] + span.start_us
                        events.append(rebased)
                    metrics.append(result.obs.get("metrics", {}))
            cell_s.append(time.perf_counter() - started)
            cell_cpu_s.append(time.process_time() - cpu_started)
            with tracer.span("bench.calibrate"):
                calibration.append(calibration_point(samples))
    return Pass(cell_s, cell_cpu_s, calibration, answers, events, metrics)


# ----------------------------------------------------------------------
# The oracle


def digest(result: RunResult) -> str:
    """sha256 of the result's serialized form, the bit-identity contract."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def modeled_refs(result: RunResult) -> float:
    """Modeled memory references: L1 I+D hits and misses of every CPU."""
    return float(
        sum(
            cpu.l1d_hits + cpu.l1d_misses + cpu.l1i_hits + cpu.l1i_misses
            for cpu in result.stats.cpus
        )
    )


def record(result: RunResult) -> dict:
    """What the benchmark keeps of an oracle answer."""
    return {
        "digest": digest(result),
        "measured": StaticMissProfile.measured_from(result),
        "refs": modeled_refs(result),
    }


def oracle_worker(workload: str, seed: int, keys: list[str]) -> list[dict]:
    """Oracle records of the cells ``keys`` of a freshly set-up workload."""
    bench = setup(workload, seed)
    by_key = {cell.key: cell for cell in bench.cells}
    records = []
    for key in keys:
        cell = by_key[key]
        oracle = replace(cell.options, fast_path=False, trace_cache=False)
        records.append(record(run_benchmark(cell.model, bench.config, oracle)))
    return records


def run_oracle(bench: Bench, cells: list[Cell]) -> list[dict]:
    """Oracle records of ``cells`` (cells of ``bench``), in order.

    Grading happens after the timed window, so the oracle may use both
    CPUs of the reference host: ``ORACLE_WORKERS`` fresh interpreters,
    each answering every ``ORACLE_WORKERS``-th cell.  Every one of them
    has ended before this returns, on every path out of it.
    """
    shares = [cells[i::ORACLE_WORKERS] for i in range(ORACLE_WORKERS)]
    shares = [share for share in shares if share]
    procs: list[subprocess.Popen] = []
    try:
        for share in shares:
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--oracle-worker",
                 "--workload", bench.workload, "--seed", str(bench.seed),
                 *(cell.key for cell in share)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                text=True,
            ))
        outputs = []
        for proc in procs:
            out, _ = proc.communicate(timeout=ORACLE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"oracle worker exited with code {proc.returncode}")
            outputs.append(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
    by_key: dict[str, dict] = {}
    for share, share_records in zip(shares, outputs):
        by_key.update(zip((cell.key for cell in share), share_records))
    return [by_key[cell.key] for cell in cells]


def _source_hash() -> str:
    """Fingerprint of the program and of these cell definitions."""
    digest_ = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + [Path(__file__)]
    for path in files:
        digest_.update(str(path.relative_to(ROOT)).encode())
        digest_.update(path.read_bytes())
    return digest_.hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict]:
    return json.loads(path.read_text())["cells"]


def oracle_records(
    bench: Bench,
    golden: Optional[dict[str, dict]] = None,
    out_dir: Path = OUT_DIR,
) -> dict[str, dict]:
    """Oracle records of every cell of ``bench``.

    At the golden seed they come from the stored file (or the ``golden``
    mapping given).  At any other seed the oracle runs here; its records
    are kept in ``out_dir`` under a fingerprint of the program source,
    so repeated runs of one seed on one checkout simulate it once.
    """
    if bench.seed == GOLDEN_SEED:
        stored = golden if golden is not None else load_golden()
        return {cell.key: stored[cell.key] for cell in bench.cells}
    cache_path = out_dir / "oracle_cache.json"
    prefix = f"{_source_hash()}:{bench.seed}:"
    cache: dict[str, dict] = {}
    if cache_path.exists():
        try:
            cache = json.loads(cache_path.read_text())
        except ValueError:
            cache = {}
    missing = [cell for cell in bench.cells if prefix + cell.key not in cache]
    if missing:
        for cell, entry in zip(missing, run_oracle(bench, missing)):
            cache[prefix + cell.key] = entry
        out_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        os.replace(tmp, cache_path)
    return {cell.key: cache[prefix + cell.key] for cell in bench.cells}


def judge(answer: object, oracle: dict) -> tuple[bool, float]:
    """``(ok, relative error of the miss total)`` of one answer.

    A simulated answer must match the oracle's digest bit for bit.  A
    static answer must hold every measured miss component of the oracle
    inside its predicted interval (the ``StaticMissProfile.check``
    contract).  The error of a cell the oracle measured no misses for is
    0 when none were predicted and 1 otherwise.
    """
    measured = oracle["measured"]
    if isinstance(answer, StaticMissProfile):
        ok = all(
            answer.estimates[key].contains(value) for key, value in measured.items()
        )
        predicted = answer.predicted_total()
    else:
        ok = digest(answer) == oracle["digest"]
        predicted = StaticMissProfile.measured_from(answer)["total"]
    total = measured["total"]
    if total > 0:
        error = abs(predicted - total) / total
    else:
        error = 0.0 if predicted == 0 else 1.0
    return ok, error


def regenerate_golden(path: Path = GOLDEN_PATH) -> dict:
    """Run the oracle on every simulated cell at the golden seed and store it."""
    cells: dict[str, dict] = {}
    for workload in SIMULATED:
        bench = setup(workload, GOLDEN_SEED)
        records = run_oracle(bench, bench.cells)
        cells.update(zip((cell.key for cell in bench.cells), records))
    payload = {
        "seed": GOLDEN_SEED,
        "oracle": "EngineOptions(fast_path=False, trace_cache=False)",
        "machine": {"num_cpus": CPUS, "scale_factor": SCALE},
        "cells": cells,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload
