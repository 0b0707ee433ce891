"""Per-layer numbers of a traced pass, read from spans and counters.

The program already traces its stages (``compile.*``, ``os.setup``,
``color.assign``, ``check.lint``, ``cdpc.*``, ``sim.*``) and counts its
work (``physmem.*``, ``memsys.*``, ``trace_cache.*``, ``tracegen.*``,
``engine.adaptive_*``) in ``RunResult.obs``.  The benchmark adds spans of
its own around every public call it makes (``workloads.build``,
``sim.run``, ``checker.predict``) and around its own steps
(``bench.pass``, ``bench.calibrate``).  Both land on one timeline; a
layer's time is its *self* time: span duration minus the part of it
that child spans cover.
"""

from __future__ import annotations

#: Layer spans whose self time is reported as ``<name>_ms``, in the order
#: a cell runs them.  ``sim.run`` and ``checker.predict`` are the
#: benchmark's spans around ``run_benchmark`` and ``predict_workload``;
#: the self time of ``sim.run`` is the part of ``run_benchmark`` that no
#: program span covers.
LAYER_SPANS = (
    "workloads.build",
    "compile.layout",
    "compile.summaries",
    "color.assign",
    "os.setup",
    "check.lint",
    "cdpc.deliver",
    "cdpc.replan",
    "sim.init",
    "sim.warmup",
    "sim.loop",
    "sim.run",
    "checker.predict",
)

#: Per-layer metric name -> unit, as the benchmark prints them.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{name}_ms": "ms" for name in LAYER_SPANS},
    "tracegen.generate_ms": "ms",
    "trace_cache.hits": "count",
    "trace_cache.lookups": "count",
    "trace_cache.hit_ratio": "ratio",
    "physmem.allocations": "count",
    "physmem.reclaims": "count",
    "physmem.frames_revoked": "count",
    "physmem.hint_requests": "count",
    "physmem.hints_honored": "count",
    "physmem.hint_honor": "ratio",
    "memsys.fast_retired_refs": "count",
    "memsys.fast_retired_blocks": "count",
    "sim.refs_modeled": "count",
    "adaptive.replans": "count",
    "adaptive.migrations": "count",
    "obs.overhead_frac": "ratio",
    "unattributed_ms": "ms",
}


def self_times_ms(events: list[dict]) -> dict[str, float]:
    """Self time in ms of every complete (``"X"``) span, summed by name.

    Spans of one thread nest (they are context managers), so a stack
    finds each span's parent and the parent gives up the child's span.
    """
    spans = sorted(
        (e for e in events if e.get("ph") == "X"),
        key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]),
    )
    totals: dict[str, float] = {}
    stack: list[dict] = []
    for event in spans:
        start = event["ts"]
        while stack and (
            (stack[-1]["pid"], stack[-1]["tid"]) != (event["pid"], event["tid"])
            or stack[-1]["ts"] + stack[-1]["dur"] <= start
        ):
            stack.pop()
        name = event["name"]
        totals[name] = totals.get(name, 0.0) + event["dur"]
        if stack:
            parent = stack[-1]["name"]
            totals[parent] = totals.get(parent, 0.0) - event["dur"]
        stack.append(event)
    return {name: value / 1000.0 for name, value in totals.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    events: list[dict],
    metrics: list[dict],
    traced_wall_s: float,
    overhead_frac: float,
    refs_modeled: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass (plus its set-up spans).

    ``metrics`` are the ``RunResult.obs["metrics"]`` snapshots of the
    pass's simulated cells; their counters are summed over cells.
    ``traced_wall_s`` is the host time of the pass's cells.
    """
    self_ms = self_times_ms(events)
    counters: dict[str, float] = {}
    tracegen_ns = 0.0
    for snapshot in metrics:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        histogram = snapshot.get("histograms", {}).get("tracegen.generate_ns")
        if histogram:
            tracegen_ns += histogram["sum"]
    out = {f"{name}_ms": self_ms.get(name, 0.0) for name in LAYER_SPANS}
    hits = counters.get("trace_cache.hits", 0)
    lookups = hits + counters.get("trace_cache.misses", 0)
    requests = counters.get("physmem.hint_requests", 0)
    honored = counters.get("physmem.hints_honored", 0)
    out.update(
        {
            "tracegen.generate_ms": tracegen_ns / 1e6,
            "trace_cache.hits": hits,
            "trace_cache.lookups": lookups,
            "trace_cache.hit_ratio": _ratio(hits, lookups),
            "physmem.allocations": counters.get("physmem.allocations", 0),
            "physmem.reclaims": counters.get("physmem.reclaims", 0),
            "physmem.frames_revoked": counters.get("physmem.frames_revoked", 0),
            "physmem.hint_requests": requests,
            "physmem.hints_honored": honored,
            "physmem.hint_honor": _ratio(honored, requests),
            "memsys.fast_retired_refs": counters.get("memsys.fast_retired_data", 0)
            + counters.get("memsys.fast_retired_instr", 0),
            "memsys.fast_retired_blocks": counters.get(
                "memsys.fast_retired_blocks", 0
            ),
            "sim.refs_modeled": refs_modeled,
            "adaptive.replans": counters.get("engine.adaptive_replans", 0),
            "adaptive.migrations": counters.get("engine.replan_migrations", 0),
            "obs.overhead_frac": overhead_frac,
        }
    )
    # Time of the pass's cells that no layer span covers.  Set-up spans
    # precede the pass, and calibration runs between cells.
    attributed = sum(
        value
        for name, value in self_ms.items()
        if name not in ("bench.pass", "bench.calibrate", "workloads.build")
    )
    out["unattributed_ms"] = traced_wall_s * 1000.0 - attributed
    return out
