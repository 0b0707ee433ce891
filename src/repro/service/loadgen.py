"""Seedable load generator: traffic shapes, fault injection, SLO math.

The generator is how the service's robustness claims stop being prose.
From one integer seed it deterministically builds a request mix —
multi-tenant, cached-heavy or cache-cold, optionally laced with chaos
knobs (worker ``SIGKILL``, hangs past the watchdog, deterministic
exceptions) and a flooding tenant — drives it closed-loop at a fixed
concurrency through any ``submit`` coroutine (the in-process service or
a TCP :class:`~repro.service.transport.ServiceClient`), and accounts
for every single request by id:

* **zero loss** — every request sent maps to exactly one response
  (result, degraded answer, or explicit rejection); anything else lands
  in ``lost`` and fails the SLO;
* **latency** — client-observed p50/p90/p99/mean/max over answered
  (ok/degraded) requests;
* **shedding** — rejection rate for well-behaved tenants, separately
  from the flooding tenant (whose rejections are the *point*);
* **cache** — hit rate among successful answers.

The report is plain JSON (``repro.service.loadgen/v1``), consumed by the
CLI ``loadgen`` verb, the chaos test suite and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import asdict, dataclass
from typing import Any, Awaitable, Callable, Optional

from repro.service.protocol import ColoringRequest, RequestKind, ServiceResponse

__all__ = ["LoadReport", "LoadSpec", "build_requests", "run_loadgen"]

LOADGEN_SCHEMA = "repro.service.loadgen/v1"

Submit = Callable[[ColoringRequest], Awaitable[ServiceResponse]]


@dataclass(frozen=True)
class LoadSpec:
    """One load shape, fully determined by its fields (seed included)."""

    #: Well-behaved requests to send.
    requests: int = 200
    #: Spread across this many tenants (``tenant0..tenantN-1``).
    tenants: int = 4
    #: Closed-loop concurrency (in-flight request cap).
    concurrency: int = 16
    #: Fraction of requests drawn from the hot key set (repeats: cache
    #: and coalescing food); the rest draw fresh cold keys.
    cached_fraction: float = 0.7
    hot_keys: int = 8
    #: Per-request synthetic service time before answering.
    delay_ms: float = 0.0
    #: Chaos cadence: every Nth request carries the knob (0 = never).
    kill_every: int = 0
    hang_every: int = 0
    fail_every: int = 0
    #: How long an injected hang sleeps (must exceed the watchdog).
    hang_s: float = 30.0
    #: Per-request deadline passed to the service (None = its default).
    deadline_s: Optional[float] = None
    #: Flooding tenant: this many extra requests from one abuser.
    flood_requests: int = 0
    flood_tenant: str = "flood"
    workload: str = "loadgen"
    seed: int = 0
    #: SLO gates (None = not enforced).
    max_p99_ms: Optional[float] = None
    max_shed_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not 0.0 <= self.cached_fraction <= 1.0:
            raise ValueError("cached_fraction must be in [0, 1]")
        if self.hot_keys < 1:
            raise ValueError("hot_keys must be >= 1")
        if self.flood_requests < 0:
            raise ValueError("flood_requests must be >= 0")


def build_requests(
    spec: LoadSpec, scratch: Optional[str] = None
) -> list[ColoringRequest]:
    """The deterministic request mix for ``spec`` (same seed, same mix).

    Chaos-carrying requests get unique keys (their fingerprints must not
    alias clean traffic) and, when ``scratch`` is given, a one-shot
    marker token so ``kill``/``hang`` fire once and then the retry
    succeeds — transient faults.  Without ``scratch`` the fault is
    persistent and will exhaust the retry budget (breaker food).
    """
    rng = random.Random(spec.seed)
    requests: list[ColoringRequest] = []
    for index in range(spec.requests):
        knobs: dict[str, Any] = {}
        chaos = _chaos_for(spec, index)
        if chaos is not None:
            knobs["chaos"] = chaos
            knobs["key"] = f"chaos-{chaos}-{index}"
            if chaos == "hang":
                knobs["hang_s"] = spec.hang_s
            if scratch is not None and chaos in ("kill", "hang"):
                knobs["scratch"] = scratch
                knobs["token"] = f"{spec.seed}-{index}"
        elif rng.random() < spec.cached_fraction:
            knobs["key"] = f"hot-{rng.randrange(spec.hot_keys)}"
        else:
            knobs["key"] = f"cold-{index}"
        if spec.delay_ms > 0:
            knobs["delay_ms"] = spec.delay_ms
        requests.append(
            ColoringRequest(
                workload=spec.workload,
                kind=RequestKind.SYNTHETIC,
                tenant=f"tenant{index % spec.tenants}",
                deadline_s=spec.deadline_s,
                request_id=f"req-{index}",
                synthetic=tuple(sorted(knobs.items())),
            )
        )
    for index in range(spec.flood_requests):
        knobs = {"key": f"hot-{rng.randrange(spec.hot_keys)}"}
        if spec.delay_ms > 0:
            knobs["delay_ms"] = spec.delay_ms
        requests.append(
            ColoringRequest(
                workload=spec.workload,
                kind=RequestKind.SYNTHETIC,
                tenant=spec.flood_tenant,
                deadline_s=spec.deadline_s,
                request_id=f"flood-{index}",
                synthetic=tuple(sorted(knobs.items())),
            )
        )
    rng.shuffle(requests)
    return requests


def _chaos_for(spec: LoadSpec, index: int) -> Optional[str]:
    ordinal = index + 1
    if spec.kill_every and ordinal % spec.kill_every == 0:
        return "kill"
    if spec.hang_every and ordinal % spec.hang_every == 0:
        return "hang"
    if spec.fail_every and ordinal % spec.fail_every == 0:
        return "fail"
    return None


@dataclass
class LoadReport:
    """What happened, as JSON-friendly accounting; see :func:`summarize`."""

    payload: dict

    @property
    def ok(self) -> bool:
        return bool(self.payload["slo"]["ok"])

    def to_dict(self) -> dict:
        return self.payload


async def run_loadgen(
    submit: Submit, spec: LoadSpec, scratch: Optional[str] = None
) -> LoadReport:
    """Drive the mix through ``submit`` closed-loop; account for all."""
    requests = build_requests(spec, scratch=scratch)
    semaphore = asyncio.Semaphore(spec.concurrency)
    answers: dict[str, ServiceResponse] = {}
    latencies: dict[str, float] = {}

    async def one(request: ColoringRequest) -> None:
        async with semaphore:
            started = time.perf_counter()
            response = await submit(request)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert request.request_id is not None
        answers[request.request_id] = response
        latencies[request.request_id] = elapsed_ms

    started = time.perf_counter()
    await asyncio.gather(*(one(request) for request in requests))
    elapsed_s = time.perf_counter() - started
    return LoadReport(summarize(spec, requests, answers, latencies, elapsed_s))


def summarize(
    spec: LoadSpec,
    requests: list[ColoringRequest],
    answers: dict[str, ServiceResponse],
    latencies: dict[str, float],
    elapsed_s: float,
) -> dict:
    """Fold raw responses into the ``repro.service.loadgen/v1`` report."""
    lost = sorted(
        request.request_id
        for request in requests
        if request.request_id not in answers
    )
    by_status: dict[str, int] = {}
    by_reason: dict[str, int] = {}
    cached = coalesced = 0
    answered_ms: list[float] = []
    normal_sent = normal_rejected = 0
    flood_sent = flood_rejected = 0
    for request in requests:
        response = answers.get(request.request_id or "")
        if response is None:
            continue
        by_status[response.status.value] = (
            by_status.get(response.status.value, 0) + 1
        )
        if response.reason:
            by_reason[response.reason] = by_reason.get(response.reason, 0) + 1
        if response.ok:
            answered_ms.append(latencies[request.request_id or ""])
            if response.cached:
                cached += 1
            if response.coalesced:
                coalesced += 1
        is_flood = request.tenant == spec.flood_tenant
        rejected = response.status.value == "rejected"
        if is_flood:
            flood_sent += 1
            flood_rejected += int(rejected)
        else:
            normal_sent += 1
            normal_rejected += int(rejected)
    answered = len(answered_ms)
    shed_rate = normal_rejected / normal_sent if normal_sent else 0.0
    latency = _latency_summary(answered_ms)
    violations: list[str] = []
    if lost:
        violations.append(f"lost {len(lost)} request(s)")
    if spec.max_p99_ms is not None and answered and latency["p99"] > spec.max_p99_ms:
        violations.append(
            f"p99 {latency['p99']:.1f}ms > SLO {spec.max_p99_ms:.1f}ms"
        )
    if spec.max_shed_rate is not None and shed_rate > spec.max_shed_rate:
        violations.append(
            f"shed rate {shed_rate:.3f} > SLO {spec.max_shed_rate:.3f}"
        )
    return {
        "schema": LOADGEN_SCHEMA,
        "spec": asdict(spec),
        "sent": len(requests),
        "responded": len(requests) - len(lost),
        "lost": lost,
        "by_status": dict(sorted(by_status.items())),
        "by_reason": dict(sorted(by_reason.items())),
        "answered": answered,
        "cached": cached,
        "coalesced": coalesced,
        "cache_hit_rate": cached / answered if answered else 0.0,
        "shed_rate": shed_rate,
        "flood": {"sent": flood_sent, "rejected": flood_rejected},
        "elapsed_s": elapsed_s,
        "throughput_rps": len(requests) / elapsed_s if elapsed_s > 0 else 0.0,
        "latency_ms": latency,
        "slo": {"ok": not violations, "violations": violations},
    }


def _latency_summary(samples: list[float]) -> dict:
    if not samples:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    ordered = sorted(samples)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "p50": quantile(0.50),
        "p90": quantile(0.90),
        "p99": quantile(0.99),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }
