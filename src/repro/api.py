"""``repro.api`` — the unified session facade over the whole stack.

Historically every entry point took its own spelling of the same knobs:
``run_benchmark(name, config, options=...)``, sweeps taking
``max_workers``, the CLI taking ``--fast``/``--unaligned`` flags.  A
:class:`Session` bundles one ``(workload-or-program, MachineConfig,
EngineOptions)`` triple and offers every operation on it:

    from repro import Session

    session = Session("tomcatv", cpus=8)
    result = session.run()
    sweep = session.sweep()              # policy comparison

Keyword names are the :class:`EngineOptions` field names plus
``workers`` for pool sizing; anything else raises :class:`TypeError`.

``run_program`` / ``run_benchmark`` remain as thin delegates for
existing callers and scripts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional, Union

from repro.compiler.ir import Program
from repro.harness.campaign import Campaign, CampaignOptions, campaign_obs_report
from repro.machine.config import MACHINE_PRESETS, MachineConfig, sgi_base
from repro.obs import ObsConfig
from repro.sim import engine as _engine
from repro.sim.engine import EngineOptions
from repro.sim.results import RunResult

__all__ = [
    "Session",
    "run_benchmark",
    "run_program",
]

_OPTION_FIELDS = frozenset(EngineOptions.__dataclass_fields__)


def _is_scenario(value: Any) -> bool:
    """Whether a ``sweep(policies=...)`` argument names a churn scenario.

    Scenario forms: a :class:`repro.scenarios.ScenarioSpec`, a preset
    name string, or a spec dict — distinguished from a policy-override
    mapping by its ``jobs``/``capacity_events`` keys.
    """
    if isinstance(value, str):
        return True
    if isinstance(value, dict):
        return "jobs" in value or "capacity_events" in value
    # Duck-typed so repro.scenarios stays a lazy import.
    return type(value).__name__ == "ScenarioSpec"


class Session:
    """One workload (or program), one machine, one set of engine options.

    ``workload`` is a bundled SPEC95fp model name; pass ``program=`` for
    a hand-built or parsed :class:`Program` instead.  ``config`` defaults
    to the paper's base machine (``sgi_base``) at the given ``cpus`` and
    ``scale``; ``machine`` selects any preset geometry by name instead
    (see :data:`repro.machine.MACHINE_PRESETS` — e.g. ``"sliced_llc_8x"``
    or ``"three_level"``).  Remaining keywords are :class:`EngineOptions`
    fields, plus ``obs=True`` as shorthand for a default
    :class:`repro.obs.ObsConfig`.
    """

    def __init__(
        self,
        workload: Optional[str] = None,
        *,
        program: Optional[Program] = None,
        config: Optional[MachineConfig] = None,
        machine: Optional[str] = None,
        options: Optional[EngineOptions] = None,
        cpus: int = 8,
        scale: int = 16,
        obs: Union[bool, ObsConfig, None] = None,
        **overrides: Any,
    ) -> None:
        if (workload is None) == (program is None):
            raise TypeError("pass exactly one of workload= or program=")
        self.workload = workload
        self.program = program
        if machine is not None:
            if config is not None:
                raise TypeError("pass at most one of config= or machine=")
            try:
                preset = MACHINE_PRESETS[machine]
            except KeyError:
                raise ValueError(
                    f"unknown machine preset {machine!r}; "
                    f"choose from {', '.join(sorted(MACHINE_PRESETS))}"
                ) from None
            config = preset(num_cpus=cpus).scaled(scale)
        self.config = (
            config if config is not None else sgi_base(num_cpus=cpus).scaled(scale)
        )
        if isinstance(obs, bool):
            obs = ObsConfig() if obs else None
        if obs is not None:
            overrides.setdefault("obs", obs)
        unknown = sorted(set(overrides) - _OPTION_FIELDS)
        if unknown:
            raise TypeError(f"unknown engine option(s): {', '.join(unknown)}")
        base = options if options is not None else EngineOptions()
        self.options = replace(base, **overrides) if overrides else base
        #: The full fault-tolerance outcome of the most recent
        #: :meth:`sweep` (``None`` until one has run).
        self.last_campaign: Optional[Campaign] = None
        #: The full :class:`repro.scenarios.ScenarioReport` of the most
        #: recent scenario sweep (``None`` until one has run).
        self.last_scenario: Optional[Any] = None

    # ------------------------------------------------------------------

    def with_options(self, **overrides: Any) -> "Session":
        """A new session sharing this one's target but altered options."""
        return Session(
            self.workload,
            program=self.program,
            config=self.config,
            options=replace(self.options, **overrides),
        )

    def run(self, **overrides: Any) -> RunResult:
        """Simulate the session's workload once; returns the run result."""
        options = self.options
        if overrides:
            options = replace(options, **overrides)
        if self.program is not None:
            return _engine.run_program(self.program, self.config, options)
        assert self.workload is not None
        return _engine.run_benchmark(self.workload, self.config, options)

    def sweep(
        self,
        policies: Optional[Any] = None,
        *,
        campaign: Optional[CampaignOptions] = None,
        **kwargs: Any,
    ) -> dict[str, RunResult]:
        """Policy comparison sweep (the Figure 6 pattern).

        ``policies`` is either a mapping of label → :class:`EngineOptions`
        overrides, or a list of standard policy labels (see
        ``repro.sim.sweeps.STANDARD_POLICIES``) — or a *churn scenario*: a
        :class:`repro.scenarios.ScenarioSpec`, a preset name (``"smoke"``,
        ``"churn"``), or a spec dict (recognized by its ``jobs`` /
        ``capacity_events`` keys).  A scenario runs the session's workload
        across the comparison modes under the spec's capacity churn; the
        full :class:`repro.scenarios.ScenarioReport` lands on
        ``self.last_scenario``.

        Returns label → result for every completed run; the full
        :class:`Campaign` (report, failures, retries) lands on
        ``self.last_campaign``.  Without explicit ``campaign`` options the
        sweep keeps the historical fail-fast contract and raises on any
        task failure.
        """
        from repro.sim.sweeps import STANDARD_POLICIES, policy_campaign

        if self.workload is None:
            raise TypeError("sweep() needs a named workload session")
        if _is_scenario(policies):
            return self._scenario_sweep(policies, campaign=campaign, **kwargs)
        if isinstance(policies, (list, tuple)):
            unknown = [label for label in policies if label not in STANDARD_POLICIES]
            if unknown:
                raise ValueError(
                    f"unknown policy label(s): {', '.join(unknown)}; "
                    f"standard labels are {', '.join(STANDARD_POLICIES)}"
                )
            policies = {label: STANDARD_POLICIES[label] for label in policies}
        workers = kwargs.pop("workers", None)
        if kwargs:
            raise TypeError(f"unknown sweep option(s): {', '.join(sorted(kwargs))}")
        completed, outcome = policy_campaign(
            self.workload,
            self.config,
            policies=policies,
            options=self.options,
            max_workers=workers,
            campaign=campaign,
        )
        self.last_campaign = outcome
        if campaign is None:
            outcome.raise_if_failed()
        return completed

    def _scenario_sweep(
        self,
        scenario: Any,
        *,
        campaign: Optional[CampaignOptions] = None,
        **kwargs: Any,
    ) -> dict[str, RunResult]:
        """Run a churn scenario across the comparison modes."""
        from dataclasses import replace as dc_replace

        from repro.scenarios import coerce_spec, run_scenario

        spec = coerce_spec(scenario)
        if spec.workload != self.workload:
            # The session names the subject workload; the spec's default
            # must not silently override it.
            spec = dc_replace(spec, workload=self.workload)
        workers = kwargs.pop("workers", None)
        if kwargs:
            raise TypeError(f"unknown sweep option(s): {', '.join(sorted(kwargs))}")
        report = run_scenario(
            spec,
            self.config,
            options=self.options,
            max_workers=workers,
            campaign=campaign,
        )
        self.last_scenario = report
        self.last_campaign = report.campaign
        if campaign is None and report.campaign is not None:
            report.campaign.raise_if_failed()
        return report.results

    def sweep_obs_report(self, tracer: Any = None) -> Optional[dict]:
        """Observability rollup of the last sweep (or ``None``).

        Pass the orchestrator tracer given to the sweep's
        ``CampaignOptions`` to include the ``harness.task`` spans.
        """
        if self.last_campaign is None:
            return None
        return campaign_obs_report(self.last_campaign, tracer=tracer)

    def serve(self, **service_options: Any) -> Any:
        """A :class:`repro.service.ColoringService` over this stack.

        The service is the long-running, multi-tenant front door: each
        request names its own workload/machine/policy, is admission-
        controlled and batched onto harness campaigns, and repeats are
        answered O(1) from the fingerprint cache.  Keywords are
        :class:`~repro.service.server.ColoringService` constructor
        options (``store=``, ``workers=``, ``quota_rate=``, ...)::

            import asyncio
            from repro import ColoringRequest, Session

            async def main():
                async with Session("tomcatv").serve(store=".repro/plans") as svc:
                    response = await svc.submit(
                        ColoringRequest(workload="tomcatv", kind="predict")
                    )
                    print(response.status, response.cached)

            asyncio.run(main())
        """
        from repro.service import ColoringService

        return ColoringService(**service_options)

    def __repr__(self) -> str:
        target = self.workload if self.workload is not None else self.program.name
        return (
            f"Session({target!r}, cpus={self.config.num_cpus}, "
            f"policy={self.options.policy!r}, cdpc={self.options.cdpc})"
        )


def run_program(
    program: Program,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    **overrides: Any,
) -> RunResult:
    """Thin delegate: one program, one machine, one run."""
    return Session(program=program, config=config, options=options, **overrides).run()


def run_benchmark(
    name: str,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    **overrides: Any,
) -> RunResult:
    """Thin delegate: one bundled workload, one machine, one run."""
    return Session(name, config=config, options=options, **overrides).run()
