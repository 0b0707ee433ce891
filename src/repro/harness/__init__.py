"""Fault-tolerant job orchestration for experiment campaigns.

Every figure in the paper is a *campaign*: a sweep of independent,
deterministic, expensive runs whose value is only realized when the whole
set completes.  ``repro.harness`` makes campaigns crash-safe:

* :mod:`repro.harness.store` — a crash-consistent on-disk result store
  (atomic tmp+rename writes, manifest keyed by full task fingerprints) so
  every completed result is durable the moment it finishes and a resumed
  campaign re-runs only the missing tasks;
* :mod:`repro.harness.retry` — bounded retries with exponential backoff
  and deterministic jitter;
* :mod:`repro.harness.watchdog` — a process-pool supervisor that tracks
  per-task wall-clock deadlines via a heartbeat table, replaces broken
  pools, and terminates hung workers;
* :mod:`repro.harness.report` — the structured failure taxonomy
  (:class:`TaskFailure`) and the :class:`CampaignReport` summary;
* :mod:`repro.harness.campaign` — the orchestrator tying them together.

The sweep helpers (:mod:`repro.sim.sweeps`), the scenario runner and
the ``python -m repro`` CLI all run on this layer.  Results are always assembled in task order, so a campaign that
completes is indistinguishable from a serial run.
"""

from repro.harness.campaign import (
    Campaign,
    CampaignError,
    CampaignOptions,
    campaign_obs_report,
    run_campaign,
)
from repro.harness.report import CampaignReport, FailureKind, TaskFailure
from repro.harness.retry import RetryPolicy
from repro.harness.store import ResultStore, task_fingerprint
from repro.harness.watchdog import available_cpus

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignOptions",
    "CampaignReport",
    "FailureKind",
    "ResultStore",
    "RetryPolicy",
    "TaskFailure",
    "available_cpus",
    "campaign_obs_report",
    "run_campaign",
    "task_fingerprint",
]
