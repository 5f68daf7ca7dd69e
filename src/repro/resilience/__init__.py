"""Operational resilience: fault injection, degraded mode, retry/fallback.

The paper's survivability constraints (§3.3) make the *selected* link set
tolerate failures on paper; this package makes the running system tolerate
them in practice:

- :mod:`repro.resilience.policy` — retry with exponential backoff +
  jitter, a circuit breaker, and the MILP→heuristic fallback used to
  clear auctions under solver stalls.
- :mod:`repro.resilience.controller` — the degraded-mode POC controller:
  reroute demand over surviving selected links when a link fails
  mid-epoch, defer re-auction to the next round.
- :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness and end-to-end survivability campaigns (``poc-repro chaos``).
- :mod:`repro.resilience.supervisor` — trial execution for every sweep,
  in-process or on a worker pool: per-trial deadlines, a hang watchdog,
  crashed-worker respawn, and poison-trial quarantine.
- :mod:`repro.resilience.netfaults` — a seeded TCP fault proxy (drop,
  delay, truncate, duplicate, reset) for breaking the service's wire.
"""

from repro.resilience.chaos import (
    CampaignReport,
    ChaosConfig,
    FaultEvent,
    ScenarioResult,
    injected_link_faults,
    micro_scenario,
    plan_campaign,
    run_campaign,
)
from repro.resilience.controller import DegradedModeController, DegradedState
from repro.resilience.netfaults import FAULT_KINDS, FaultProxy, NetFaultConfig
from repro.resilience.policy import (
    CircuitBreaker,
    ClearingProvenance,
    ResilientAuctioneer,
    RetryPolicy,
    call_with_retry,
)
from repro.resilience.supervisor import (
    IncidentRecord,
    QuarantineLog,
    SupervisionOutcome,
    TrialSupervisor,
    format_incidents,
)

__all__ = [
    "CampaignReport",
    "ChaosConfig",
    "CircuitBreaker",
    "ClearingProvenance",
    "DegradedModeController",
    "DegradedState",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultProxy",
    "NetFaultConfig",
    "IncidentRecord",
    "QuarantineLog",
    "ResilientAuctioneer",
    "RetryPolicy",
    "ScenarioResult",
    "SupervisionOutcome",
    "TrialSupervisor",
    "call_with_retry",
    "format_incidents",
    "injected_link_faults",
    "micro_scenario",
    "plan_campaign",
    "run_campaign",
]
