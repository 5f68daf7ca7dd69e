"""Exception hierarchy for the POC reproduction library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystem-specific
subclasses make it possible to distinguish *why* an operation failed without
parsing message strings.
"""

from __future__ import annotations

from typing import Sequence


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """A topology is malformed or an operation on it is invalid."""


class UnknownNodeError(TopologyError):
    """A node id was referenced that does not exist in the network."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class UnknownLinkError(TopologyError):
    """A link id was referenced that does not exist in the network."""

    def __init__(self, link_id: object) -> None:
        super().__init__(f"unknown link: {link_id!r}")
        self.link_id = link_id


class DuplicateIdError(TopologyError):
    """An id was added twice to a container that requires uniqueness."""


class TrafficError(ReproError):
    """A traffic matrix is malformed or inconsistent with a topology."""


class FlowError(ReproError):
    """A flow computation failed (infeasible input, solver failure...)."""


class InfeasibleError(FlowError):
    """The requested traffic cannot be carried by the given links."""


class SolverTimeoutError(FlowError):
    """An exact solver hit its time limit without producing a usable answer.

    Distinct from :class:`InfeasibleError`: the instance may well be
    feasible, the solver just ran out of budget.  The resilience layer
    catches this to fall back to a heuristic engine.
    """

    def __init__(self, solver: str, limit_s: float, detail: str = "") -> None:
        msg = f"{solver} exceeded its {limit_s:g}s time limit"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.solver = solver
        self.limit_s = limit_s


class AuctionError(ReproError):
    """The auction received malformed bids or could not clear."""


class NoFeasibleSelectionError(AuctionError):
    """No subset of the offered links satisfies the POC's constraints."""


class BidError(AuctionError):
    """A bandwidth provider's bid is malformed."""


class ProviderDropoutError(AuctionError):
    """A bandwidth provider vanished mid-round.

    Raised when round logic references a BP that has withdrawn (or was
    quarantined) between bidding and activation.  The resilience layer
    catches this to re-clear the round without the dropped provider.
    """

    def __init__(self, provider: str, detail: str = "") -> None:
        msg = f"provider {provider!r} dropped out mid-round"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.provider = provider


class EconError(ReproError):
    """An economic-model computation received invalid parameters."""


class DemandError(EconError):
    """A demand curve is malformed (negative, non-monotone...)."""


class BargainingError(EconError):
    """A Nash-bargaining computation has no valid agreement region."""


class MarketError(ReproError):
    """The agent-based market simulator was misconfigured."""


class LedgerError(MarketError):
    """A ledger operation would violate double-entry invariants."""


class PolicyError(ReproError):
    """An interdomain routing policy is invalid or inconsistent."""


class ObservabilityError(ReproError):
    """The observability layer was misused or fed unusable telemetry.

    Covers non-finite metric values (snapshots serialize with
    ``allow_nan=False``, so they are rejected at the mutator), histogram
    bucket mismatches, unbalanced span stacks, and corrupt or empty
    metrics/trace JSONL handed to the ``perf`` aggregator.
    """


class ServiceError(ReproError):
    """The online POC service was misused or reached an unservable state.

    Covers submitting to a daemon that was never started, unknown request
    kinds, malformed snapshot payloads, and a virtual-clock run that
    deadlocks (every task blocked with no timer pending).
    """


class JournalError(ServiceError):
    """The service's write-ahead journal is unusable or corrupt.

    Covers missing journal files, checksum mismatches anywhere but the
    final (torn) line, sequence gaps, unknown record kinds, and appends
    to a closed journal.  A torn tail alone is *not* an error — it is
    the expected signature of ``kill -9`` and is dropped on replay.
    """


class TransportError(ServiceError):
    """The socket transport failed to deliver a request or response.

    Covers oversized/malformed frames, connections that die mid-request,
    servers that answer with an error frame, and a client whose deadline
    budget is exhausted before any endpoint produced a terminal answer.
    """

    def __init__(self, detail: str, *, retryable: bool = False) -> None:
        super().__init__(detail)
        self.retryable = retryable


class SweepError(ReproError):
    """A parameter sweep is misconfigured or its artifacts are inconsistent.

    Covers malformed :class:`~repro.sweeps.spec.SweepSpec` inputs, unknown
    experiment names, trial functions returning non-records, and result
    stores that do not match the sweep being resumed.
    """


class TrialTimeoutError(SweepError):
    """A sweep trial exceeded its per-trial wall-clock deadline.

    Raised worker-side by the supervisor's alarm when a trial overruns
    its budget; the parent-side watchdog raises it on the trial's behalf
    when the worker is so stuck it cannot even raise (a C-level hang).
    """

    def __init__(self, index: int, limit_s: float, detail: str = "") -> None:
        msg = f"trial {index} exceeded its {limit_s:g}s deadline"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.index = index
        self.limit_s = limit_s


class WorkerCrashError(SweepError):
    """A sweep worker process died while executing a trial.

    Covers segfaults, OOM kills, ``os._exit`` from buggy trial code, and
    watchdog kills of hung workers.  The supervisor respawns the worker
    (within its respawn budget) and retries or quarantines the trial.
    """

    def __init__(self, index: int, exitcode: object, detail: str = "") -> None:
        msg = f"worker died (exitcode={exitcode}) while running trial {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.index = index
        self.exitcode = exitcode


class SweepInterrupted(SweepError):
    """A sweep was stopped by SIGINT/SIGTERM.

    Raised *after* the supervisor has drained in-flight results and
    flushed the checkpoint, so the store and checkpoint on disk are
    consistent and the sweep is resumable.
    """


class ScenarioError(ReproError):
    """A scenario pack is malformed, unresolvable, or inconsistent.

    Covers schema violations in pack JSON, unknown pack names, override
    arguments that do not parse, and archive directories whose recorded
    pack does not match the one being (re-)run.
    """


class ArchiveError(ScenarioError):
    """A run archive is missing pieces, tampered with, or unreadable.

    Raised by the archive verifier when stored trial keys no longer match
    their content, when the stored aggregates cannot be recomputed
    byte-identically from the result store, or when the manifest and the
    pack spec disagree.
    """


class ReproduceMismatch(ScenarioError):
    """A re-execution failed to reproduce an archive byte-identically.

    The archive's stored aggregates and the fresh run's aggregates
    differ — either the environment drifted (code version, dependency
    numerics) or the archive was edited.  Carries both serialized
    aggregate payloads for diffing.
    """

    def __init__(self, context: str, expected: str, actual: str) -> None:
        super().__init__(
            f"{context}: re-executed aggregates are not byte-identical "
            f"to the archived ones"
        )
        self.expected = expected
        self.actual = actual


class InvariantViolation(ReproError):
    """A machine-checked contract of the reproduction failed.

    Carries the individual :class:`~repro.validate.invariants.Violation`
    records so callers can report exactly which economic or flow
    invariant broke (VCG budget balance, individual rationality,
    non-negative Clarke pivots, flow conservation, finiteness...).
    """

    def __init__(self, context: str, violations: Sequence[object]) -> None:
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{context}: {len(violations)} invariant violation(s): {lines}")
        self.context = context
        self.violations = tuple(violations)


class NeutralityViolation(ReproError):
    """An LMP action violates the POC terms-of-service (Section 3.4).

    Raised (or collected, depending on enforcement mode) when an LMP
    differentially treats traffic based on source, destination, or
    application, or differentially offers CDN/enhancement services.
    """

    def __init__(self, actor: str, clause: str, detail: str) -> None:
        super().__init__(f"{actor} violates ToS clause {clause}: {detail}")
        self.actor = actor
        self.clause = clause
        self.detail = detail
