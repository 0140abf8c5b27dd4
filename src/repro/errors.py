"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TaxonomyError(ReproError):
    """A bug label violates the taxonomy (unknown tag, >1 tag per dimension,
    or an inconsistent sub-category)."""


class TrackerError(ReproError):
    """Invalid operation against an issue-tracker substrate."""


class CorpusError(ReproError):
    """Corpus generation or (de)serialization failure."""


class NotFittedError(ReproError):
    """A model was used before ``fit`` was called."""


class CodeModelError(ReproError):
    """Malformed code model handed to the smell analyzer."""


class VersionError(ReproError):
    """Unparseable version string or invalid version range."""


class StaticAnalysisError(ReproError):
    """sdnlint could not load or analyze a source path."""


class SimulationError(ReproError):
    """Invalid simulator configuration or runtime misuse."""


class ConfigurationError(SimulationError):
    """A controller configuration failed validation (this is the *well
    behaved* path; injected faults bypass validation on purpose)."""


class InjectionError(ReproError):
    """A fault specification cannot be applied to the given scenario."""


class ScheduleError(ReproError):
    """A fault schedule (or one of its events) is malformed: unknown action,
    missing or non-numeric field, bad JSON shape, or an event before t=0."""


class FuzzError(ReproError):
    """Invalid fuzzing-campaign configuration, or a resume that cannot be
    honored against the journal/corpus on disk."""


class FrameworkError(ReproError):
    """Unknown fault-tolerance framework or invalid capability query."""


class ResilienceError(ReproError):
    """Invalid resilience-policy configuration or misuse."""


class BulkheadFullError(ResilienceError):
    """A bulkhead rejected a call because its concurrency cap is reached."""


class CircuitOpenError(ResilienceError):
    """A circuit breaker rejected a call while open."""


class ObservabilityError(ReproError):
    """Invalid metric registration, malformed metrics export, or a
    trajectory/gate configuration that cannot be evaluated."""


class TrajectoryGateError(ObservabilityError):
    """A benchmark trajectory check found a regression beyond tolerance."""


class StreamError(ReproError):
    """Malformed stream event, invalid ingest configuration, or a stream
    state snapshot that cannot be honored."""


class TransientSourceError(StreamError):
    """A fetch against an event source failed in a retryable way."""


class SourceOutageError(TransientSourceError):
    """The upstream tracker was unreachable for this fetch attempt."""


class RateLimitedError(TransientSourceError):
    """The upstream tracker throttled this fetch attempt.

    ``retry_after`` carries the server's requested backoff in simulated
    seconds; retry loops honor it as a floor under their own schedule.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServingError(ReproError):
    """Invalid serving-daemon configuration or request."""


class BackendError(ServingError):
    """A serving backend failed to execute a request (the retryable class)."""


class PoisonRequestError(BackendError):
    """A request whose payload deterministically crashes the backend."""
