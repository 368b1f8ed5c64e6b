"""Exception taxonomy shared across the pipeline."""


class AptStageError(Exception):
    """Base class for all errors raised by this package."""


class TelemetryParseError(AptStageError):
    """A telemetry line could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(AptStageError):
    """A record or config violates a declared invariant."""


class GraphConsistencyError(AptStageError):
    """An edge references an entity that was never declared."""


class FitError(AptStageError):
    """Feature fitting was asked to operate on an unusable corpus."""


class DimensionError(AptStageError):
    """Array shapes do not line up with the configured dimensions."""


class ParamRegistryError(AptStageError):
    """Duplicate or unknown parameter name in a parameter store."""


class TrainingError(AptStageError):
    """A training loop received unusable input (e.g. empty corpus)."""


class MetricError(AptStageError):
    """A metric is undefined for the given input."""


class InputError(AptStageError):
    """Mismatched or insufficient evaluation input."""


class DependencyError(AptStageError):
    """A pipeline stage is missing an upstream artifact."""


class CompatibilityError(AptStageError):
    """Artifact hashes disagree (checkpoint vs feature spec vs config)."""
