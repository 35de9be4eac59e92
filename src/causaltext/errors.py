"""Exception types shared across the toolkit."""


class CausaltextError(Exception):
    """Base class for every error raised by this package."""


class BoundsError(CausaltextError, ValueError):
    """An index, node count, or size parameter is outside its allowed range."""


class CycleError(CausaltextError, ValueError):
    """An edge set that must be acyclic contains a directed cycle."""


class PdagError(CausaltextError, ValueError):
    """A matrix does not satisfy the partially-directed-graph encoding contract."""


class UnknownVariableError(CausaltextError, LookupError):
    """A variable mention does not resolve against the variable table."""


class ConsistencyError(CausaltextError, ValueError):
    """Statements contradict each other or an input admits no consistent model."""


class PremiseParseError(CausaltextError, ValueError):
    """One or more sentences of a premise could not be parsed.

    ``problems`` holds ``(start, end, message)`` tuples with character offsets
    into the original text.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"[{s}:{e}] {msg}" for s, e, msg in self.problems)
        super().__init__(f"unparseable premise: {lines}")


class ConfigError(CausaltextError, ValueError):
    """A configuration value (mode flag or backend setting) is invalid."""


class CapacityError(CausaltextError, RuntimeError):
    """A sampling request exceeds the available population."""


class ResourceError(CausaltextError, RuntimeError):
    """A resource (for example a theme name bank) is too small for the request."""


class TemplateError(CausaltextError, ValueError):
    """A prompt template slot could not be filled."""


class TransportError(CausaltextError, RuntimeError):
    """All transport attempts to a backend failed."""


class BackendError(CausaltextError, RuntimeError):
    """The backend answered with a non-success status."""

    def __init__(self, status, body_excerpt=""):
        self.status = status
        self.body_excerpt = body_excerpt
        super().__init__(f"backend returned status {status}: {body_excerpt!r}")


class UsageError(CausaltextError, ValueError):
    """The caller invoked an operation with unusable arguments (empty input etc.)."""
