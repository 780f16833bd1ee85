"""Exception types shared across the package."""


class TorikaError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedGroupError(TorikaError):
    """A multiplication table fails the group axioms."""


class MalformedSubgroupError(TorikaError):
    """An element subset is not closed under the group operations."""


class UnsupportedGroupError(TorikaError):
    """An operation was asked for a group shape it does not handle."""


class IncompatibleModulesError(TorikaError):
    """Two modules (or a map between them) do not fit together."""


class ResourceLimitError(TorikaError):
    """A computation would exceed the configured size limits.  `refusal`
    says what is too large; `limit` ("order" or "rank") names the limit
    that the caller can raise, and the message how, or is None."""

    def __init__(self, refusal, limit=None):
        self.refusal, self.limit = refusal, limit
        super().__init__(refusal + (f"; raise it with {limit}_limit= or torika "
                                    f"cohomology --{limit}-limit" if limit else ""))


class NotInFanError(TorikaError):
    """A cone was passed that does not belong to the fan."""


class NotDescendableError(TorikaError):
    """The requested piece of structure is not stable under the group."""


class FanValidationError(TorikaError):
    """A fan failed validation; carries the full problem list."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid fan: " + "; ".join(self.problems))


class DatumError(TorikaError):
    """An input document could not be parsed or checked."""


class StageError(TorikaError):
    """A report stage failed; wraps the original error with its stage name."""

    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"{stage}: {original}")
