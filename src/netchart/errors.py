"""Exception types shared across the package."""


class NetchartError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(NetchartError):
    """A model-level rule was broken (bad reference, bad precondition)."""


class MembershipError(ModelError):
    """An element was passed to a net that does not contain it."""


class DuplicateIdError(ModelError):
    """An id is already taken within the model."""


class PreconditionError(ModelError):
    """An operation was called with arguments that violate its contract."""


class TreeError(ModelError):
    """A statechart containment rule was broken (AND/OR/Basic alternation)."""


class ValidationError(ModelError):
    """A model failed validation; carries the individual violations."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class ParseError(NetchartError):
    """A document could not be parsed (syntax level, with position if known)."""


class TraceError(NetchartError):
    """A chart and trace do not belong to the net handed to `reduce` with them."""
