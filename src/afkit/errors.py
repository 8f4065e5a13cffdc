"""Exception taxonomy for the library.

Every error raised on purpose derives from AfkitError so callers (and the
CLI) can separate expected input problems from genuine bugs. A raised
InvariantViolationError is always a bug report: it means a proven theorem
conclusion failed on input that satisfied the hypotheses.
"""


class AfkitError(Exception):
    """Base class for all library errors."""


class FormatError(AfkitError):
    """Malformed serialized input: rational literals, JSON payloads."""


class DimensionMismatchError(AfkitError):
    """Objects with incompatible shapes or dimensions were combined."""


class SizeLimitError(AfkitError):
    """An input exceeds a documented size or budget limit."""


class HypothesisError(AfkitError):
    """An input fails the hypothesis of the theorem being checked."""


class NotBigError(HypothesisError):
    """A class required to be nef and big is not."""


class InvariantViolationError(AfkitError):
    """A mathematically guaranteed conclusion failed; internal bug."""


def _expect(items, cls, what) -> None:
    """Raise TypeError unless every item is a cls; `what` names one, article included."""
    for x in items:
        if not isinstance(x, cls):
            raise TypeError(f"expected {what}, got {type(x).__name__}")
