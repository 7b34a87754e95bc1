"""Exception hierarchy and source-location data shared across the package."""

from __future__ import annotations

from .values import Value


class PolicyEngineError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidInputError(PolicyEngineError, ValueError):
    """A value outside an operation's declared domain."""


class SourceSpan(Value):
    """Byte range plus line/column of the start, for diagnostics."""

    start: int
    end: int
    line: int
    column: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise InvalidInputError(f"span start {self.start} past end {self.end}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def check_type(value: object, field: str, kind: type) -> None:
    """Refuse a field that is not a ``kind``, naming the value's class
    and the field: a list where a tuple belongs, or None where a target
    does, would build a value that fails later, and far away."""
    got = getattr(value, field)
    if not isinstance(got, kind):
        raise InvalidInputError(
            f"{type(value).__name__}.{field} must be a {kind.__name__}, not {type(got).__name__}"
        )


class _LocatedError(PolicyEngineError):
    """An error that may carry a source location, printed before the
    message as ``line:column``."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is None:
            return self.message
        return f"{self.span}: {self.message}"


class UnknownCombinerError(_LocatedError):
    """A combining-algorithm id that is not registered; read from a
    document, it carries the span of the offending token."""


class EncodingUnsupportedError(PolicyEngineError):
    """A combiner requested under an encoding it is not defined for."""


class UnsupportedCombinerError(PolicyEngineError):
    """A combiner the selected logic backend has no formulation of."""


class UnknownLatticeError(PolicyEngineError):
    """A lattice name outside the exportable set."""


class UnboundVariableError(PolicyEngineError):
    """A comparison variable that no atom of the same condition binds."""


class ParseError(_LocatedError):
    """Malformed DSL input; carries the offending source location."""


class ArityError(ParseError):
    """A construct with fewer members than the grammar requires."""


class EmptyRequestError(ParseError):
    """A request with no attribute facts."""
