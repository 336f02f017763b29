"""Exception types raised by the algebra and the pipeline engine.

Every condition that aborts an operation is a subclass of TallyError so
callers can catch the whole family at once.  Graph validation problems are
reported as data (see pipeline.Violation), not exceptions.
"""

from __future__ import annotations

from contextlib import contextmanager


class TallyError(Exception):
    """Base class for all errors raised by this package."""


class KindMismatch(TallyError):
    """Fusing monoid elements of different kinds, units or arities."""


class SchemaMismatch(TallyError):
    """A relation or record does not fit the schema an operation requires."""


class UnknownField(TallyError):
    """An operation referenced a field the schema does not declare."""


class UnknownPid(TallyError):
    """A provenance id that no source ever issued."""


class UnknownGroup(TallyError):
    """Drill-down asked for a summary group that does not exist."""


class UntagMissing(TallyError):
    """untag/strip applied to a record with an empty tag stack."""


class CollisionAfterRename(TallyError):
    """A rename would map two fields onto the same name."""


class ForbiddenFieldWrite(TallyError):
    """fmap/emap tried to overwrite an existing field."""


class FnNotTotal(TallyError):
    """A mapped function failed to produce a usable value for some record."""


class JoinColumnMissing(TallyError):
    """A join referenced a column absent from one operand."""


class MissingInput(TallyError):
    """run() got no input relation for a source, or an input that names no source."""


class InvalidGraph(TallyError):
    """run() called on a graph that has validation violations.

    violations holds every pipeline.Violation that validate() reported, so
    callers can render them without validating a second time.
    """

    def __init__(self, message: str, violations: tuple):
        super().__init__(message)
        self.violations = tuple(violations)

    def __reduce__(self):
        # pickling rebuilds from args alone by default, which drops violations
        return type(self), (self.args[0], self.violations)


class ExprTypeError(TallyError, TypeError):
    """A relational expression is ill-typed; message carries the node path."""


@contextmanager
def malformed(entry: str):
    """Turn a missing key or a wrong shape in one document entry into a ValueError."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"malformed {entry}: {detail}") from exc
