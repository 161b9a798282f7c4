"""Exception hierarchy for the library.

Every error carries a stable ``code`` string (used by the CLI error report)
and an optional ``witness`` payload identifying what failed: basis indices
for an associativity violation, the rank deficit of a degenerate trace, and
so on.  ``ParseError`` means malformed input text or JSON; everything else
is a mathematical or structural validation failure.
"""

from __future__ import annotations


class FrobstabError(Exception):
    """Base class; `code` is machine-readable, `witness` optional evidence."""

    code = "Error"

    def __init__(self, message: str = "", witness=None):
        super().__init__(message or self.code)
        self.witness = witness


class ParseError(FrobstabError):
    code = "ParseError"


class NotPrime(FrobstabError):
    code = "NotPrime"


class DivisionByZero(FrobstabError, ZeroDivisionError):
    code = "DivisionByZero"


class FieldMismatch(FrobstabError):
    code = "FieldMismatch"


class DimensionMismatch(FrobstabError):
    code = "DimensionMismatch"


class IndexOutOfRange(FrobstabError, IndexError):
    code = "IndexOutOfRange"


class NotASubspace(FrobstabError):
    code = "NotASubspace"


class NotAssociative(FrobstabError):
    code = "NotAssociative"


class UnitMismatch(FrobstabError):
    code = "UnitMismatch"


class DegenerateTrace(FrobstabError):
    code = "DegenerateTrace"


class DualityViolation(FrobstabError):
    code = "DualityViolation"


class CentralityViolation(FrobstabError):
    code = "CentralityViolation"


class NonInvertibleTwist(FrobstabError):
    code = "NonInvertibleTwist"


class NotAModule(FrobstabError):
    code = "NotAModule"


class NotALinearMap(FrobstabError):
    code = "NotALinearMap"


class EmbeddingNotInjective(FrobstabError):
    code = "EmbeddingNotInjective"


class NotInvariant(FrobstabError):
    code = "NotInvariant"


class AlgebraMismatch(FrobstabError):
    code = "AlgebraMismatch"


class IdealClosureViolation(FrobstabError):
    code = "IdealClosureViolation"


class BudgetExceeded(FrobstabError):
    code = "BudgetExceeded"


class NotAGroup(FrobstabError):
    code = "NotAGroup"


class NotAGroupAlgebra(FrobstabError):
    code = "NotAGroupAlgebra"
