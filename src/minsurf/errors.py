"""Exception types shared across the library."""


class MinsurfError(Exception):
    """Base class for all library-specific errors."""


class DegenerateInputError(MinsurfError, ValueError):
    """Input is structurally degenerate (zero polynomial, empty datum, ...)."""


class ZeroFunctionError(MinsurfError, ValueError):
    """Operation undefined for the identically-zero function."""


class EvaluationNearSingularityError(MinsurfError, ValueError):
    """Requested evaluation point is at or within clearance of a puncture."""


class NonRealResidueError(MinsurfError, ValueError):
    """A residue of the form is not real: the immersion is not single-valued."""


class ParseError(MinsurfError, ValueError):
    """Malformed input document. Carries line/column when available."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class DatumRejectedError(MinsurfError, ValueError):
    """Validation rejected a datum: one message naming its source and every
    failed check; ``checks`` keeps the checks' messages."""

    def __init__(self, source, checks):
        self.checks = tuple(checks)
        super().__init__(f"{source}: datum rejected: {'; '.join(self.checks)}")


class InternalConsistencyError(MinsurfError, RuntimeError):
    """Quantities that must agree mathematically disagree beyond tolerance."""


class NumericInstabilityError(MinsurfError, RuntimeError):
    """A numerical procedure produced unstable or contradictory results."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceFailureError(MinsurfError, RuntimeError):
    """Iteration budget exhausted, or a numeric witness without a finite value."""


class UsageError(MinsurfError, ValueError):
    """A parameter outside its documented range (the CLI exits 2)."""


class MeshBudgetError(MinsurfError):
    """A requested mesh would exceed the node budget."""


class MeshTopologyError(MinsurfError):
    """The parameter domain cannot be triangulated without a hole."""
