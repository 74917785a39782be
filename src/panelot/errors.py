"""Exception hierarchy with stable error codes.

Every domain error carries a short machine-readable ``code`` that the CLI
prints to stderr, so scripted callers can dispatch on it without parsing
prose.
"""


class PanelotError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(PanelotError):
    code = "INVALID_INPUT"


class DuplicateIdError(ValidationError):
    code = "DUPLICATE_ID"


class InfeasibleQuotasError(ValidationError):
    """Per-feature quota sums make a panel of size k arithmetically impossible."""

    code = "INFEASIBLE_QUOTAS"


class CapExceededError(PanelotError):
    """Composition enumeration would expand past ``COMPOSITION_CAP`` rows."""

    code = "CAP_EXCEEDED"


class NoValidPanelError(PanelotError):
    code = "NO_VALID_PANEL"


class StructuralExclusionError(PanelotError):
    """Some agent lies on no valid panel, so equal-chance optimization is ill-posed."""

    code = "STRUCTURAL_EXCLUSION"


class NonCoalitionExclusionError(PanelotError):
    """A misreport structurally excluded a truthful agent."""

    code = "NONCOALITION_EXCLUSION"


class CoalitionTooLargeError(PanelotError):
    """Strict harness rejected a coalition exceeding the safe size bound."""

    code = "COALITION_TOO_LARGE"


class RestartLimitError(PanelotError):
    code = "RESTART_LIMIT"


class BudgetExceededError(PanelotError):
    code = "BUDGET_EXCEEDED"


class SolverError(PanelotError):
    code = "SOLVER_ERROR"
