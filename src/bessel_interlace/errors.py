"""Exception types with machine-readable error codes.

Every library error carries a ``code`` string so callers (including the
CLI) can branch on failures without parsing messages.
"""

from __future__ import annotations

__all__ = ["BesselInterlaceError", "DomainError", "BracketError", "ConvergenceError", "SearchError"]


class BesselInterlaceError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class DomainError(BesselInterlaceError):
    """Input outside the supported domain.

    Codes: DOMAIN_NU, OVERFLOW_NU (an order above NU_MAX), DOMAIN_EPS (also
    nu + eps above NU_MAX), DOMAIN_X, DOMAIN_S, DOMAIN_KIND (also from
    ZeroId), DOMAIN_PAIR, DOMAIN_SUITE, DOMAIN_N; from the CLI,
    DOMAIN_GRID and DOMAIN_MU. Each message names the input at fault.
    """

    code = "DOMAIN"


class BracketError(BesselInterlaceError):
    """No sign-change bracket found within the scan budget (BRACKET_NOT_FOUND)."""

    code = "BRACKET_NOT_FOUND"


class ConvergenceError(BesselInterlaceError):
    """Root refinement did not converge (NO_CONVERGENCE)."""

    code = "NO_CONVERGENCE"


class SearchError(BesselInterlaceError):
    """A search finished without the requested witness.

    Codes: NOT_FOUND_WITHIN_CAP (breaking rank cap too small),
    ONLY_ONE_ORDERING (counterexample scan saw a single ordering).
    """

    code = "SEARCH"
