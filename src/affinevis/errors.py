"""Exception hierarchy and the global cell/point budget."""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 50_000_000
BUDGET_ENV_VAR = "AFFINE_VIS_BUDGET"


class AffineVisError(Exception):
    """Base class for all library errors."""


class SingularInputError(AffineVisError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class NotContractiveError(AffineVisError):
    """An affine map violates the contraction requirement alpha1 < 1."""


class ParseError(AffineVisError):
    """Malformed IFS configuration file."""


class BadSymbolError(AffineVisError):
    """Word symbol outside the range 1..kappa."""


class BudgetError(AffineVisError):
    """Cell/point/word budget exceeded; the requested resolution is too fine."""


class NoConeError(AffineVisError):
    """No invariant cone was certified (not a disproof), or a given cone fails
    a requirement of the check."""


class ImproperConeError(AffineVisError):
    """Cone half-width outside (0, pi/2)."""


class NoGapError(AffineVisError):
    """Image intervals touch or overlap; no porosity gap exists."""


class ExceptionalDirectionError(AffineVisError):
    """Direction carrier too close to the limit-orientation cover."""


class DirectionInConeError(AffineVisError):
    """Sight direction not angularly separated from the direction set."""


class EmptyCylinderViewError(AffineVisError):
    """Magnified cylinder does not meet the unit-ball window."""


class NoExitError(AffineVisError):
    """Approximating rectangle too short: no short side leaves the unit ball."""


class TooFewScalesError(AffineVisError):
    """Dimension fit needs at least four scales."""


class UnknownScenarioError(AffineVisError):
    """Scenario name not in the built-in registry."""


# the innermost budget_scope's budget; None outside every scope
_SCOPED: ContextVar[int | None] = ContextVar("affinevis_budget", default=None)


def _budget_value(raw: int | str, source: str) -> int:
    """``raw`` as an int budget; not a finite number >= 1 raises ValueError
    naming ``source``."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value >= 1):
        raise ValueError(f"budget {raw!r} from {source} must be a finite number >= 1")
    return int(value)


@contextmanager
def budget_scope(budget: int | str | None) -> Iterator[None]:
    """Make ``budget`` the active budget inside the block; None keeps the
    budget already active.  It takes the spellings AFFINE_VIS_BUDGET takes,
    and one that is not a finite number >= 1 raises ValueError on entry.
    The enclosing budget is restored on exit, also on an exception."""
    if budget is None:
        yield
        return
    token = _SCOPED.set(_budget_value(budget, "the budget argument"))
    try:
        yield
    finally:
        _SCOPED.reset(token)


def budget_limit() -> int:
    """Active budget: the innermost budget_scope, else AFFINE_VIS_BUDGET, else
    DEFAULT_BUDGET.  Every cap reads it here.

    An AFFINE_VIS_BUDGET that is not a finite number >= 1 raises ValueError
    naming the variable.
    """
    scoped = _SCOPED.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    return _budget_value(raw, BUDGET_ENV_VAR)
