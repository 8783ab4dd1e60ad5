"""Exception hierarchy and the global cell/point budget."""

from __future__ import annotations

import math
import os

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


class ConeNotFoundError(AffineVisError):
    """No invariant-cone certificate found at the searched depth (not a disproof)."""


class NoConeError(AffineVisError):
    """Supplied cone fails the invariance requirement."""


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


class StreamExhaustedError(AffineVisError):
    """Symbol stream ended before the requested prefix length."""


class TooFewScalesError(AffineVisError):
    """Dimension fit needs at least four scales."""


class UnknownScenarioError(AffineVisError):
    """Scenario name not in the built-in registry."""


def budget_limit(override: int | None = None) -> int:
    """Active budget: explicit override, else AFFINE_VIS_BUDGET, else the default.

    A budget that is not a finite number >= 1 raises ValueError naming its source.
    """
    if override is not None:
        raw, source = override, "the budget argument"
    else:
        raw, source = os.environ.get(BUDGET_ENV_VAR), BUDGET_ENV_VAR
        if not raw:
            return DEFAULT_BUDGET
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value >= 1):
        raise ValueError(f"budget {raw!r} from {source} must be a finite number >= 1")
    return int(value)
