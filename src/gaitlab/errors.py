"""Exception types shared across the package, and the argument checks that raise them.

``check_finite``, ``check_nonnegative``, ``check_count`` and ``check_vector``
are the argument checks every module shares; each raises InvalidInputError
naming the argument.
"""

import math
import numbers

import numpy as np


class GaitlabError(Exception):
    """Base class for all gaitlab errors."""


class InvalidInputError(GaitlabError, ValueError):
    """An argument violates a documented precondition."""


class OutOfReachError(GaitlabError, ValueError):
    """An inverse-kinematics target lies outside the reachable annulus."""


class ConfigurationError(GaitlabError):
    """A config file or rule set is malformed or inconsistent."""


class DegenerateDataError(GaitlabError, ValueError):
    """Input data does not determine the requested fit."""


class DegenerateComponentError(GaitlabError, ValueError):
    """A connected component has no usable mass."""


class BehindCameraError(GaitlabError, ValueError):
    """A point to be projected has non-positive camera depth."""


class NumericalConditioningError(GaitlabError, RuntimeError):
    """A linear system stayed non-positive-definite after jitter escalation."""


class NonFiniteStateError(GaitlabError, ArithmeticError):
    """A closed-loop run produced a NaN or infinite plant state."""


class BudgetExhaustedError(GaitlabError, RuntimeError):
    """The optimizer was asked to select a point with no budget left."""


def check_finite(name: str, value) -> float:
    """``value`` as a float; raises InvalidInputError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def check_nonnegative(name: str, value: float, positive: bool = False) -> None:
    """Raise InvalidInputError unless value is finite and >= 0 (> 0 if positive)."""
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        raise InvalidInputError(
            f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value}"
        )


def check_count(name: str, value, low: int = 0, ceiling: int | None = None) -> None:
    """Raise InvalidInputError unless value is an integer, not a bool, in [low, ceiling]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    if ceiling is not None and value > ceiling:
        raise InvalidInputError(f"{name} must be <= {ceiling}, got {value}")


def check_vector(name: str, v, size: int | None = 3, kind: str | None = None) -> np.ndarray:
    """``v`` as a 1-D float array; raises InvalidInputError unless its entries
    are finite and, unless ``size`` is None, number ``size``.

    The message says what ``v`` must be: ``kind``, by default "a finite
    <size>-vector".
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or size not in (None, len(v)) or not all(map(math.isfinite, v.tolist())):
        kind = kind or f"a finite {size}-vector"
        raise InvalidInputError(f"{name} must be {kind}, got {v.tolist()}")
    return v
