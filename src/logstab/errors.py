"""Exception types shared across the toolkit, and the one statement of each argument rule.

Each rule raises InvalidInputError naming the argument, and NaN fails each
test: ``check_count`` (an integer, not a bool, no less than 1 or the stated
least), ``check_window`` (finite lo < hi), ``check_positive`` (a real number
> 0, not a bool, finite unless the caller allows inf), ``read_number`` (text
that reads as a finite number), ``check_array`` (real entries, finite unless
a caller tests NaN itself; DimensionError unless of the stated shape) and
``linalg.NormKind.check_fits`` (DimensionError unless a weight is n x n).
"""

import math
import numbers

import numpy as np


class LogstabError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LogstabError):
    """Arrays passed as arguments have incompatible or non-square shapes.

    That covers x0, states, pairs, targets, domain bounds, times, weights and
    matrices handed to a function (see ``check_array``). The output of a
    user-supplied callable with the wrong shape is an EvaluationError instead.
    """


class SymmetryError(LogstabError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class InvalidNormError(LogstabError):
    """A norm kind is malformed, e.g. a weight matrix that is not SPD."""


class InvalidInputError(LogstabError):
    """An argument violates a documented precondition."""


class EvaluationError(LogstabError):
    """A user-supplied callable returned non-numeric, mis-shaped or non-finite output.

    The callables are f, its Jacobian (analytic, or finite differences of f),
    delta(t), a rate alpha(t) and a matrix A(t). The message names the
    callable and where it was evaluated (see ``system``). ``x`` is the state,
    None for a whole stack of states or for a callable of t alone; ``t`` is
    the time.
    """

    def __init__(self, message, x=None, t=None):
        super().__init__(message)
        self.x = x
        self.t = t


class DivergedError(LogstabError):
    """Integration failed: blow-up or step budget exhausted.

    ``last_time`` is the last time at which a finite state was available.
    """

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


class ConditioningError(LogstabError):
    """A matrix inverse was requested but the matrix is numerically singular."""


class InvalidRateError(LogstabError):
    """A rate function alpha(t) is non-positive where positivity is required."""


class ConfigError(LogstabError):
    """Scenario configuration is malformed; carries line information when known.

    ``errors`` lists the (line, message) pairs, each message without its line
    prefix: every problem found when the parser could keep scanning past the
    first one, else the one problem.
    """

    def __init__(self, message, line=None, errors=None):
        self.line = line
        self.errors = list(errors) if errors else [(line, message)]
        super().__init__("; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors))


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an int; InvalidInputError naming it unless it is an integer >= least (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_window(lo, hi, lo_name: str = "t0", hi_name: str = "tf") -> None:
    """InvalidInputError unless lo < hi are both finite; the message calls them ``lo_name`` and ``hi_name``."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidInputError(f"need finite {lo_name} < {hi_name}, got [{lo}, {hi}]")


def check_positive(value, name: str, allow_inf: bool = False) -> float:
    """``value`` as a float; InvalidInputError naming it unless it is a number > 0, finite unless ``allow_inf``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        value > 0.0 and (allow_inf or math.isfinite(value))
    ):
        raise InvalidInputError(f"{name} must be a {'' if allow_inf else 'finite '}positive number, got {value!r}")
    return float(value)


def read_number(text: str, where: str = "") -> float:
    """The finite number ``text`` reads as; otherwise InvalidInputError quoting the text after ``where``, if given."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        prefix = f"{where}: " if where else ""
        raise InvalidInputError(f"{prefix}{text!r} is not {'a' if value is None else 'a finite'} number")
    return value


_FLOAT = np.dtype(float)
_KINDS = {"c": "complex", "U": "text", "S": "text"}  # dtype kinds that are not real, by name


def check_array(value, name: str, shape: tuple | None = None, finite: bool = True) -> np.ndarray:
    """``value`` as a float array of ``shape`` (None matches any shape, and None in it any length).

    InvalidInputError naming it unless every entry is real (a bool, integer or float; not complex, text, an object
    or a ragged nesting) and, with ``finite``, finite; DimensionError unless the shape fits.
    """
    arr = value
    if type(arr) is not np.ndarray or arr.dtype is not _FLOAT:  # a float64 ndarray, as each sample is, passes as it is
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{name} must hold real numbers, got a ragged nesting") from None
        if not np.can_cast(arr.dtype, _FLOAT, "same_kind"):
            raise InvalidInputError(f"{name} must hold real numbers, got {_KINDS.get(arr.dtype.kind, arr.dtype)} entries")
        arr = arr.astype(_FLOAT, copy=False)
    if shape is not None and arr.shape != shape and (
        arr.ndim != len(shape) or any(k not in (None, m) for k, m in zip(shape, arr.shape))
    ):
        raise DimensionError(f"{name} has shape {arr.shape}, expected {str(shape).replace('None', 'N')}")
    if finite and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return arr
