"""Exception types shared across the toolkit."""


class LogstabError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LogstabError):
    """Arrays passed as arguments have incompatible or non-square shapes.

    That covers x0, states, weights and matrices handed to a function. The
    output of a user-supplied callable with the wrong shape is an
    EvaluationError instead.
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

    ``errors`` lists every (line, message) pair found when the parser could
    keep scanning past the first problem.
    """

    def __init__(self, message, line=None, errors=None):
        if errors:
            message = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in errors)
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.errors = list(errors) if errors else ([(line, message)] if line else [(None, message)])
