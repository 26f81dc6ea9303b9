"""The argument rules of ``errors``, each run at every site that applies it.

One table per rule. A site is a call of the one argument under test, with
the name the error gives it and what else the rule needs there. A bad value
raises InvalidInputError (DimensionError for a weight that does not fit, or
an array of the wrong shape), or a ConfigError at its line in a config file,
with the rule's one message; where the site takes user callables, none of
them has been called by then.
"""

import math
import re

import numpy as np
import pytest

from logstab.certify import (
    Domain,
    SamplingPlan,
    check_demidovich,
    check_forcing_ratio,
    classify_rate_integral,
    estimate_contraction_rate,
    verify_incremental_bound,
    verify_origin_convergence,
)
from logstab.cli import main
from logstab.config import parse_config
from logstab.csvio import load_trajectory_csv, parse_matrix_text
from logstab.errors import ConfigError, DimensionError, InvalidInputError, InvalidNormError, check_array
from logstab.integrate import IntegratorConfig, Trajectory, check_transition_bounds, integrate, integrate_fundamental
from logstab.linalg import NormKind, induced_matrix_norm, solve, vec_norm
from logstab.lognorm import log_norm, log_norm_limit_table, log_norm_pair, log_norm_quadratic_form
from logstab.system import QuadratureRule, SystemSpec, averaged_jacobian, averaged_jacobian_residual, jacobian

BOX = Domain(-np.ones(2), np.ones(2), 0.0, 1.0)
PAIRS = [(np.zeros(2), np.ones(2))]
SETTLED = Trajectory(np.linspace(0.0, 1.0, 101), np.zeros((101, 2)))
L2 = NormKind.l2()


def counted(calls, value):
    """A callable of t, or of (x, t), that records each call and returns ``value``."""
    return lambda *args: calls.append(args) or value


def decay(calls):
    """x' = -x in the plane, every evaluation of f and J recorded in ``calls``."""
    return SystemSpec(dim=2, f=lambda x, t: calls.append((x, t)) or -x, jac=counted(calls, -np.eye(2)))


def rejects(error, message, call, *args):
    """``call(calls, *args)`` raises ``error`` with exactly ``message``, before it calls any callable it was given."""
    calls = []
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(calls, *args)
    assert calls == []


# site -> (call(calls, value), name, least value)
COUNT_SITES = {
    "SamplingPlan n_space": (lambda calls, v: SamplingPlan(n_space=v), "n_space", 1),
    "SamplingPlan n_time": (lambda calls, v: SamplingPlan(n_time=v), "n_time", 1),
    "SamplingPlan seed": (lambda calls, v: SamplingPlan(seed=v), "seed", 0),
    "IntegratorConfig max_steps": (lambda calls, v: IntegratorConfig(max_steps=v), "max_steps", 1),
    "check_forcing_ratio n_samples": (
        lambda calls, v: check_forcing_ratio(decay(calls), counted(calls, 1.0), 1.0, 10.0, n_samples=v),
        "n_samples",
        10,
    ),
    "verify_incremental_bound n_output": (
        lambda calls, v: verify_incremental_bound(decay(calls), PAIRS, 0.0, 1.0, 0.5, n_output=v),
        "n_output",
        1,
    ),
    "classify_rate_integral n_doublings": (
        lambda calls, v: classify_rate_integral(counted(calls, 1.0), 0.0, 8.0, n_doublings=v),
        "n_doublings",
        1,
    ),
    "check_transition_bounds n_pairs": (
        lambda calls, v: check_transition_bounds(counted(calls, -np.eye(2)), L2, 0.0, 1.0, n_pairs=v),
        "n_pairs",
        1,
    ),
    "check_transition_bounds n_states": (
        lambda calls, v: check_transition_bounds(counted(calls, -np.eye(2)), L2, 0.0, 1.0, n_states=v),
        "n_states",
        1,
    ),
    "check_transition_bounds seed": (
        lambda calls, v: check_transition_bounds(counted(calls, -np.eye(2)), L2, 0.0, 1.0, seed=v),
        "seed",
        0,
    ),
    "SystemSpec dim": (lambda calls, v: SystemSpec(dim=v, f=counted(calls, np.zeros(2))), "dim", 1),
    "QuadratureRule.gauss_legendre n": (lambda calls, v: QuadratureRule.gauss_legendre(v), "n", 1),
}

# config key -> (text with {} for the value, the key's line); a config holds text, so only a whole
# number reaches the count rule there, and any other text is not an integer
CONFIG_COUNT_SITES = {
    "[system] dim": ("[system]\ntype = expression\ndim = {}\nf1 = -x1\n", 3),
    "[sampling] n_space": ("[system]\ntype = builtin\nname = example1\n[sampling]\nn_space = {}\n", 5),
    "[sampling] seed": ("[system]\ntype = builtin\nname = example1\n[sampling]\nseed = {}\n", 5),
}


@pytest.mark.parametrize("site", list(COUNT_SITES) + list(CONFIG_COUNT_SITES))
def test_count_rule(site):
    if site in CONFIG_COUNT_SITES:
        text, line = CONFIG_COUNT_SITES[site]
        name, least = site.split()[1], 0 if site.endswith("seed") else 1
        for bad in (least - 1, least - 5):
            message = f"line {line}: {name} must be an integer >= {least}, got {bad}"
            rejects(ConfigError, message, lambda calls, v: parse_config(text.format(v)), bad)
        return
    call, name, least = COUNT_SITES[site]
    for bad in (least - 1, least - 5, 2.5, math.nan, True, np.float64(3.0), "3", None):
        rejects(InvalidInputError, f"{name} must be an integer >= {least}, got {bad!r}", call, bad)
    call([], least + 1)
    call([], np.int64(least + 1))


# site -> (call(calls, lo, hi), the names of lo and hi)
WINDOW_SITES = {
    "integrate": (lambda calls, lo, hi: integrate(decay(calls), np.ones(2), lo, hi), "t0", "tf"),
    "integrate_fundamental": (
        lambda calls, lo, hi: integrate_fundamental(counted(calls, -np.eye(2)), lo, hi),
        "t0",
        "tf",
    ),
    "check_transition_bounds": (
        lambda calls, lo, hi: check_transition_bounds(counted(calls, -np.eye(2)), L2, lo, hi),
        "t0",
        "tf",
    ),
    "check_forcing_ratio": (
        lambda calls, lo, hi: check_forcing_ratio(decay(calls), counted(calls, 1.0), lo, hi),
        "t_lo",
        "t_hi",
    ),
    "classify_rate_integral": (
        lambda calls, lo, hi: classify_rate_integral(counted(calls, 1.0), lo, hi),
        "t0",
        "horizon",
    ),
    "Domain": (lambda calls, lo, hi: Domain(-np.ones(2), np.ones(2), lo, hi), "t_lo", "t_hi"),
}


@pytest.mark.parametrize("site", WINDOW_SITES)
def test_window_rule(site):
    call, lo_name, hi_name = WINDOW_SITES[site]
    # NaN fails every comparison, so a NaN end must not pass a "hi <= lo" test
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0), (1.0, 1.0), (2.0, 1.0)):
        rejects(InvalidInputError, f"need finite {lo_name} < {hi_name}, got [{lo}, {hi}]", call, lo, hi)
    call([], 0.5, 2.0)


# site -> (call(calls, value), name, whether inf is allowed)
POSITIVE_SITES = {
    "IntegratorConfig step": (lambda calls, v: IntegratorConfig(step=v), "step", True),
    "IntegratorConfig max_step": (lambda calls, v: IntegratorConfig(max_step=v), "max_step", True),
    "IntegratorConfig rel_tol": (lambda calls, v: IntegratorConfig(rel_tol=v), "rel_tol", False),
    "IntegratorConfig abs_tol": (lambda calls, v: IntegratorConfig(abs_tol=v), "abs_tol", False),
    "verify_incremental_bound alpha0": (
        lambda calls, v: verify_incremental_bound(decay(calls), PAIRS, 0.0, 1.0, v),
        "alpha0",
        False,
    ),
    "verify_origin_convergence tol": (lambda calls, v: verify_origin_convergence(SETTLED, tol=v), "tol", False),
    "log_norm_limit_table theta": (
        lambda calls, v: log_norm_limit_table(np.eye(2), L2, [0.1, v]),
        "theta_seq[1]",
        False,
    ),
    "QuadratureRule weight": (
        lambda calls, v: QuadratureRule([0.25, 0.75], [1.0, v]),
        "quadrature weight 1",
        False,
    ),
}


@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_number_rule(site):
    call, name, allow_inf = POSITIVE_SITES[site]
    bad_values = [0.0, -1.0, math.nan, -math.inf] + ([] if allow_inf else [math.inf])
    if site != "QuadratureRule weight":  # the weights are read as one float array, so no other type reaches the rule
        bad_values += [True, "1"]
    for bad in bad_values:
        message = f"{name} must be a {'' if allow_inf else 'finite '}positive number, got {bad!r}"
        rejects(InvalidInputError, message, call, bad)
    if allow_inf:
        call([], math.inf)


def _csv(tmp_path, cell):
    path = tmp_path / "traj.csv"
    path.write_text(f"t,x1\n0,1\n1,{cell}\n")
    return load_trajectory_csv(path)


def _lognorm(capsys, text):
    """``logstab lognorm`` on matrix text: it exits 2 with nothing on stdout and one error line, raised here."""
    assert main(["lognorm", "--inline", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    raise InvalidInputError(err.strip().removeprefix("error: "))


def _tf_flag(tmp_path, capsys, text):
    """``logstab simulate --tf text``: argparse exits 2 before the run, and its last stderr line is raised here."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[system]\ntype = builtin\nname = example1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), f"--tf={text}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "out").exists()
    raise InvalidInputError(err.strip().splitlines()[-1].split("argument --tf: ", 1)[1])


# site -> (call(text, tmp_path, capsys), the message's prefix before the quoted text)
TEXT_SITES = {
    "config [integrator] rel_tol": (
        lambda text, tmp_path, capsys: parse_config(
            f"[system]\ntype = builtin\nname = example1\n[integrator]\nrel_tol = {text}\n"
        ),
        "line 5: ",
    ),
    "config [system] x0": (
        lambda text, tmp_path, capsys: parse_config(f"[system]\ntype = builtin\nname = example1\nx0 = 1, {text}\n"),
        "line 4: ",
    ),
    "load_trajectory_csv": (lambda text, tmp_path, capsys: _csv(tmp_path, text), "{tmp_path}/traj.csv: row 2: "),
    "parse_matrix_text": (lambda text, tmp_path, capsys: parse_matrix_text(f"{text} 1; 0 1"), "matrix entry: "),
    "logstab lognorm --inline": (lambda text, tmp_path, capsys: _lognorm(capsys, f"{text} 1; 0 1"), "matrix entry: "),
    "logstab simulate --tf": (lambda text, tmp_path, capsys: _tf_flag(tmp_path, capsys, text), ""),
}


@pytest.mark.parametrize("site", TEXT_SITES)
def test_number_from_text_rule(site, tmp_path, capsys):
    call, prefix = TEXT_SITES[site]
    prefix = prefix.format(tmp_path=tmp_path)
    for text, what in (
        ("nan", "a finite number"),
        ("-inf", "a finite number"),
        ("1e999", "a finite number"),
        ("abc", "a number"),
        ("1.5.2", "a number"),
    ):
        message = f"{prefix}{text!r} is not {what}"
        with pytest.raises((InvalidInputError, ConfigError), match=f"^{re.escape(message)}$"):
            call(text, tmp_path, capsys)


KIND3 = NormKind.weighted(np.diag([1.0, 2.0, 3.0]))

# site -> (call(calls) that applies a 3x3 weight in dimension 2, the most calls of its callables before it raises)
WEIGHT_SITES = {
    "log_norm": (lambda calls: log_norm(np.eye(2), KIND3), 0),
    "log_norm_pair": (lambda calls: log_norm_pair(np.eye(2), KIND3), 0),
    "log_norm_limit_table": (lambda calls: log_norm_limit_table(np.eye(2), KIND3), 0),
    "log_norm_quadratic_form": (lambda calls: log_norm_quadratic_form(np.eye(2), KIND3.weight), 0),
    "induced_matrix_norm": (lambda calls: induced_matrix_norm(np.eye(2), KIND3), 0),
    "vec_norm": (lambda calls: vec_norm(np.ones(2), KIND3), 0),
    "estimate_contraction_rate": (
        lambda calls: estimate_contraction_rate(decay(calls), BOX, KIND3, SamplingPlan(n_space=3)),
        0,
    ),
    "check_demidovich": (lambda calls: check_demidovich(decay(calls), KIND3.weight, BOX, SamplingPlan(n_space=3)), 0),
    "verify_incremental_bound": (
        lambda calls: verify_incremental_bound(decay(calls), PAIRS, 0.0, 1.0, 0.5, KIND3),
        0,
    ),
    "check_forcing_ratio": (
        lambda calls: check_forcing_ratio(decay(calls), counted(calls, 1.0), 1.0, 10.0, kind=KIND3),
        0,
    ),
    "verify_origin_convergence": (lambda calls: verify_origin_convergence(SETTLED, KIND3), 0),
    # A(t0) alone gives the dimension
    "check_transition_bounds": (
        lambda calls: check_transition_bounds(counted(calls, -np.eye(2)), KIND3, 0.0, 1.0),
        1,
    ),
}


@pytest.mark.parametrize("site", WEIGHT_SITES)
def test_weight_size_rule(site):
    call, most = WEIGHT_SITES[site]
    calls = []
    with pytest.raises(DimensionError, match=r"^weight is 3x3 but the dimension is 2$"):
        call(calls)
    assert len(calls) <= most


def _with_first(value, entry):
    """``value`` as nested lists, with its first number replaced by ``entry``."""
    nested = np.asarray(value).tolist()
    inner = nested
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = entry
    return nested


def _pairs_with(state):
    """Five initial pairs of which the last, pair 4, has ``state`` as its second state."""
    return [(np.zeros(2), np.ones(2))] * 4 + [(np.zeros(2), state)]


NO_NAN = ("text", "complex", "shape", "ragged")

# site -> (call(calls, value), name, a good value, a value of the wrong shape, its message, the bad inputs that apply)
ARRAY_SITES = {
    "as_vector_stack (vec_norm)": (
        lambda calls, v: vec_norm(v, L2),
        "vector",
        [3.0, 4.0],
        5.0,
        "expected a vector or a stack of them, got shape ()",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "as_square_stack (log_norm)": (
        lambda calls, v: log_norm(v, L2),
        "matrix",
        [[0.0, 1.0], [0.0, 0.0]],
        np.ones((2, 3)),
        "expected a square matrix or a stack of them, got shape (2, 3)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "as_square (log_norm_limit_table)": (
        lambda calls, v: log_norm_limit_table(v, L2),
        "matrix",
        [[0.0, 1.0], [0.0, 0.0]],
        np.zeros((3, 2, 2)),
        "matrix has shape (3, 2, 2), expected (N, N)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "solve right-hand side": (
        lambda calls, v: solve(np.eye(2), v),
        "right-hand side",
        [1.0, 2.0],
        np.ones(3),
        "right-hand side of shape (3,) does not fit matrices of shape (2, 2)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    # a non-finite state is judged only when an output fails (see test_system's TestNonFiniteState)
    "_check_states (jacobian)": (
        lambda calls, v: jacobian(decay(calls), v, 0.0),
        "state",
        [1.0, 2.0],
        np.ones(3),
        "state has shape (3,), system dimension is 2",
        NO_NAN,
    ),
    "averaged_jacobian x": (
        lambda calls, v: averaged_jacobian(decay(calls), np.zeros(2), v, 0.0),
        "x",
        [1.0, 2.0],
        np.ones(3),
        "x has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "averaged_jacobian_residual x_star": (
        lambda calls, v: averaged_jacobian_residual(decay(calls), v, np.ones(2), 0.0),
        "x_star",
        [1.0, 2.0],
        np.ones(3),
        "x_star has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    # a NaN node or weight fails the rule's own tests (test_positive_number_rule)
    "QuadratureRule nodes": (
        lambda calls, v: QuadratureRule(v, [0.5, 0.5]),
        "quadrature nodes",
        [0.25, 0.75],
        np.full((1, 2), 0.5),
        "quadrature nodes has shape (1, 2), expected (N,)",
        NO_NAN,
    ),
    "QuadratureRule weights": (
        lambda calls, v: QuadratureRule([0.25, 0.75], v),
        "quadrature weights",
        [0.5, 0.5],
        [1.0],
        "quadrature weights has shape (1,), expected (2,)",
        NO_NAN,
    ),
    "integrate x0": (
        lambda calls, v: integrate(decay(calls), v, 0.0, 1.0),
        "x0",
        [1.0, 2.0],
        np.ones(3),
        "x0 has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "Trajectory times": (
        lambda calls, v: Trajectory(v, np.zeros((2, 1))),
        "trajectory times",
        [0.0, 1.0],
        [[0.0, 1.0]],
        "trajectory times has shape (1, 2), expected (N,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "Trajectory states": (
        lambda calls, v: Trajectory([0.0, 1.0], v),
        "trajectory states",
        [[1.0], [2.0]],
        np.zeros((3, 1)),
        "trajectory states has shape (3, 1), expected (2, N)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    # a NaN time fails the window test of sample_times (test_integrate)
    "integrate sample_times": (
        lambda calls, v: integrate(decay(calls), np.ones(2), 0.0, 1.0, sample_times=v),
        "sample_times",
        [0.25, 0.5],
        [[0.5]],
        "sample_times has shape (1, 1), expected (N,)",
        NO_NAN,
    ),
    "Domain lower": (
        lambda calls, v: Domain(v, np.ones(2), 0.0, 1.0),
        "lower",
        [-1.0, -1.0],
        -np.ones((1, 2)),
        "lower has shape (1, 2), expected (N,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    "Domain upper": (
        lambda calls, v: Domain(-np.ones(2), v, 0.0, 1.0),
        "upper",
        [1.0, 1.0],
        np.ones(3),
        "upper has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    # the domain itself is checked by Domain; the sweep checks only that it fits the system
    "_sweep (estimate_contraction_rate)": (
        lambda calls, v: estimate_contraction_rate(decay(calls), Domain(-v, v, 0.0, 1.0), L2, SamplingPlan(n_space=3)),
        "domain.lower",
        np.ones(2),
        np.ones(3),
        "domain.lower has shape (3,), expected (2,)",
        ("shape",),
    ),
    "verify_origin_convergence target": (
        lambda calls, v: verify_origin_convergence(SETTLED, target=v),
        "target",
        [0.0, 0.0],
        np.zeros(3),
        "target has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
    # every state of every pair is checked before the first run, so a bad pair 4 costs no field evaluation
    "verify_incremental_bound": (
        lambda calls, v: verify_incremental_bound(decay(calls), _pairs_with(v), 0.0, 1.0, 0.5),
        "pair 4 state 1",
        [1.0, 1.0],
        np.ones(3),
        "pair 4 state 1 has shape (3,), expected (2,)",
        ("text", "complex", "nan", "shape", "ragged"),
    ),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_rule(site):
    call, name, good, wrong, shape_message, inputs = ARRAY_SITES[site]
    unreal = f"{name} must hold real numbers, got "
    bad = {
        "text": (_with_first(good, "1"), InvalidInputError, unreal + "text entries"),
        # a zero imaginary part is still complex: the real part alone would be another number than the one given
        "complex": (np.asarray(good) + 0j, InvalidInputError, unreal + "complex entries"),
        "nan": (_with_first(good, math.nan), InvalidInputError, f"{name} has non-finite entries"),
        "shape": (wrong, DimensionError, shape_message),
        "ragged": (_with_first(good, [1.0, 1.0]), InvalidInputError, unreal + "a ragged nesting"),
    }
    for kind in inputs:
        value, error, message = bad[kind]
        rejects(error, message, call, value)
    call([], good)


def test_a_float_array_passes_the_array_rule_as_it_is():
    # the per-sample paths pass a float64 array on every call: it is neither converted nor copied
    x = np.arange(6.0).reshape(3, 2)
    assert check_array(x, "x", (None, 2)) is x
    # bools, integers and floats of every width are real, and become float64
    for value in ([True, False], np.arange(2), np.ones(2, dtype=np.float32), np.ones(2, dtype=np.longdouble)):
        out = check_array(value, "x", (2,))
        assert out.dtype == np.float64 and out.tolist() == np.asarray(value, dtype=np.float64).tolist()
    dates = np.array(["2024-01-01"], dtype="M8[D]")
    for value, what in ((np.array([None, 1.0]), "object entries"), (dates, "datetime64[D] entries")):
        with pytest.raises(InvalidInputError, match=f"^x must hold real numbers, got {re.escape(what)}$"):
            check_array(value, "x")


def test_a_pair_of_other_than_two_states_is_refused_before_any_run():
    call = lambda calls, pairs: verify_incremental_bound(decay(calls), pairs, 0.0, 1.0, 0.5)
    for pair in [(np.zeros(2),), (np.zeros(2), np.ones(2), np.ones(2)), 1.0]:
        rejects(DimensionError, "pair 1 must be two states", call, [PAIRS[0], pair])


def test_a_weight_that_is_not_real_is_an_invalid_norm():
    # NormKind reports every bad weight as InvalidNormError, the array rule's message inside
    for weight, what in ((np.eye(2) + 0j, "complex entries"), ([["1", "0"], ["0", "1"]], "text entries")):
        message = f"invalid weight matrix: matrix must hold real numbers, got {what}"
        with pytest.raises(InvalidNormError, match=f"^{message}$"):
            NormKind.weighted(weight)
