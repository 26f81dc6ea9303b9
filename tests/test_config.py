import re
from pathlib import Path

import numpy as np
import pytest

from logstab.certify import Domain, SamplingPlan, check_demidovich, estimate_contraction_rate, sample_states
from logstab.integrate import METHODS, IntegratorConfig
from logstab.config import (
    build_domain,
    build_norm,
    build_system,
    parse_config,
    serialize_config,
)
from logstab.errors import ConfigError, EvaluationError
from logstab.expr import compile_expression, differentiate, parse_expression
from logstab.linalg import NormKind
from logstab.system import eval_field, eval_rhs, jacobian

from logstab.demos import DEMO_CONFIGS, build_example1, default_rate, delta_admissible, delta_borderline

DEMO_CONFIG = """
# demo scenario
[system]
type = builtin
name = example1
b = 5
phi = -6 - t^3
delta1 = 5*sin(t)^2
delta2 = t
x0 = -2, 5
t0 = 0

[norm]
kind = l2

[domain]
lower = -10, -10
upper = 10, 10
t_lo = 0
t_hi = 2

[sampling]
n_space = 41
n_time = 5
scheme = uniform_grid
seed = 42

[integrator]
method = ndf
rel_tol = 1e-9
abs_tol = 1e-12
max_step = 0.1
tf = 20

[certify]
alpha = 0.5 + t^3

[output]
dir = out
"""

EXPRESSION_CONFIG = """
[system]
type = expression
dim = 2
f1 = (-6 - t^3) * x1 + sin(x1)
f2 = 5*x1 + (2 + (-6 - t^3)) * x2 + sin(x2)
delta1 = 5*sin(t)^2
delta2 = t
x0 = -2, 5
"""


class TestParsing:
    def test_builtin_demo_scenario(self):
        cfg = parse_config(DEMO_CONFIGS["fig1"])
        assert cfg.system_kind == "builtin"
        assert cfg.builtin_name == "example1"
        assert cfg.x0 == [-2.0, 5.0]
        assert cfg.norm_kind == "l2"
        assert cfg.alpha_expr == "0.5 + t^3"
        sys = build_system(cfg)
        reference = build_example1(delta=delta_admissible)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-5, 5, size=2)
            t = rng.uniform(0, 3)
            assert np.allclose(eval_rhs(sys, x, t), eval_rhs(reference, x, t), atol=1e-12)
            assert np.allclose(jacobian(sys, x, t), jacobian(reference, x, t), atol=1e-12)

    @pytest.mark.parametrize("variant, delta", [("fig1", delta_admissible), ("fig2", delta_borderline)])
    def test_demo_texts_compile_to_the_reference_callables_bit_for_bit(self, variant, delta):
        # the demo's CSVs were first written with these callables; 5*sin(t)^2 would differ in the last bit
        cfg = parse_config(DEMO_CONFIGS[variant])
        sys = build_system(cfg)
        alpha = compile_expression(parse_expression(cfg.alpha_expr), ["t"])
        for t in np.linspace(0.0, 20.0, 20001).tolist():
            assert np.array_equal(sys.delta(t), delta(t)), t
            assert alpha(t) == default_rate(t), t

    def test_empty_input_needs_system_section(self):
        with pytest.raises(ConfigError, match=r"\[system\]"):
            parse_config("")

    def test_scalar_expression_system_certifies(self):
        cfg = parse_config("[system]\ntype = expression\ndim = 1\nf1 = -x1\n")
        sys = build_system(cfg)
        from logstab.certify import Domain

        cert = estimate_contraction_rate(
            sys, Domain(np.array([-2.0]), np.array([2.0]), 0.0, 1.0), NormKind.l2(), SamplingPlan(n_space=5)
        )
        assert cert.verdict == "certified_on_domain"
        assert cert.alpha0_estimate == pytest.approx(1.0, abs=1e-12)

    def test_unknown_key_reports_line(self):
        text = "[system]\ntype = builtin\nname = example1\nbogus = 1\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[mystery]\nkey = 1\n")

    def test_dimension_mismatches_caught(self):
        with pytest.raises(ConfigError, match="x0"):
            parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1\nf2 = -x2\nx0 = 1\n")
        with pytest.raises(ConfigError, match="f3"):
            parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1\nf2 = -x2\nf3 = -x1\n")
        with pytest.raises(ConfigError, match="delta3"):
            parse_config("[system]\ntype = builtin\nname = example1\ndelta3 = t\n")

    def test_builtin_system_takes_no_component_keys(self):
        with pytest.raises(ConfigError, match=r"^line 4: unknown key 'f1' in \[system\]$"):
            parse_config("[system]\ntype = builtin\nname = example1\nf1 = x1\n")

    def test_single_error_keeps_its_bare_message(self):
        err = ConfigError("dim must be positive", 4)
        assert err.errors == [(4, "dim must be positive")]
        assert str(err) == "line 4: dim must be positive"
        assert ConfigError("missing required [system] section").errors == [(None, "missing required [system] section")]

    def test_missing_component_caught(self):
        with pytest.raises(ConfigError, match="f2"):
            parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1\n")

    def test_undeclared_symbol_in_expression(self):
        with pytest.raises(ConfigError, match="x3"):
            parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x3\nf2 = -x2\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 4"):
            parse_config("[system]\ntype = builtin\nname = example1\nb = abc\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("stray = 1\n")

    def test_multiple_syntax_errors_collected(self):
        text = "stray = 1\n[system\nno equals here\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) == 3
        assert [ln for ln, _ in err.value.errors] == [1, 2, 3]

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config("[system]\ntype = builtin\nname = example1\nx0 = nan, 1\n")

    def test_weighted_norm_parses_inline_matrix(self):
        text = DEMO_CONFIG.replace("kind = l2", "kind = weighted\nweight = 2 1; 1 2")
        cfg = parse_config(text)
        kind = build_norm(cfg)
        assert kind.tag == "weighted"
        assert np.allclose(kind.weight, [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("sampling", "n_space = 0", "n_space must be an integer >= 1, got 0"),
            ("sampling", "scheme = bogus", "unknown sampling scheme 'bogus'"),
            ("sampling", "seed = -1", "seed must be an integer >= 0, got -1"),
            ("sampling", "seed = 1.5", "expected an integer"),
            ("integrator", "step = -1", "step must be a positive number, got -1.0"),
            ("integrator", "method = euler", "unknown integrator method 'euler'"),
            ("integrator", "method = rkf45", "unknown integrator method 'rkf45'"),
            ("integrator", "max_steps = 0", "max_steps must be an integer >= 1, got 0"),
            ("integrator", "rel_tol = inf", "'inf' is not a finite number"),
            ("norm", "kind = l3", "norm kind must be one of"),
            ("norm", "weight = 1 x", "bad weight matrix"),
            ("certify", "alpha = 1 + x1", "expression references undeclared symbol"),
        ],
    )
    def test_bad_value_reports_its_line(self, section, line, message):
        text = f"[system]\ntype = builtin\nname = example1\n[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=f"^line 5: {re.escape(message)}"):
            parse_config(text)

    def test_sampling_and_integrator_keys_build_their_objects(self):
        cfg = parse_config(DEMO_CONFIG.replace("method = ndf", "method = RK4\nstep = 0.02\nmax_steps = 500"))
        assert cfg.plan == SamplingPlan(n_space=41, n_time=5, scheme="uniform_grid", seed=42)
        assert cfg.integrator == IntegratorConfig(
            method="rk4", step=0.02, rel_tol=1e-9, abs_tol=1e-12, max_step=0.1, max_steps=500
        )
        assert cfg.tf == 20.0

    @pytest.mark.parametrize("text, method", [("ndf", "ndf"), ("auto", "auto"), ("NDF", "ndf"), ("Auto", "auto")])
    def test_stiff_aware_methods_parse(self, text, method):
        cfg = parse_config(DEMO_CONFIG.replace("method = ndf", f"method = {text}"))
        assert cfg.integrator == IntegratorConfig(method=method)

    def test_method_defaults_to_auto(self):
        assert parse_config("[system]\ntype = builtin\nname = example1\n").integrator.method == "auto"

    def test_norm_kind_is_case_insensitive(self):
        assert parse_config(DEMO_CONFIG.replace("kind = l2", "kind = LInf")).norm_kind == "linf"

    def test_weighted_norm_requires_matrix(self):
        with pytest.raises(ConfigError, match="weight"):
            parse_config("[system]\ntype = builtin\nname = example1\n\n[norm]\nkind = weighted\n")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [DEMO_CONFIG, EXPRESSION_CONFIG])
    def test_parse_serialize_parse_is_identity(self, text):
        once = parse_config(text)
        again = parse_config(serialize_config(once))
        assert once == again

    @pytest.mark.parametrize(
        "text",
        [
            "[system]\ntype = expression\ndim = 1\nf1 = -x1\ndelta1 = 0\n",
            "[system]\ntype = builtin\nname = example1\n\n[domain]\nt_hi = 5\n",
        ],
    )
    def test_values_the_serializer_once_dropped(self, text):
        once = parse_config(text)
        assert parse_config(serialize_config(once)) == once

    def test_readme_block_parses_and_round_trips(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        cfg = parse_config(blocks[0])
        assert cfg.system_kind == "expression" and cfg.alpha_expr == "0.5 + t^3"
        assert cfg.plan.n_space == 41 and cfg.integrator.max_step == 0.1
        assert parse_config(serialize_config(cfg)) == cfg
        (methods,) = re.findall(r"^method = \w+ +# (.*)$", blocks[0], flags=re.M)
        assert tuple(methods.split(" | ")) == METHODS

    def test_readme_shows_the_shipped_fig1_text(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert f"```\n{DEMO_CONFIGS['fig1']}```" in readme

    def test_builders_from_round_tripped_config(self):
        cfg = parse_config(serialize_config(parse_config(DEMO_CONFIG)))
        dom = build_domain(cfg)
        assert dom.t_hi == 2.0
        assert cfg.plan.seed == 42
        assert cfg.integrator.method == "ndf"


class TestExpressionSystems:
    def test_expression_jacobian_matches_finite_differences(self):
        cfg = parse_config(EXPRESSION_CONFIG)
        sys = build_system(cfg)
        assert sys.jac is not None
        from logstab.system import SystemSpec

        fd_sys = SystemSpec(dim=2, f=sys.f)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-5.0, 5.0, size=2)
            t = rng.uniform(0.0, 2.0)
            worst = max(worst, np.abs(jacobian(sys, x, t) - jacobian(fd_sys, x, t)).max())
        assert worst < 1e-6

    def test_expression_system_matches_builtin(self):
        cfg = parse_config(EXPRESSION_CONFIG)
        sys = build_system(cfg)
        reference = build_example1(delta=delta_admissible)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-8.0, 8.0, size=2)
            t = rng.uniform(0.0, 2.0)
            assert np.allclose(eval_rhs(sys, x, t), eval_rhs(reference, x, t), atol=1e-12)
            assert np.allclose(jacobian(sys, x, t), jacobian(reference, x, t), atol=1e-12)

    def test_abs_field_falls_back_to_finite_differences(self):
        cfg = parse_config("[system]\ntype = expression\ndim = 1\nf1 = -abs(x1) - x1\n")
        sys = build_system(cfg)
        assert sys.jac is None
        j = jacobian(sys, np.array([2.0]), 0.0)
        assert j[0, 0] == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("coefficient", ["2", "-2"])
    def test_negative_coefficient_leaves_no_dead_term_in_the_jacobian(self, coefficient):
        # d/dx1 of -2*log(x2) is structurally zero; a leftover -0.0 * log(x2) is NaN at x2 < 0
        cfg = parse_config(f"[system]\ntype = expression\ndim = 2\nf1 = {coefficient}*log(x2) - x1\nf2 = -x2\n")
        j = jacobian(build_system(cfg), np.array([1.0, -1.0]), 0.0)
        assert j.tolist() == [[-1.0, -float(coefficient)], [0.0, -1.0]]

    def test_division_by_zero_in_the_field_is_nan(self):
        cfg = parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1 + exp(-1/x2)\nf2 = -x2\n")
        sys = build_system(cfg)
        assert np.isnan(sys.f(np.array([1.0, 0.0]), 0.0)).all()
        with pytest.raises(EvaluationError, match=r"f returned non-finite values at x=\[1\.0, 0\.0\], t=0"):
            eval_field(sys, np.array([1.0, 0.0]), 0.0)


def _ring_config(rng, n, with_abs):
    """A ring shaped like the benchmark's, with coefficients of both signs and a perturbation."""
    c, e, g, d = (np.round(rng.uniform(-2.0, 2.0, n), 6) for _ in range(4))
    a = np.round(rng.uniform(3.0, 6.0, n), 6)
    lines = ["[system]", "type = expression", f"dim = {n}"]
    for i in range(n):
        nxt, prev = (i + 1) % n + 1, (i - 1) % n + 1
        term = f"-({a[i]} + t^2)*x{i + 1} + {e[i]}*sin(x{i + 1}) + {c[i]}*sin(x{nxt})"
        lines.append(f"f{i + 1} = {term}" + (f" + {g[i]}*abs(x{prev})" if with_abs else ""))
        lines.append(f"delta{i + 1} = {d[i]}*cos(t)^2 - t/{i + 1}")
    return "\n".join(lines) + "\n"


def _equivalence_configs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    yield "readme", re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0]
    rng = np.random.default_rng(2024)
    for n in (2, 4, 8):
        for with_abs in (False, True):
            yield f"ring{n}{'-abs' if with_abs else ''}", _ring_config(rng, n, with_abs)


EQUIVALENCE_CONFIGS = dict(_equivalence_configs())


@pytest.mark.parametrize("name", EQUIVALENCE_CONFIGS)
def test_one_function_per_system_equals_one_closure_per_entry(name):
    cfg = parse_config(EQUIVALENCE_CONFIGS[name])
    sys = build_system(cfg)
    n = cfg.dim
    names = [f"x{i + 1}" for i in range(n)] + ["t"]
    nodes = [parse_expression(e) for e in cfg.f_exprs]
    f_entries = [compile_expression(node, names) for node in nodes]
    delta_entries = [compile_expression(parse_expression(e), ["t"]) for e in cfg.delta_exprs]
    with_abs = any("abs" in e for e in cfg.f_exprs)
    assert (sys.jac is None) == with_abs
    if not with_abs:
        jac_entries = [[compile_expression(differentiate(node, f"x{j + 1}"), names) for j in range(n)] for node in nodes]
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0, size=n)
        t = float(rng.uniform(0.0, 2.0))
        assert sys.f(x, t).tolist() == [fn(*x, t) for fn in f_entries]
        assert sys.delta(t).tolist() == [fn(t) for fn in delta_entries]
        if not with_abs:
            assert sys.jac(x, t).tolist() == [[fn(*x, t) for fn in row] for row in jac_entries]


@pytest.mark.parametrize("name", EQUIVALENCE_CONFIGS)
def test_stacked_evaluation_equals_per_point_evaluation(name):
    # an expression system evaluates a stack row by row: f and J of a stack, analytic or by
    # finite differences (abs), equal those of its states one at a time, bit for bit
    cfg = parse_config(EQUIVALENCE_CONFIGS[name])
    sys = build_system(cfg)
    rng = np.random.default_rng(15)
    for t in rng.uniform(0.0, 2.0, size=3):
        xs = rng.uniform(-10.0, 10.0, size=(200, cfg.dim))
        assert eval_field(sys, xs, t).tolist() == [sys.f(x, t).tolist() for x in xs]
        assert jacobian(sys, xs, t).tolist() == [jacobian(sys, x, t).tolist() for x in xs]


UNDEFINED_FIELDS = {
    "exp(-1/x2) at x2 = 0": "-x1 + exp(-1/x2)",
    "log of a negative argument": "-x1 + x2*log(x1 + 2)",
    "fractional power of a negative base": "-x1 + (x1 - 1)^0.5",
    "overflow": "-x1 + exp(x2^2)",
    "division by zero": "-x1 + x2/x1",
}


def _jacobian_fails(sys, x, t) -> bool:
    try:
        jacobian(sys, x, t)
    except EvaluationError:
        return True
    return False


@pytest.mark.parametrize("with_abs", [False, True], ids=["analytic J", "finite differences"])
@pytest.mark.parametrize("f1", UNDEFINED_FIELDS.values(), ids=UNDEFINED_FIELDS.keys())
def test_undefined_point_of_a_stack_is_reported_at_its_x_and_t(f1, with_abs):
    text = f"[system]\ntype = expression\ndim = 2\nf1 = {f1}{' + 0.1*abs(x2)' if with_abs else ''}\nf2 = -x2\n"
    sys = build_system(parse_config(text))
    assert (sys.jac is None) == with_abs
    # 81 samples per slice, with 0 and -30 on each axis
    domain = Domain(np.array([-30.0, -30.0]), np.array([30.0, 30.0]), 0.0, 1.0)
    plan = SamplingPlan(n_space=9, n_time=2)
    # finite differences take f at the perturbed rows; an analytic J is evaluated itself
    pattern = rf"^{'f' if with_abs else 'jac'} returned non-finite values at x=\[.+\], t=0\.0$"
    with pytest.raises(EvaluationError, match=pattern) as err:
        check_demidovich(sys, np.eye(2), domain, plan)
    # the same sample as the first whose J fails when evaluated one state at a time
    first = next(x for x in sample_states(domain, plan) if _jacobian_fails(sys, x, 0.0))
    assert err.value.x.tolist() == first.tolist() and err.value.t == 0.0


def test_undefined_points_of_a_stack_are_reported_at_the_first():
    sys = build_system(parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1 + exp(-1/x2)\nf2 = -x2\n"))
    xs = np.random.default_rng(17).uniform(-1.0, 1.0, size=(40, 2))
    xs[20, 1], xs[9, 1], xs[3, 1] = -1e-300, 1e-300, 0.0  # overflow, underflow to 0, undefined
    assert sys.f(xs[9], 0.0).tolist() == [-xs[9, 0], -1e-300]
    assert np.isnan(sys.f(xs[20], 0.0)).all() and np.isnan(sys.f(xs[3], 0.0)).all()
    with pytest.raises(EvaluationError, match=rf"^{re.escape(f'f returned non-finite values at x={xs[3].tolist()}, t=0.0')}$") as err:
        eval_field(sys, xs, 0.0)
    assert err.value.x.tolist() == xs[3].tolist()
