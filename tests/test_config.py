import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logstab import SystemSpec, config
from logstab import system as system_module
from logstab.certify import Domain, SamplingPlan, check_demidovich, check_forcing_ratio, estimate_contraction_rate
from logstab.certify import sample_states
from logstab.integrate import METHODS, IntegratorConfig
from logstab.config import (
    build_domain,
    build_norm,
    build_system,
    certify_scenario,
    parse_config,
    serialize_config,
)
from logstab.errors import ConfigError, EvaluationError, InvalidInputError
from logstab.expr import compile_expression, differentiate, parse_expression
from logstab.linalg import NormKind
from logstab.system import eval_field, eval_rhs, jacobian

from logstab.demos import DEMO_CONFIGS, build_example1, default_rate, delta_admissible, delta_borderline

from conftest import spy, without_stacks

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
            ("sampling", "scheme = Bogus", "unknown sampling scheme 'bogus'"),
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

    @pytest.mark.parametrize(
        "domain, line, message",
        [
            ("lower = -1, -1\nupper = 1\n", 6, "domain lower and upper have different lengths"),
            ("upper = 1\nt_hi = 3\nlower = -1, -1\n", 7, "domain lower and upper have different lengths"),
            ("lower = -1, -1\n", 5, "domain lower and upper have different lengths"),
            ("upper = 1\nlower = -1\nt_hi = 3\n", 6, "domain has 1 components, system dimension is 2"),
        ],
        ids=["upper short", "lower last", "no upper", "one component"],
    )
    def test_domain_of_the_wrong_length_blames_the_later_of_lower_and_upper(self, domain, line, message):
        text = f"[system]\ntype = builtin\nname = example1\n[domain]\n{domain}"
        with pytest.raises(ConfigError, match=f"^line {line}: {re.escape(message)}$"):
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

    @pytest.mark.parametrize(
        "text, scheme",
        [
            ("Latin_Hypercube", "latin_hypercube"),
            ("UNIFORM_RANDOM", "uniform_random"),
            ("Uniform_Grid", "uniform_grid"),
        ],
    )
    def test_sampling_scheme_is_case_insensitive(self, text, scheme):
        cfg = parse_config(DEMO_CONFIG.replace("scheme = uniform_grid", f"scheme = {text}"))
        assert cfg.plan.scheme == scheme
        assert parse_config(serialize_config(cfg)) == cfg

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

    def test_readme_python_sketch_runs(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        exec(compile(block, "README.md", "exec"), {})  # its asserts are the check

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



class TestBuiltinExample1:
    """example1 is the expression system (phi)*x1 + sin(x1), b*x1 + (2 + (phi))*x2 + sin(x2), with its arguments checked."""

    def test_field_and_jacobian_off_the_demo_parameters_in_closed_form(self):
        sys = build_example1(b=-2.5, phi="-4 - t")
        rng = np.random.default_rng(8)
        xs, t = rng.uniform(-6.0, 6.0, size=(20, 2)), 0.75
        x1, x2, p = xs[:, 0], xs[:, 1], -4.0 - t
        f = np.stack([p * x1 + np.sin(x1), -2.5 * x1 + (2.0 + p) * x2 + np.sin(x2)], axis=1)
        j = np.zeros((20, 2, 2))
        j[:, 0, 0], j[:, 1, 0], j[:, 1, 1] = p + np.cos(x1), -2.5, 2.0 + p + np.cos(x2)
        assert sys.name == "example1"
        for got, want in (
            (eval_field(sys, xs, t), f),
            (jacobian(sys, xs, t), j),
            ([sys.f(x, t) for x in xs], f),
            ([sys.jac(x, t) for x in xs], j),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_phi_of_the_state_is_refused(self):
        # spliced in unchecked, phi = x1 would build x1*x1 + sin(x1)
        with pytest.raises(InvalidInputError, match=r"undeclared symbol\(s\) \['x1'\]"):
            build_example1(phi="x1")

    def test_phi_that_would_splice_in_a_state_term_is_refused(self):
        # spliced in unchecked, this phi would build (t) * (x2)*x1 + sin(x1)
        with pytest.raises(InvalidInputError, match="bad expression 't\\) \\* \\(x2'"):
            build_example1(phi="t) * (x2")

    def test_a_callable_phi_is_refused(self):
        with pytest.raises(InvalidInputError, match="phi must be an expression text in t, got function"):
            build_example1(phi=lambda t: -6.0)

    @pytest.mark.parametrize("b", [float("nan"), float("inf")])
    def test_a_non_finite_b_is_refused_by_name(self, b):
        with pytest.raises(InvalidInputError, match="^b has non-finite entries$"):
            build_example1(b=b)


def test_a_field_text_is_compiled_once_and_each_build_gets_its_own_closures(monkeypatch):
    # a text that no other test builds, so its first build here is its first anywhere
    text = "[system]\ntype = expression\ndim = 2\nf1 = -1.625*x1 + 0.375*sin(x2) - 0.0625\nf2 = -2.875*x2 + cos(x1)\n"
    compiled = []
    monkeypatch.setattr(config, "compile_expression", lambda *args: compiled.append(args) or compile_expression(*args))
    a = build_system(parse_config(text))
    assert len(compiled) == 5  # f per point, over numpy and over a vector of t; J per point and over numpy
    b = build_system(parse_config(text))
    assert len(compiled) == 5
    assert a.f is not b.f and a.jac is not b.jac
    calls = spy(a.f, "stack")
    xs = np.array([[0.5, -1.0], [2.0, 0.25]])
    assert eval_field(b, xs, 0.0).tobytes() == eval_field(a, xs, 0.0).tobytes()
    assert len(calls) == 1  # a's stack, not b's
    assert b.f.stack is not a.f.stack and not hasattr(b.f.stack, "__wrapped__")

def test_each_distinct_text_is_parsed_once_however_often_a_config_is_parsed(monkeypatch):
    # texts that no other test parses, so their first parse here is their first anywhere
    texts = ["-2.4375*x1 + sin(x2)", "-1.8125*x2 + 0.5*cos(x1)", "0.3125*sin(t)", "2.5625 + t^2"]
    text = (
        f"[system]\ntype = expression\ndim = 2\nf1 = {texts[0]}\nf2 = {texts[1]}\n"
        f"delta1 = {texts[2]}\ndelta2 = {texts[2]}\n\n[certify]\nalpha = {texts[3]}\n"
    )
    parsed = []
    monkeypatch.setattr(config, "parse_expression", lambda text: parsed.append(text) or parse_expression(text))
    assert parse_config(text) == parse_config(text)
    assert sorted(parsed) == sorted(texts)


@pytest.mark.parametrize("f2, message", [("-x2 +", "bad expression '-x2 +'"), ("-x3", "expression references undeclared symbol(s) ['x3']")])
def test_a_bad_field_text_fails_at_its_line_every_time(f2, message):
    # -x3 is a good text in three dimensions: a cached parse must still be judged against each config's names
    parse_config("[system]\ntype = expression\ndim = 3\nf1 = -x1\nf2 = -x2\nf3 = -x3\n")
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"^line 5: {re.escape(message)}"):
            parse_config(f"[system]\ntype = expression\ndim = 2\nf1 = -x1\nf2 = {f2}\n")


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
    # an expression system's numpy stack, on fields of sin, cos, abs and powers of t: f and J of a
    # stack, analytic or by finite differences (abs), equal those of its states one at a time, bit for bit
    cfg = parse_config(EQUIVALENCE_CONFIGS[name])
    sys = build_system(cfg)
    rng = np.random.default_rng(15)
    for t in rng.uniform(0.0, 2.0, size=3):
        xs = rng.uniform(-10.0, 10.0, size=(200, cfg.dim))
        assert eval_field(sys, xs, t).tolist() == [sys.f(x, t).tolist() for x in xs]
        assert jacobian(sys, xs, t).tolist() == [jacobian(sys, x, t).tolist() for x in xs]


def test_a_stack_below_the_row_threshold_goes_row_by_row(monkeypatch):
    # below STACK_MIN_ROWS rows a stack has the per-point bits and makes no numpy-namespace call; at or above
    # it, one call per stack. A field with abs takes finite differences: 2n = 4 rows at one state.
    numpy_rows = []
    compiled = config._compiled_field

    def recording(f_exprs):
        functions = list(compiled(f_exprs))
        for i in (1, 4):  # f and J in the numpy namespace
            if functions[i] is not None:
                functions[i] = lambda *args, fn=functions[i]: numpy_rows.append(len(args[0])) or fn(*args)
        return tuple(functions)

    monkeypatch.setattr(config, "_compiled_field", recording)
    field = "f1 = -2*x1 + sin(x2) - 0.25*x1*x2\nf2 = -3*x2 + cos(x1)*t^2\n"
    analytic = build_system(parse_config(f"[system]\ntype = expression\ndim = 2\n{field}"))
    with_abs = build_system(parse_config(f"[system]\ntype = expression\ndim = 3\n{field}f3 = -x3 + abs(x1)\n"))
    assert config.STACK_MIN_ROWS == 8 and with_abs.jac is None
    rng = np.random.default_rng(8)
    t = 0.75
    for rows in range(1, config.STACK_MIN_ROWS):
        xs = rng.uniform(-3.0, 3.0, size=(rows, 2))
        assert eval_field(analytic, xs, t).tobytes() == np.array([analytic.f(x, t) for x in xs]).tobytes()
        assert jacobian(analytic, xs, t).tobytes() == np.array([analytic.jac(x, t) for x in xs]).tobytes()
    jacobian(with_abs, np.array([0.5, -1.0, 2.0]), t)  # 6 perturbed rows
    assert numpy_rows == []
    for rows in (config.STACK_MIN_ROWS, 81):
        xs = rng.uniform(-3.0, 3.0, size=(rows, 2))
        eval_field(analytic, xs, t)
        jacobian(analytic, xs, t)
    jacobian(with_abs, rng.uniform(-3.0, 3.0, size=(2, 3)), t)  # 12 perturbed rows
    assert numpy_rows == [8, 8, 81, 81, 12]


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


def _failure(call):
    """The text, x and t of the EvaluationError that ``call()`` raises."""
    with pytest.raises(EvaluationError) as err:
        call()
    return str(err.value), None if err.value.x is None else err.value.x.tolist(), err.value.t


@pytest.mark.parametrize("with_abs", [False, True], ids=["analytic J", "finite differences"])
def test_a_stack_where_numpy_raises_fails_as_its_rows_do(with_abs):
    # log(x1) on a box that straddles 0: numpy raises on the stack, which then goes row by row
    text = f"[system]\ntype = expression\ndim = 2\nf1 = -x1 + x2*log(x1){' + 0.1*abs(x2)' if with_abs else ''}\nf2 = -x2 + sin(x1)\n"
    sys = build_system(parse_config(text))
    domain = Domain(np.array([-1.0, -1.0]), np.array([2.0, 2.0]), 0.0, 1.0)
    plan = SamplingPlan(n_space=200, n_time=2, scheme="latin_hypercube", seed=8)
    sweeps = (
        lambda s: estimate_contraction_rate(s, domain, NormKind.l2(), plan),
        lambda s: check_demidovich(s, np.eye(2), domain, plan),
        lambda s: eval_field(s, sample_states(domain, plan), 0.5),
    )
    for sweep in sweeps:
        assert _failure(lambda: sweep(sys)) == _failure(lambda: sweep(without_stacks(sys)))


def test_a_field_that_only_underflows_gives_the_per_point_values():
    sys = build_system(parse_config("[system]\ntype = expression\ndim = 2\nf1 = -x1 + exp(-x1^2)\nf2 = -x2 + x1*exp(-x1^2)\n"))
    xs = np.column_stack([np.linspace(-40.0, 40.0, 801), np.linspace(1.0, -1.0, 801)])
    # exp(-1600) underflows: numpy raises, where math gives 0
    with pytest.raises(FloatingPointError, match="underflow"):
        compile_expression(parse_expression("exp(-x1^2)"), ["x1"], "numpy")(xs[:, 0])
    for t in (0.0, 1.5):
        assert eval_field(sys, xs, t).tolist() == [sys.f(x, t).tolist() for x in xs]
        assert jacobian(sys, xs, t).tolist() == [sys.jac(x, t).tolist() for x in xs]


# -- callables of t over a vector of t ------------------------------------------

# delta and alpha texts in exp, log, sqrt, pow and a constant entry, on a field that is not 0 at the origin
TIME_TEXT = """[system]
type = expression
dim = 2
f1 = -(2 + t^2)*x1 + sin(x2) + exp(-t)*cos(3*t)
f2 = -3*x2 + 0.5*sin(x1) - pow(t, 1.5)/(1 + t^2)
delta1 = sqrt(t)*exp(-0.25*t) + log(1 + t^3)
delta2 = 2
x0 = 1, -1

[certify]
alpha = pow(t, 3) + 0.5*exp(-t) + log(2 + t)
"""
WEIGHT = np.array([[2.0, 0.3], [0.3, 1.5]])
KINDS = {"l1": NormKind.l1(), "l2": NormKind.l2(), "linf": NormKind.linf(), "weighted": NormKind.weighted(WEIGHT)}


def _ratios(text: str, kind: NormKind, t_lo: float, t_hi: float):
    """The forcing ratio of a config text through its stacks, and through one call per t."""
    cfg = parse_config(text)
    system, alpha = build_system(cfg), config._function_of_t(cfg.alpha_expr)
    stacked = check_forcing_ratio(system, alpha, t_lo, t_hi, kind=kind)
    return stacked, check_forcing_ratio(without_stacks(system), lambda t: alpha(t), t_lo, t_hi, kind=kind)


class TestTimeStacks:
    """Config-built delta, alpha and f(0, t) take a vector of t in one call, with the bits of one call per t."""

    @pytest.mark.parametrize("variant", ["fig1", "fig2"])
    def test_a_demo_configs_ratio_is_the_per_t_ratio(self, variant):
        stacked, per_t = _ratios(DEMO_CONFIGS[variant], NormKind.l2(), 0.0, 20.0)
        assert stacked == per_t

    @pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
    @pytest.mark.parametrize("window", [(0.0, 20.0), (0.5, 3.0)])
    def test_exp_log_sqrt_pow_and_a_constant_give_the_per_t_ratio(self, kind, window):
        stacked, per_t = _ratios(TIME_TEXT, kind, *window)
        assert stacked == per_t

    def test_a_builtin_phi_gives_the_per_t_ratio(self):
        text = DEMO_CONFIGS["fig2"].replace("name = example1", "name = example1\nb = -2.5\nphi = -4 - exp(t)*t")
        stacked, per_t = _ratios(text, NormKind.linf(), 0.0, 20.0)
        assert stacked == per_t

    def test_one_stacked_call_per_callable_of_t_and_no_eval_rhs(self, monkeypatch, tmp_path):
        cfg = replace(parse_config(DEMO_CONFIGS["fig1"]), out_dir=str(tmp_path))
        system = build_system(cfg)
        calls = {"f(0, t)": spy(system.f.origin, "stack"), "delta": spy(system.delta, "stack"), "alpha": []}
        monkeypatch.setattr(system_module, "eval_rhs", lambda *args: pytest.fail("eval_rhs was called"))

        def ratio(sys, alpha_fn, *args, **kwargs):
            calls["alpha"] = spy(alpha_fn, "stack")
            return check_forcing_ratio(sys, alpha_fn, *args, **kwargs)

        monkeypatch.setattr(config, "check_forcing_ratio", ratio)
        _, report, _ = certify_scenario(cfg, system, build_norm(cfg))
        assert {name: len(c) for name, c in calls.items()} == {"f(0, t)": 1, "delta": 1, "alpha": 1}
        assert report.verdict == "ratio_vanishes"

    def test_plain_callables_are_called_once_per_t(self):
        calls = {"f": 0, "delta": 0, "alpha": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        delta = counted("delta", lambda t: np.array([np.exp(-t)]))
        system = SystemSpec(dim=1, f=counted("f", lambda x, t: -x), delta=delta)
        check_forcing_ratio(system, counted("alpha", lambda t: 1.0), 0.0, 10.0)
        assert calls == {"f": 200, "delta": 200, "alpha": 200}

    @pytest.mark.parametrize("delta_stack", [True, False], ids=["delta with stack", "plain delta"])
    @pytest.mark.parametrize("origin", [True, False], ids=["f with origin", "plain f"])
    def test_one_forcing_rule_for_every_mix_of_stacked_and_plain_callables(self, monkeypatch, origin, delta_stack):
        built = build_system(parse_config(DEMO_CONFIGS["fig1"]))
        plain = without_stacks(built)
        all_plain = check_forcing_ratio(plain, default_rate, 0.0, 20.0)
        system = SystemSpec(dim=2, f=built.f if origin else plain.f, delta=built.delta if delta_stack else plain.delta)
        calls = {"f": spy(system, "f"), "delta": spy(system, "delta")}
        expected = {"f": 0 if origin else 200, "delta": 0 if delta_stack else 200}
        if origin:
            calls["f(0, t)"] = spy(system.f, "origin")
            calls["f(0, t) stack"] = spy(system.f.origin, "stack")
            expected |= {"f(0, t)": 0, "f(0, t) stack": 1}
        if delta_stack:
            calls["delta stack"] = spy(system.delta, "stack")
            expected["delta stack"] = 1
        monkeypatch.setattr(system_module, "eval_rhs", lambda *args: pytest.fail("eval_rhs was called"))
        report = check_forcing_ratio(system, default_rate, 0.0, 20.0)
        assert {name: len(c) for name, c in calls.items()} == expected
        assert report == all_plain

    @pytest.mark.parametrize(
        "f1, delta1, message",
        [
            ("-x1 + log(5 - t)", "log(t - 2)", r"delta returned non-finite values at t=1\.0"),  # delta bad first
            ("-x1 + log(t - 2)", "log(t - 2)", r"f returned non-finite values at x=\[0\.0\], t=1\.0"),  # f before delta
            ("-x1 + log(5 - t)", "1", r"f returned non-finite values at x=\[0\.0\], t=5\.111\d+"),
            ("-x1 + exp(t)", "1", r"f returned non-finite values at x=\[0\.0\], t=731\.\d+"),  # exp overflows
        ],
    )
    def test_an_error_is_the_per_t_loops(self, f1, delta1, message):
        system = build_system(parse_config(f"[system]\ntype = expression\ndim = 1\nf1 = {f1}\ndelta1 = {delta1}\n"))
        failure = _failure(lambda: check_forcing_ratio(system, lambda t: 1.0, 1.0, 1000.0))
        assert re.fullmatch(message, failure[0])
        assert failure == _failure(lambda: check_forcing_ratio(without_stacks(system), lambda t: 1.0, 1.0, 1000.0))

    def test_a_stack_of_the_wrong_shape_is_reported_by_shape(self):
        system = build_system(parse_config(DEMO_CONFIGS["fig1"]))
        alpha = lambda t: 1.0
        alpha.stack = lambda ts: np.ones(len(ts) - 1)
        message = r"^alpha returned shape \(199,\), expected \(200,\) at a vector of 200 times from t=0\.02 to t=20\.0$"
        with pytest.raises(EvaluationError, match=message) as err:
            check_forcing_ratio(system, alpha, 0.0, 20.0)
        assert err.value.x is None and err.value.t is None
        # the per-point delta is fine, so the loop that would name a bad t passes and the stack is blamed
        system.delta.stack = lambda ts: np.zeros((len(ts), 3))
        with pytest.raises(EvaluationError, match=r"^delta returned shape \(200, 3\), expected \(200, 2\) at a vector"):
            check_forcing_ratio(system, default_rate, 0.0, 20.0)

    def test_non_finite_stack_output_names_the_first_bad_t(self):
        rate = lambda t: 1.0
        rate.stack = lambda ts: np.where(ts > 1.0, np.nan, 1.0)
        with pytest.raises(EvaluationError, match=r"^alpha returned non-finite values at t=1\.0\d*$"):
            check_forcing_ratio(build_example1(delta=delta_admissible), rate, 0.0, 20.0)

    def test_a_delta_or_alpha_text_is_compiled_once_and_each_build_gets_its_own_closures(self, monkeypatch):
        # texts that no other test builds, so their first build here is their first anywhere
        text = (
            "[system]\ntype = builtin\nname = example1\nphi = -5.875 - t^2\n"
            "delta1 = 0.8125*cos(t)\ndelta2 = exp(-0.4375*t)\n\n[certify]\nalpha = 1.3125 + t\n"
        )
        compiled, parsed = [], []
        monkeypatch.setattr(config, "compile_expression", lambda *a: compiled.append(a) or compile_expression(*a))
        monkeypatch.setattr(config, "parse_expression", lambda text: parsed.append(text) or parse_expression(text))
        builds = [(build_system(cfg), config._function_of_t(cfg.alpha_expr)) for cfg in [parse_config(text)]]
        assert len(compiled) == 9  # the field's 5, delta and alpha per t and over a vector of t
        parsed.clear()
        builds += [(build_system(cfg), config._function_of_t(cfg.alpha_expr)) for cfg in [parse_config(text)]]
        assert len(compiled) == 9 and parsed == []  # phi, delta and alpha are neither parsed nor compiled again
        (a, alpha_a), (b, alpha_b) = builds
        assert a.delta is not b.delta and alpha_a is not alpha_b
        calls = spy(a.delta, "stack")
        ts = np.linspace(0.0, 2.0, 11)
        assert check_forcing_ratio(b, alpha_b, 0.0, 2.0) == check_forcing_ratio(a, alpha_a, 0.0, 2.0)
        assert len(calls) == 1  # a's stack, not b's
        assert b.delta.stack is not a.delta.stack and not hasattr(b.delta.stack, "__wrapped__")
        assert b.delta.stack(ts).tobytes() == np.array([a.delta(t) for t in ts.tolist()]).tobytes()
