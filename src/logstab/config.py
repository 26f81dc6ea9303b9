"""Scenario configuration: a flat INI-style text format, its builders and its two steps.

Format: `[section]` headers, `key = value` lines, `#` starts a comment.
Syntax errors are reported together, each with its line. Every key is then
checked at parse time, and a bad value is reported with its line. [system]
has its own parser, because its keys are per component. Every other key is
read through one table, SCHEMA, which also drives serialize_config, so
parse -> serialize -> parse round-trips to an equal ScenarioConfig.
The [domain] box (lower < upper, t_lo < t_hi) is checked only when
build_domain builds it for certify, with the line of the offending key, so a
config that only simulate uses may leave it unfinished.
Sampling and integrator keys are applied with dataclasses.replace, so the
checks of SamplingPlan and IntegratorConfig run on each of them.

A built scenario runs through two steps, which ``logstab certify``,
``logstab simulate`` and ``logstab demo`` share: ``certify_scenario`` (the
certificate on the [domain] box, the forcing ratio to tf, and their CSVs)
and ``simulate_scenario`` (the trajectory from x0 on the output grid, and
its CSVs). ``certificate_lines`` and ``ratio_line`` put their reports in
words.

Sections (all optional except [system]):

    [system]    type = builtin | expression
                name = example1            (builtin)
                b = ..., phi = ...         (example1 parameters, see build_example1)
                dim = 2                    (expression)
                f1 = ..., f2 = ...         (expression components, in x1..xn and t)
                delta1 = ..., delta2 = ... (perturbation components, in t; default 0)
                x0 = -2, 5
                t0 = 0
    [norm]      kind = l1 | l2 | linf | weighted
                weight = 2 1; 1 2          (inline rows)   or  weight_file = P.txt
    [domain]    lower = -10, -10   upper = 10, 10   t_lo = 0   t_hi = 2
    [sampling]  n_space = 33   n_time = 5   scheme = uniform_grid   seed = 42
    [integrator] method = auto | rk4 | ndf, step, rel_tol, abs_tol, max_step, max_steps, tf
    [certify]   alpha = 0.5 + t^3          (analytic rate, expression in t)
    [output]    dir = out
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .certify import ContractionCertificate, ConvergenceReport, Domain, SamplingPlan
from .certify import check_forcing_ratio, estimate_contraction_rate
from .csvio import export_component_csv, export_report_csv, export_trajectory_csv, parse_matrix_text, read_matrix_file
from .errors import ConfigError, InvalidInputError, check_count, read_number
from .expr import (
    ExprSyntaxError,
    NonDifferentiableError,
    compile_expression,
    differentiate,
    free_variables,
    parse_expression,
)
from .integrate import IntegratorConfig, Trajectory, integrate
from .linalg import NormKind
from .system import SystemSpec

BUILTIN_NAMES = ("example1",)

# spacing of the sample grid that simulate_scenario writes
OUTPUT_STEP = 0.05


def _function_of_t(text: str):
    """The expression ``text`` in t, compiled to a function of one number."""
    fn = compile_expression(parse_expression(text), ["t"])
    return lambda t: fn(float(t))


def build_example1(b: float = 5.0, phi="-6 - t^3", delta=None) -> SystemSpec:
    """The builtin planar system with its analytic Jacobian, per state and per stack of states.

        f1 = phi(t)*x1 + sin(x1)
        f2 = b*x1 + (2 + phi(t))*x2 + sin(x2)

    ``phi`` is a callable of t or an expression text in t. The defaults are
    the paper's example; a scenario's [system] keys ``b`` and ``phi``
    override them.
    """
    if isinstance(phi, str):
        phi = _function_of_t(phi)

    def f(x: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        return np.array([p * x[0] + np.sin(x[0]), b * x[0] + (2.0 + p) * x[1] + np.sin(x[1])])

    def jac(x: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        return np.array([[p + np.cos(x[0]), 0.0], [b, 2.0 + p + np.cos(x[1])]])

    def f_stack(xs: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        x1, x2 = xs[:, 0], xs[:, 1]
        return np.stack([p * x1 + np.sin(x1), b * x1 + (2.0 + p) * x2 + np.sin(x2)], axis=1)

    def jac_stack(xs: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        out = np.empty((len(xs), 2, 2))
        out[:, 0, 0] = p + np.cos(xs[:, 0])
        out[:, 0, 1] = 0.0
        out[:, 1, 0] = b
        out[:, 1, 1] = 2.0 + p + np.cos(xs[:, 1])
        return out

    f.stack, jac.stack = f_stack, jac_stack
    return SystemSpec(dim=2, f=f, jac=jac, delta=delta, name="example1")


@dataclass
class ScenarioConfig:
    """Parsed scenario: plain Python values, the sampling plan and the integrator settings."""

    system_kind: str = "builtin"
    builtin_name: str = ""
    builtin_params: dict = field(default_factory=dict)
    dim: int = 0
    f_exprs: list = field(default_factory=list)
    delta_exprs: list = field(default_factory=list)
    x0: list = field(default_factory=list)
    t0: float = 0.0
    norm_kind: str = "l2"
    norm_weight: str = ""
    norm_weight_file: str = ""
    domain_lower: list = field(default_factory=list)
    domain_upper: list = field(default_factory=list)
    t_lo: float = 0.0
    t_hi: float = 2.0
    plan: SamplingPlan = field(default_factory=SamplingPlan)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    tf: float = 20.0
    alpha_expr: str = ""
    out_dir: str = "out"
    # (section, key) -> line of each SCHEMA key read; not part of the scenario's value
    key_lines: dict = field(default_factory=dict, compare=False, repr=False)


# coercions: text -> value, raising InvalidInputError on a bad value (a number is errors.read_number)
def _numbers(text: str) -> list[float]:
    return [read_number(part) for part in text.replace(",", " ").split()]


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"expected an integer, got {text!r}") from None


def _expression_in(*names: str):
    """Coercion that checks an expression parses and uses only ``names``; keeps the text."""

    def check(text: str) -> str:
        try:
            node = parse_expression(text)
        except ExprSyntaxError as exc:
            raise InvalidInputError(f"bad expression {text!r}: {exc}") from None
        extra = free_variables(node) - set(names)
        if extra:
            raise InvalidInputError(f"expression references undeclared symbol(s) {sorted(extra)}")
        return text

    return check


_expression_in_t = _expression_in("t")


def _norm_tag(text: str) -> str:
    tag = text.lower()
    if tag not in NormKind.TAGS:
        raise InvalidInputError(f"norm kind must be one of {', '.join(NormKind.TAGS)}, got {tag!r}")
    return tag


def _matrix_text(text: str) -> str:
    try:
        parse_matrix_text(text)
    except InvalidInputError as exc:
        raise InvalidInputError(f"bad weight matrix: {exc}") from None
    return text


# section -> key -> (owner, attribute, coercion). The owner is the ScenarioConfig
# field ("plan" or "integrator") whose dataclass holds the attribute, or None for
# an attribute of ScenarioConfig itself. [system] has its own parser below.
SCHEMA = {
    "norm": {
        "kind": (None, "norm_kind", _norm_tag),
        "weight": (None, "norm_weight", _matrix_text),
        "weight_file": (None, "norm_weight_file", str),
    },
    "domain": {
        "lower": (None, "domain_lower", _numbers),
        "upper": (None, "domain_upper", _numbers),
        "t_lo": (None, "t_lo", read_number),
        "t_hi": (None, "t_hi", read_number),
    },
    "sampling": {
        "n_space": ("plan", "n_space", _integer),
        "n_time": ("plan", "n_time", _integer),
        "scheme": ("plan", "scheme", str),
        "seed": ("plan", "seed", _integer),
    },
    "integrator": {
        "method": ("integrator", "method", str.lower),
        "step": ("integrator", "step", read_number),
        "rel_tol": ("integrator", "rel_tol", read_number),
        "abs_tol": ("integrator", "abs_tol", read_number),
        "max_step": ("integrator", "max_step", read_number),
        "max_steps": ("integrator", "max_steps", _integer),
        "tf": (None, "tf", read_number),
    },
    "certify": {"alpha": (None, "alpha_expr", _expression_in_t)},
    "output": {"dir": (None, "out_dir", str)},
}


def _at(lineno, fn, *args, **kwargs):
    """fn(*args, **kwargs), with an InvalidInputError reported as a ConfigError at ``lineno``."""
    try:
        return fn(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), lineno) from None


def _read_sections(text: str):
    """Line scan; syntax problems are collected so one error reports them all."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    problems: list[tuple[int, str]] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                problems.append((lineno, "unterminated section header"))
                current = None
                continue
            name = line[1:-1].strip().lower()
            if name != "system" and name not in SCHEMA:
                problems.append((lineno, f"unknown section [{name}]"))
                current = None
                continue
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            problems.append((lineno, f"expected `key = value`, got {line!r}"))
            continue
        if current is None:
            problems.append((lineno, "key outside any [section]"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            problems.append((lineno, "empty key"))
            continue
        current[key.lower()] = (value, lineno)
    if problems:
        raise ConfigError("syntax errors", errors=problems)
    return sections


def _parse_system(cfg: ScenarioConfig, sec: dict) -> None:
    kind, lineno = sec.pop("type", ("builtin", None))
    cfg.system_kind = kind.lower()
    if cfg.system_kind == "builtin":
        name, lineno = sec.pop("name", ("", None))
        if name not in BUILTIN_NAMES:
            raise ConfigError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}", lineno)
        cfg.builtin_name = name
        cfg.dim = 2
        for key, coerce in (("b", read_number), ("phi", _expression_in_t)):
            if key in sec:
                value, lineno = sec.pop(key)
                cfg.builtin_params[key] = _at(lineno, coerce, value)
    elif cfg.system_kind == "expression":
        if "dim" not in sec:
            raise ConfigError("expression system needs dim")
        value, lineno = sec.pop("dim")
        cfg.dim = _at(lineno, check_count, _at(lineno, _integer, value), "dim")
        in_state = _expression_in(*(f"x{i + 1}" for i in range(cfg.dim)), "t")
        for i in range(cfg.dim):
            key = f"f{i + 1}"
            if key not in sec:
                raise ConfigError(f"expression system with dim={cfg.dim} needs {key}")
            value, lineno = sec.pop(key)
            cfg.f_exprs.append(_at(lineno, in_state, value))
    else:
        raise ConfigError(f"system type must be builtin or expression, got {cfg.system_kind!r}", lineno)

    # perturbation components are allowed for both system kinds
    deltas = {}
    for key in list(sec):
        if key.startswith("delta") and key[5:].isdigit():
            idx = int(key[5:])
            value, lineno = sec.pop(key)
            if not 1 <= idx <= cfg.dim:
                raise ConfigError(f"{key} is outside the state dimension {cfg.dim}", lineno)
            deltas[idx] = _at(lineno, _expression_in_t, value)
        elif cfg.system_kind == "expression" and key.startswith("f") and key[1:].isdigit():
            value, lineno = sec.pop(key)
            raise ConfigError(f"component {key} is outside the state dimension {cfg.dim}", lineno)
    if deltas:
        cfg.delta_exprs = [deltas.get(i + 1, "0") for i in range(cfg.dim)]

    cfg.x0 = [0.0] * cfg.dim
    if "x0" in sec:
        value, lineno = sec.pop("x0")
        cfg.x0 = _at(lineno, _numbers, value)
        if len(cfg.x0) != cfg.dim:
            raise ConfigError(f"x0 has {len(cfg.x0)} entries, system dimension is {cfg.dim}", lineno)
    if "t0" in sec:
        value, lineno = sec.pop("t0")
        cfg.t0 = _at(lineno, read_number, value)
    for key, (_, lineno) in sec.items():
        raise ConfigError(f"unknown key {key!r} in [system]", lineno)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError with line numbers."""
    sections = _read_sections(text)
    if "system" not in sections:
        raise ConfigError("missing required [system] section")
    cfg = ScenarioConfig()
    _parse_system(cfg, dict(sections["system"]))
    for name, keys in SCHEMA.items():
        for key, (raw, lineno) in sections.get(name, {}).items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{name}]", lineno)
            owner, attr, coerce = keys[key]
            cfg.key_lines[name, key] = lineno
            value = _at(lineno, coerce, raw)
            if owner is not None:
                attr, value = owner, _at(lineno, replace, getattr(cfg, owner), **{attr: value})
            setattr(cfg, attr, value)

    if cfg.norm_kind == "weighted" and not (cfg.norm_weight or cfg.norm_weight_file):
        raise ConfigError("weighted norm needs weight or weight_file")
    if len(cfg.domain_lower) != len(cfg.domain_upper):
        raise ConfigError("domain lower and upper have different lengths")
    if cfg.domain_lower and len(cfg.domain_lower) != cfg.dim:
        raise ConfigError(f"domain has {len(cfg.domain_lower)} components, system dimension is {cfg.dim}")
    return cfg


def _render(value) -> str:
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config back to the INI format parse_config accepts.

    [system] is written in full; a table key is written when its value
    differs from the default, and a section only when it has such a key.
    """
    lines = ["[system]", f"type = {cfg.system_kind}"]
    if cfg.system_kind == "builtin":
        lines.append(f"name = {cfg.builtin_name}")
        lines += [f"{key} = {_render(cfg.builtin_params[key])}" for key in sorted(cfg.builtin_params)]
    else:
        lines.append(f"dim = {cfg.dim}")
        lines += [f"f{i + 1} = {e}" for i, e in enumerate(cfg.f_exprs)]
    lines += [f"delta{i + 1} = {e}" for i, e in enumerate(cfg.delta_exprs)]
    lines += [f"x0 = {_render(cfg.x0)}", f"t0 = {cfg.t0!r}"]

    default = ScenarioConfig()
    for name, keys in SCHEMA.items():
        body = []
        for key, (owner, attr, _) in keys.items():
            value, unset = (getattr(getattr(c, owner) if owner else c, attr) for c in (cfg, default))
            if value != unset:
                body.append(f"{key} = {_render(value)}")
        if body:
            lines += ["", f"[{name}]", *body]
    return "\n".join(lines + [""])


def build_norm(cfg: ScenarioConfig, base_dir=".") -> NormKind:
    if cfg.norm_kind != "weighted":
        return NormKind(cfg.norm_kind)
    if cfg.norm_weight:
        return NormKind.weighted(parse_matrix_text(cfg.norm_weight))
    return NormKind.weighted(read_matrix_file(Path(base_dir) / cfg.norm_weight_file))


def build_domain(cfg: ScenarioConfig) -> Domain:
    """The certification box; a box that cannot form is a ConfigError at its key's line."""
    if not cfg.domain_lower:
        raise ConfigError("scenario has no [domain] section")
    lower, upper = np.array(cfg.domain_lower), np.array(cfg.domain_upper)
    # Domain checks lower < upper before t_lo < t_hi; blame the later line of the failing pair
    pair = ("lower", "upper") if not np.all(lower < upper) else ("t_lo", "t_hi")
    lines = [cfg.key_lines.get(("domain", key)) for key in pair]
    lineno = max((ln for ln in lines if ln is not None), default=None)
    return _at(lineno, Domain, lower, upper, cfg.t_lo, cfg.t_hi)


def _compile_delta(cfg: ScenarioConfig):
    if not cfg.delta_exprs:
        return None
    fn = compile_expression([parse_expression(e) for e in cfg.delta_exprs], ["t"])

    def delta(t: float) -> np.ndarray:
        return np.array(fn(float(t)))

    return delta


def build_system(cfg: ScenarioConfig) -> SystemSpec:
    """Instantiate the scenario's SystemSpec (builtin or expression-defined)."""
    if cfg.system_kind == "builtin":
        return build_example1(**cfg.builtin_params, delta=_compile_delta(cfg))

    names = [f"x{i + 1}" for i in range(cfg.dim)] + ["t"]
    nodes = [parse_expression(e) for e in cfg.f_exprs]
    f_fn = compile_expression(nodes, names)

    def f(x: np.ndarray, t: float) -> np.ndarray:
        return np.array(f_fn(*x.tolist(), float(t)))

    try:
        rows = [[differentiate(node, f"x{j + 1}") for j in range(cfg.dim)] for node in nodes]
        jac_fn = compile_expression(rows, names)

        def jac(x: np.ndarray, t: float) -> np.ndarray:
            return np.array(jac_fn(*x.tolist(), float(t)))

    except NonDifferentiableError:
        jac = None  # finite differences take over

    return SystemSpec(dim=cfg.dim, f=f, jac=jac, delta=_compile_delta(cfg), name="expression")


def certify_scenario(
    cfg: ScenarioConfig, system: SystemSpec, norm: NormKind
) -> tuple[ContractionCertificate, ConvergenceReport | None, list[Path]]:
    """The certificate on the [domain] box and the forcing ratio from t0 to tf, each written as a CSV.

    The ratio is judged against the [certify] alpha, or against the
    certificate's empirical rate alpha0 when the scenario gives no alpha; with
    neither, there is no ratio (None) and no ratio.csv. Returns the
    certificate, the ratio report and the files written to the output dir.
    """
    alpha_fn = _function_of_t(cfg.alpha_expr) if cfg.alpha_expr else None
    certificate = estimate_contraction_rate(system, build_domain(cfg), norm, cfg.plan, alpha_fn=alpha_fn)
    if alpha_fn is None and certificate.alpha0_estimate is not None:
        alpha0 = certificate.alpha0_estimate
        alpha_fn = lambda t: alpha0
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [export_report_csv(certificate, out_dir / "certificate.csv", name="contraction certificate")]
    ratio = None
    if alpha_fn is not None:
        ratio = check_forcing_ratio(system, alpha_fn, cfg.t0, cfg.tf, kind=norm)
        files.append(export_report_csv(ratio, out_dir / "ratio.csv", name="forcing ratio"))
    return certificate, ratio, files


def simulate_scenario(cfg: ScenarioConfig, system: SystemSpec) -> tuple[Trajectory, list[Path]]:
    """The trajectory from x0 over [t0, tf], sampled every OUTPUT_STEP, written as trajectory.csv and x1.csv .. xn.csv."""
    grid = np.linspace(cfg.t0, cfg.tf, max(2, int(round((cfg.tf - cfg.t0) / OUTPUT_STEP)) + 1))
    trajectory = integrate(system, np.array(cfg.x0), cfg.t0, cfg.tf, cfg.integrator, sample_times=grid)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [export_trajectory_csv(trajectory, out_dir / "trajectory.csv")]
    files += [export_component_csv(trajectory, i, out_dir / f"x{i + 1}.csv") for i in range(system.dim)]
    return trajectory, files


def certificate_lines(cert: ContractionCertificate) -> list[str]:
    """The certificate in words, as ``logstab certify`` prints it and the demo's report.txt records it."""
    lines = [
        f"contraction certificate: {cert.verdict}",
        f"  sampled sup of mu[J] = {cert.mu_sup:.7g} over {cert.n_samples} samples",
    ]
    if cert.alpha0_estimate is not None:
        lines.append(f"  empirical rate alpha0 = {cert.alpha0_estimate:.7g}")
    if cert.dominance_ok is not None:
        lines.append(f"  analytic-rate dominance: {cert.dominance_ok} (margin {cert.dominance_margin:.3e})")
    lines.append("  note: the certificate covers the sampled domain only; it is not a global proof.")
    return lines


def ratio_line(ratio: ConvergenceReport) -> str:
    """The forcing-ratio verdict in one line, as ``logstab certify`` prints it and report.txt records it."""
    return f"forcing ratio: {ratio.verdict} (slope {ratio.trend_slope:.3f}, final {ratio.final_ratio:.3e})"
