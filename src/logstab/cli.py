"""Command-line front end.

Subcommands: ``lognorm`` (matrix in, log norms out), ``certify`` (scenario
config in, contraction certificate + forcing-ratio report out), ``simulate``
(scenario config in, trajectory CSV out) and ``demo`` (built-in scenarios).

Exit codes: 0 success/verified, 1 a check failed, 2 usage or config error,
3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .certify import check_forcing_ratio, estimate_contraction_rate
from .config import build_domain, build_norm, build_system, parse_config
from .csvio import (
    export_component_csv,
    export_report_csv,
    export_trajectory_csv,
    parse_matrix_text,
    read_matrix_file,
)
from .demos import DEMO_VARIANTS, run_demo_example1
from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    InvalidNormError,
    LogstabError,
)
from .expr import ExprSyntaxError, compile_expression, parse_expression
from .integrate import integrate
from .linalg import NormKind
from .lognorm import log_norm_all_routes

_USAGE_ERRORS = (ConfigError, ExprSyntaxError, InvalidNormError, InvalidInputError, DimensionError)


def _parse_norm_flag(text: str) -> NormKind:
    text = text.strip()
    if text.startswith("weighted:"):
        return NormKind.weighted(read_matrix_file(text.split(":", 1)[1]))
    if text == "weighted":
        raise InvalidNormError("weighted norm needs a matrix file: weighted:PFILE")
    return NormKind(text)


def cmd_lognorm(args) -> int:
    if args.inline:
        matrix = parse_matrix_text(args.inline)
    elif args.matrix:
        matrix = read_matrix_file(args.matrix)
    else:
        raise InvalidInputError("lognorm needs a matrix file or --inline text")
    norms = args.norm or ["l1", "l2", "linf"]
    print(f"{'norm':>10} {'method':>16} {'value':>24}")
    for spec in norms:
        kind = _parse_norm_flag(spec)
        for res in log_norm_all_routes(matrix, kind):
            print(f"{kind.tag:>10} {res.method:>16} {res.value:>24.16g}")
    return 0


def _load_scenario(args):
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if getattr(args, "seed", None) is not None:
        cfg.plan = replace(cfg.plan, seed=args.seed)
    if getattr(args, "tf", None) is not None:
        cfg.tf = args.tf
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg


def cmd_certify(args) -> int:
    cfg = _load_scenario(args)
    system = build_system(cfg)
    norm = _parse_norm_flag(args.norm) if args.norm else build_norm(cfg, Path(args.config).parent)
    domain = build_domain(cfg)
    alpha_fn = None
    if cfg.alpha_expr:
        alpha_fn = compile_expression(parse_expression(cfg.alpha_expr), ["t"])

    cert = estimate_contraction_rate(system, domain, norm, cfg.plan, alpha_fn=alpha_fn)
    print(f"contraction certificate: {cert.verdict}")
    print(f"  sampled sup of mu[J] = {cert.mu_sup:.7g} over {cert.n_samples} samples")
    if cert.alpha0_estimate is not None:
        print(f"  empirical rate alpha0 = {cert.alpha0_estimate:.7g}")
    if cert.dominance_ok is not None:
        print(f"  analytic-rate dominance: {cert.dominance_ok} (margin {cert.dominance_margin:.3e})")
    print("  note: certified on the sampled domain only; this is not a global proof.")

    ratio_alpha = alpha_fn
    if ratio_alpha is None and cert.alpha0_estimate is not None:
        a0 = cert.alpha0_estimate
        ratio_alpha = lambda t: a0
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_report_csv(cert, out_dir / "certificate.csv", name="contraction certificate")
    if ratio_alpha is not None:
        t_lo = system.t0
        ratio = check_forcing_ratio(system, ratio_alpha, t_lo, cfg.tf, kind=norm)
        print(f"forcing ratio: {ratio.verdict} (slope {ratio.trend_slope:.3f}, final {ratio.final_ratio:.3e})")
        export_report_csv(ratio, out_dir / "ratio.csv", name="forcing ratio")
    print(f"reports written to {out_dir}")
    return 0 if cert.verdict == "certified_on_domain" else 1


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    system = build_system(cfg)
    t0 = cfg.t0
    tf = cfg.tf
    grid = np.linspace(t0, tf, max(2, int(round((tf - t0) / 0.05)) + 1))
    traj = integrate(system, np.array(cfg.x0), t0, tf, cfg.integrator, sample_times=grid)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [export_trajectory_csv(traj, out_dir / "trajectory.csv")]
    for i in range(system.dim):
        files.append(export_component_csv(traj, i, out_dir / f"x{i + 1}.csv"))
    print(f"integrated {system.name or 'system'} to t={tf}: final state {traj.states[-1].tolist()}")
    print(f"wrote {', '.join(str(f) for f in files)}")
    return 0


def cmd_demo(args) -> int:
    if args.name != "example1":
        raise InvalidInputError(f"unknown demo {args.name!r}; available: example1")
    result = run_demo_example1(args.variant, args.out, tf=args.tf, seed=args.seed)
    print(f"demo example1 variant={result.variant}")
    print(f"  certificate: {result.certificate.verdict}")
    print(f"  forcing ratio: {result.ratio_report.verdict}")
    print(f"  final state: {result.final_state.tolist()}")
    print(f"  expected outcome held: {result.expected_outcome_held}")
    print(f"  artifacts: {', '.join(result.out_files)}")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logstab",
        description="Matrix log norms and sampled incremental-stability certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lognorm", help="log norms of a matrix under the requested norms")
    p.add_argument("matrix", nargs="?", help="matrix file (whitespace-separated rows)")
    p.add_argument("--inline", help="matrix text, rows separated by ';'")
    p.add_argument(
        "--norm",
        action="append",
        help="l1, l2, linf or weighted:PFILE (repeatable; default l1,l2,linf)",
    )
    p.set_defaults(func=cmd_lognorm)

    p = sub.add_parser("certify", help="contraction certificate + forcing-ratio report")
    p.add_argument("--config", required=True, help="scenario config path")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--norm", help="norm override: l1, l2, linf or weighted:PFILE")
    p.add_argument("--seed", type=int, help="sampling seed override")
    p.add_argument("--tf", type=float, help="ratio-check horizon override")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate the scenario and export CSV")
    p.add_argument("--config", required=True, help="scenario config path")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--tf", type=float, help="final time override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="run a built-in demo scenario")
    p.add_argument("name", help="demo name (example1)")
    p.add_argument("--variant", choices=DEMO_VARIANTS, default="fig1")
    p.add_argument("--out", default="demo_out", help="output directory")
    p.add_argument("--tf", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
