"""Command-line front end.

Subcommands: ``lognorm`` (matrix in, log norms out), ``certify`` (scenario
config in, contraction certificate + forcing-ratio report out), ``simulate``
(scenario config in, trajectory CSV out) and ``demo`` (the built-in scenario
config texts of ``demos``). ``certify``, ``simulate`` and ``demo`` run the
scenario steps of ``config``; this module handles the arguments and prints.

Exit codes: 0 success/verified, 1 a check failed, 2 usage or config error,
3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .certify import CERTIFIED
from .config import build_norm, build_system, parse_config, simulate_scenario
from .config import certificate_lines, certify_scenario, ratio_line
from .csvio import parse_matrix_text, read_matrix_file
from .demos import DEMO_VARIANTS, run_demo_example1
from .errors import ConfigError, DimensionError, InvalidInputError, InvalidNormError, LogstabError, read_number
from .expr import ExprSyntaxError
from .linalg import NormKind
from .lognorm import log_norm_all_routes

_USAGE_ERRORS = (ConfigError, ExprSyntaxError, InvalidNormError, InvalidInputError, DimensionError)


def _finite_float(text: str) -> float:
    """argparse type of the time flags: nan and inf exit 2 naming the flag."""
    try:
        return read_number(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_norm_flag(text: str) -> NormKind:
    """TAG or TAG:PFILE, read as ``[norm] kind`` is: the tag in any case, spaces around either part ignored."""
    tag, colon, path = text.partition(":")
    tag, path = tag.strip().lower(), path.strip()
    if tag != "weighted":
        kind = NormKind(tag)
        if colon:
            raise InvalidNormError(f"norm kind {tag!r} takes no weight matrix")
        return kind
    if not path:
        raise InvalidNormError("weighted norm needs a matrix file: weighted:PFILE")
    return NormKind.weighted(read_matrix_file(path))


def cmd_lognorm(args) -> int:
    if args.inline:
        matrix = parse_matrix_text(args.inline)
    elif args.matrix:
        matrix = read_matrix_file(args.matrix)
    else:
        raise InvalidInputError("lognorm needs a matrix file or --inline text")
    kinds = [_parse_norm_flag(spec) for spec in args.norm or ["l1", "l2", "linf"]]
    # every value before the first line, so a bad flag or weight prints nothing
    rows = [(kind.tag, res) for kind in kinds for res in log_norm_all_routes(matrix, kind)]
    print(f"{'norm':>10} {'method':>16} {'value':>24}")
    for tag, res in rows:
        print(f"{tag:>10} {res.method:>16} {res.value:>24.16g}")
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
    certificate, ratio, _ = certify_scenario(cfg, system, norm)
    print("\n".join(certificate_lines(certificate)))
    if ratio is not None:
        print(ratio_line(ratio))
    print(f"reports written to {Path(cfg.out_dir)}")
    return 0 if certificate.verdict == CERTIFIED else 1


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    system = build_system(cfg)
    trajectory, files = simulate_scenario(cfg, system)
    print(f"integrated {system.name or 'system'} to t={cfg.tf}: final state {trajectory.states[-1].tolist()}")
    print(f"wrote {', '.join(str(f) for f in files)}")
    return 0


def cmd_demo(args) -> int:
    if args.name != "example1":
        raise InvalidInputError(f"unknown demo {args.name!r}; available: example1")
    certificate, ratio, trajectory, files, held = run_demo_example1(args.variant, args.out, tf=args.tf, seed=args.seed)
    print(f"demo example1 variant={args.variant}")
    print(f"  certificate: {certificate.verdict}")
    print(f"  forcing ratio: {ratio.verdict}")
    print(f"  final state: {trajectory.states[-1].tolist()}")
    print(f"  expected outcome held: {held}")
    print(f"  artifacts: {', '.join(str(f) for f in files)}")
    return 0 if held else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing neither changes it nor keeps a run's arguments."""
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
    p.add_argument("--tf", type=_finite_float, help="ratio-check horizon override")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate the scenario and export CSV")
    p.add_argument("--config", required=True, help="scenario config path")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--tf", type=_finite_float, help="final time override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="run a built-in demo scenario")
    p.add_argument("name", help="demo name (example1)")
    p.add_argument("--variant", choices=DEMO_VARIANTS, default="fig1")
    p.add_argument("--out", default="demo_out", help="output directory")
    p.add_argument("--tf", type=_finite_float, default=20.0)
    p.add_argument(
        "--seed",
        type=int,
        default=42,
        help="recorded as plan.seed in certificate.csv; the demo samples on a uniform grid, "
        "so the seed changes nothing else",
    )
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
    except MemoryError as exc:  # a sweep or run too large to hold is a runtime error, not a failed check
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
