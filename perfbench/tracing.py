"""Span tracing of logstab from outside the package.

The tracer replaces public functions of the logstab modules with wrappers
that record one span per call: name, start, end and the index of the
enclosing span. A function is wrapped at every module that binds it (for
example ``logstab.certify.log_norm`` as well as ``logstab.lognorm.log_norm``),
and all bindings share one wrapper, so each call gives exactly one span.
Calls into user callables (the ``f``, ``jac`` and ``delta`` of every
``SystemSpec`` built while tracing) are counted, not spanned.

Spans stay in memory; ``layer_metrics`` turns them into per-layer counts and
self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# module -> public functions that get one span per call
TRACED = {
    "linalg": ("sym_eig", "sym_eig_max", "induced_matrix_norm", "solve", "cond_2", "vec_norm"),
    "lognorm": ("log_norm", "log_norm_pair", "log_norm_limit_table"),
    "system": ("jacobian",),
    "integrate": ("integrate", "integrate_fundamental", "check_transition_bounds"),
    "certify": (
        "estimate_contraction_rate",
        "verify_incremental_bound",
        "check_forcing_ratio",
        "check_demidovich",
        "verify_origin_convergence",
    ),
    "config": ("parse_config", "build_system"),
    "expr": ("differentiate", "compile_expression"),
    "csvio": ("export_trajectory_csv", "export_component_csv", "export_report_csv"),
    "cli": ("main",),
    "demos": ("run_demo_example1",),
}

# per-layer metric name -> unit, as BENCHMARK.json lists them
PER_LAYER_UNITS: dict[str, str] = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}
# names measured by the run itself rather than computed from the spans
MEASURED_BY_RUN = ("integrate.traj_err", "trace.overhead_frac")
# per-layer counts kept in Tracer.counts
COUNTED = {
    "system.f_evals",
    "system.jac_evals",
    "system.delta_evals",
    "integrate.steps_accepted",
    "integrate.steps_rejected",
    "certify.samples",
    "csvio.bytes_written",
    *(f"{mod}.errors" for mod in TRACED),
}


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        """Wrapper recording one span named ``name`` per call of ``fn``."""
        module = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # charge an error to the module it left first, not to every caller
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.counts[f"{module}.errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def count_calls(self, key: str, fn):
        """Wrapper counting calls of a user callable without a span."""
        if fn is None:
            return None
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def end_op(self) -> None:
        """Forget error identities once an operation has finished."""
        self._seen_errors.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every logstab module that binds it."""
        homes = {short: importlib.import_module(f"logstab.{short}") for short in TRACED}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "logstab" or n.startswith("logstab.")]
        hooks = self._return_hooks()
        for short, names in TRACED.items():
            home = homes[short]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original, hooks.get(f"{short}.{fn_name}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

        spec_cls = homes["system"].SystemSpec
        original_post_init = spec_cls.__post_init__
        tracer = self

        def post_init(spec):
            original_post_init(spec)
            spec.f = tracer.count_calls("system.f_evals", spec.f)
            spec.jac = tracer.count_calls("system.jac_evals", spec.jac)
            spec.delta = tracer.count_calls("system.delta_evals", spec.delta)

        self._restore.append((spec_cls, "__post_init__", original_post_init))
        spec_cls.__post_init__ = post_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _return_hooks(self):
        counts = self.counts

        def integrate_done(args, kwargs, traj):
            counts["integrate.steps_accepted"] += int(traj.n_steps)
            counts["integrate.steps_rejected"] += int(traj.n_rejected)

        def sweep_done(args, kwargs, report):
            counts["certify.samples"] += int(report.n_samples)

        def pairs_done(args, kwargs, report):
            counts["certify.pairs"] += int(report.pair_count)

        def file_done(args, kwargs, path):
            counts["csvio.bytes_written"] += Path(path).stat().st_size

        return {
            "integrate.integrate": integrate_done,
            "certify.estimate_contraction_rate": sweep_done,
            "certify.check_demidovich": sweep_done,
            "certify.verify_incremental_bound": pairs_done,
            "csvio.export_trajectory_csv": file_done,
            "csvio.export_component_csv": file_done,
            "csvio.export_report_csv": file_done,
        }


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover.

    Children are clipped to the parent interval and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def outermost_total(spans, name: str) -> float:
    """Summed duration of spans called ``name`` that no span of that name encloses."""
    total = 0.0
    for start, end, parent in ((s, e, p) for n, s, e, p in spans if n == name):
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total


def has_ancestor(spans, index: int, name: str) -> bool:
    p = spans[index][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, counts, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics of ``passes`` identical traced passes, per pass.

    Every name of PER_LAYER_UNITS except MEASURED_BY_RUN is filled in; layers
    a workload never reaches report 0. A name this function cannot compute
    raises ValueError.
    """
    traced = {f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns}
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
    integrations_in_pairs = sum(
        1
        for i, rec in enumerate(spans)
        if rec[0] == "integrate.integrate" and has_ancestor(spans, i, "certify.verify_incremental_bound")
    )

    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        if key in MEASURED_BY_RUN:
            continue
        base, _, stat = key.rpartition(".")
        if stat in ("calls", "self_s", "total_s") and base not in traced:
            raise ValueError(f"per-layer metric {key}: {base} is not traced")
        if stat == "calls":
            value = calls[base]
        elif stat == "self_s":
            value = self_s[base]
        elif stat == "total_s":
            value = outermost_total(spans, base)
        elif key == "integrate.accept_ratio":
            tried = counts["integrate.steps_accepted"] + counts["integrate.steps_rejected"]
            value = counts["integrate.steps_accepted"] / tried if tried else 0.0
        elif key == "certify.integrations_per_pair":
            pairs = counts["certify.pairs"]
            value = integrations_in_pairs / pairs if pairs else 0.0
        elif key in COUNTED:
            value = counts[key]
        else:
            raise ValueError(f"per-layer metric {key} is not computed by the tracer")
        out[key] = value if PER_LAYER_UNITS[key] == "ratio" else value / passes
    return out
