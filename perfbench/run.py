"""Benchmark of logstab: three closed-loop workloads, one client, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload is a cycle of operations, run whole again and again until the
operations' nominal time (below) reaches ``--seconds``. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the same cycle alternately
untraced and traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and the run metadata. A copy of the result,
with per-operation timings, is written to ``.perfbench_out/``.

Times are reported in nominal seconds. A fixed probe of interpreter and
small-array work (``speed_probe``, independent of logstab) runs between
operations, and a shorter one every TICK_INTERVAL_S while an operation runs
(``TickProbe``, whose time is left out). Each operation's wall time is scaled
by the probe's nominal speed over the mean speed of the probes before,
during and after it. The host's speed drifts by tens of percent within a
second, and the probes cancel most of that drift; the raw wall times are
kept in the result file.

logstab is imported from ``src/`` next to this directory; nothing is
installed. Scratch inputs and outputs live in ``.perfbench_work/`` and are
removed when the run ends.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # one client, no extra threads: pin BLAS before numpy loads
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("certify-sweep", "stiff-trajectory", "ltv-envelope")
# end-to-end metric name -> unit, as BENCHMARK.json lists them
END_TO_END_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
WALL_CAP = 2  # stop after this many times --seconds of wall time, however slow the host
PROBE_ITERS = 1500  # about 10 ms on a 2 GHz Xeon core
PROBE_NOMINAL_S = 0.010
TICK_ITERS = 400  # about 3 ms
TICK_INTERVAL_S = 0.1
_PROBE_MATRIX = np.array([[-1.0, 0.3], [0.2, -2.0]])


class BenchError(Exception):
    """The benchmark cannot run here (for example, no logstab sources)."""


def tail_percentile(n_ops: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND operations beyond it.

    A fixed ladder, rather than 100 * (1 - 10/n), keeps the chosen percentile
    the same across runs whose operation counts differ a little. Below
    2 * TAIL_BEYOND operations no ladder step qualifies and the exact
    percentile with TAIL_BEYOND operations beyond it is used (0 when n <= 10).
    """
    for p in TAIL_LADDER:
        if n_ops * round(1000 - 10 * p) >= 1000 * TAIL_BEYOND:  # in tenths of a percent: exact
            return p
    return max(0.0, 100.0 * (n_ops - TAIL_BEYOND) / n_ops) if n_ops else 0.0


def speed_probe(iterations: int = PROBE_ITERS) -> float:
    """Seconds per iteration of a fixed loop of small-array arithmetic."""
    a, y, h = _PROBE_MATRIX, np.array([1.0, 2.0]), 1e-3
    start = time.perf_counter()
    for _ in range(iterations):
        k1 = a @ y
        y = y + h * (a @ (y + (0.5 * h) * k1))
        if not np.all(np.isfinite(y)):
            break
    return (time.perf_counter() - start) / iterations


def nominal(seconds: float, speeds) -> float:
    """Wall time rescaled to the speed at which PROBE_ITERS iterations take PROBE_NOMINAL_S."""
    return seconds * (PROBE_NOMINAL_S / PROBE_ITERS) / (sum(speeds) / len(speeds))


class TickProbe:
    """Runs a short speed probe every TICK_INTERVAL_S while the block runs.

    The probes run in a SIGALRM handler, so in the main thread between
    bytecodes; ``ticks`` holds (start, seconds spent, seconds per iteration).
    Long operations thus get the machine's speed sampled while they run, not
    only at their ends.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        per_iteration = speed_probe(TICK_ITERS)
        self.ticks.append((start, time.perf_counter() - start, per_iteration))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def load_logstab():
    """Import logstab from this checkout's src/, refusing any other copy."""
    if not (SRC / "logstab" / "__init__.py").is_file():
        raise BenchError(f"no logstab sources at {SRC / 'logstab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import logstab

    if Path(logstab.__file__).resolve().parent != (SRC / "logstab").resolve():
        raise BenchError(f"imported logstab from {logstab.__file__}, expected {SRC / 'logstab'}")
    return logstab


def setup(workload: str, seed: int, workdir: Path):
    """Import logstab, generate the inputs and warm up; returns (ops, nominal seconds)."""
    speed_probe()  # the first call pays for numpy's lazy set-up
    before = speed_probe()
    start = time.perf_counter()
    load_logstab()
    import workloads

    ops = workloads.build_workload(workload, seed, workdir)
    for op in ops:
        if op.warm:
            op.run()
    elapsed = time.perf_counter() - start
    return ops, nominal(elapsed, [before, speed_probe()])


def probe_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def prepare_expected(ops, workdir: Path) -> None:
    """Compute every oracle and reference trajectory, outside set-up and timing."""
    for op in ops:
        if op.oracle is not None:
            op.expected = op.oracle()
    requests = [op for op in ops if op.trajectory is not None]
    if not requests:
        return
    req_path, res_path = workdir / "reference_requests.json", workdir / "reference_states.json"
    req_path.write_text(json.dumps([op.trajectory for op in requests]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), str(req_path), str(res_path)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"reference trajectories failed: {proc.stderr.strip()[-500:]}")
    for op, states in zip(requests, json.loads(res_path.read_text())):
        op.expected = {"times": op.trajectory["times"], "states": states}


def run_op(op, tick: bool = False):
    """Run one operation and check its output.

    Returns (seconds, failure, traj_err, speeds). With ``tick`` the machine's
    speed is probed every TICK_INTERVAL_S while the operation runs; the
    probes' time is left out of ``seconds`` and their speeds are returned.
    """
    probe = TickProbe() if tick else contextlib.nullcontext()
    error = None
    with probe:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, and the loop goes on
            out, error = None, exc
        end = time.perf_counter()
    ticks = [t for t in getattr(probe, "ticks", ()) if start <= t[0] < end]
    elapsed = end - start - sum(t[1] for t in ticks)
    speeds = [t[2] for t in ticks]
    if error is not None:
        return elapsed, f"raised {type(error).__name__}: {error}", None, speeds
    try:
        failure = op.check(out, op.expected)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    out_dir = getattr(out, "out_dir", None)
    if out_dir is not None:  # so that the next pass cannot read this pass's files
        shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, failure, getattr(out, "traj_err", None), speeds


@dataclass
class Record:
    op: int  # index into the cycle
    seconds: float  # wall time
    nominal_s: float  # wall time at the probe's nominal speed
    failure: Optional[str]
    traj_err: Optional[float]
    first_span: int = 0
    counts: Optional[dict] = None  # tracer counts this operation added


def run_cycle(ops, records: list, tracer=None) -> float:
    """One pass over the cycle, appending a Record per operation; returns nominal seconds."""
    total = 0.0
    probe_before = speed_probe()
    for i, op in enumerate(ops):
        first_span = len(tracer.spans) if tracer else 0
        counts_before = dict(tracer.counts) if tracer else {}
        # no ticks while tracing: their time would land in the spans' self times
        elapsed, failure, traj_err, speeds = run_op(op, tick=tracer is None)
        counts = None
        if tracer:
            tracer.end_op()
            counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items() if v != counts_before.get(k, 0)}
        probe_after = speed_probe()
        rec = Record(i, elapsed, nominal(elapsed, [probe_before, *speeds, probe_after]), failure, traj_err, first_span, counts)
        records.append(rec)
        total += rec.nominal_s
        probe_before = probe_after
    return total


def end_to_end(ops, records, setup_samples) -> dict[str, float]:
    durations = np.array([r.nominal_s for r in records])
    busy = float(durations.sum())
    failed = sum(1 for r in records if r.failure)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(records) / busy,
        "op_p50_ms": float(np.percentile(durations, 50.0)) * 1e3,
        "op_tail_ms": float(np.percentile(durations, tail_percentile(len(records)))) * 1e3,
        "samples_per_s": sum(ops[r.op].samples for r in records) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(records),
    }


OP_COUNTS = ("integrate.steps_accepted", "integrate.steps_rejected", "certify.samples", "system.f_evals")


def op_breakdown(ops, records, tracer, selfs) -> list[str]:
    """Per-operation self-time shares and counts of the last traced pass."""
    last = records[-len(ops):]
    bounds = [r.first_span for r in last] + [len(tracer.spans)]
    lines = []
    for k, rec in enumerate(last):
        i, elapsed = rec.op, rec.seconds
        by_name: dict[str, float] = {}
        for s in range(bounds[k], bounds[k + 1]):
            name = tracer.spans[s][0]
            by_name[name] = by_name.get(name, 0.0) + selfs[s]
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {100.0 * v / elapsed:.0f}%" for name, v in top)
        counted = ", ".join(f"{k.split('.', 1)[1]} {rec.counts[k]}" for k in OP_COUNTS if rec.counts.get(k))
        integrations = sum(1 for s in range(bounds[k], bounds[k + 1]) if tracer.spans[s][0] == "integrate.integrate")
        if integrations:
            counted += f", integrations {integrations}"
        lines.append(f"trace {ops[i].label}: {elapsed * 1e3:.1f} ms; self time {shares}; {counted}")
    return lines


def run_metadata(workload, seed, seconds, trace, ops, cycles, n_records) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "logstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "ops_per_cycle": len(ops),
        "cycles": cycles,
        "ops": n_records,
        "op_tail_percentile": tail_percentile(n_records) if not trace else None,
    }


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops, first_setup = setup(workload, seed, workdir)
        setup_samples = [first_setup]
        if not trace:
            setup_samples += probe_setups(workload, seed, SETUP_REPEATS - 1)
        prepare_expected(ops, workdir)

        records: list = []
        plain_records: list = []
        tracer = None
        cycles = 0
        measured = 0.0  # nominal seconds of operation time
        start = time.perf_counter()

        def more() -> bool:
            return cycles == 0 or (measured < seconds and time.perf_counter() - start < WALL_CAP * seconds)

        if not trace:
            while more():
                measured += run_cycle(ops, records)
                cycles += 1
        else:
            from tracing import Tracer

            tracer = Tracer()
            plain_wall = traced_wall = 0.0
            while more():
                plain_wall += run_cycle(ops, plain_records)
                with tracer:
                    traced_wall += run_cycle(ops, records, tracer)
                measured = plain_wall + traced_wall
                cycles += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_records = plain_records + records
    failures = [(ops[r.op].label, r.failure) for r in all_records if r.failure]
    result = {
        "correct": not failures,
        "attempted": len(all_records),
        "failed": len(failures),
    }
    if trace:
        from tracing import PER_LAYER_UNITS, layer_metrics, self_times

        values = layer_metrics(tracer.spans, tracer.counts, passes=cycles)
        errs = [r.traj_err for r in all_records if r.traj_err is not None]
        values["integrate.traj_err"] = max(errs) if errs else 0.0
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        units = PER_LAYER_UNITS
        selfs = self_times(tracer.spans)
        notes = op_breakdown(ops, records, tracer, selfs)
        by_layer: dict[str, float] = {}
        for (name, *_), value in zip(tracer.spans, selfs):
            by_layer[name] = by_layer.get(name, 0.0) + value
        traced_raw = sum(r.seconds for r in records)
        top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:5]
        notes.append(
            f"trace traced pass {traced_wall / cycles:.3f} s, untraced {plain_wall / cycles:.3f} s (nominal); "
            "share of the traced wall time by self time: " + ", ".join(f"{n} {100.0 * v / traced_raw:.0f}%" for n, v in top)
        )
    else:
        values = end_to_end(ops, records, setup_samples)
        units = END_TO_END_UNITS
        raw = np.array([r.seconds for r in records])
        notes = [
            f"setup samples (nominal s): {', '.join(f'{v:.4f}' for v in setup_samples)}",
            f"raw wall: {len(raw) / raw.sum():.4g} ops/s, p50 {np.percentile(raw, 50.0) * 1e3:.4g} ms, "
            f"p{tail_percentile(len(raw)):g} {np.percentile(raw, tail_percentile(len(raw))) * 1e3:.4g} ms",
        ]
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    meta = run_metadata(workload, seed, seconds, trace, ops, cycles, len(records))
    return {
        "result": result,
        "meta": meta,
        "notes": notes,
        "failures": failures,
        "timings": [
            {"op": ops[r.op].label, "seconds": r.seconds, "nominal_s": r.nominal_s, "traced": trace and k >= len(plain_records)}
            for k, r in enumerate(all_records)
        ],
    }


def print_report(report: dict) -> None:
    result, meta = report["result"], report["meta"]
    for label, failure in report["failures"]:
        print(f"FAILED {label}: {failure}")
    for line in report["notes"]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{meta['workload']:>16} {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{meta['workload']:>16} attempted {result['attempted']} failed {result['failed']}")
    print("meta " + json.dumps(meta, sort_keys=True))


def save_report(report: dict) -> None:
    meta = report["meta"]
    OUT.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=3 * CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = WORK / f"probe-{args.workload}-{os.getpid()}"
            try:
                _, elapsed = setup(args.workload, args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print_report(report)
    save_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
