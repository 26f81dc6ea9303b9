"""CSV export of trajectories and reports, plus matrix file parsing.

Floats are written with 17 significant digits so files round-trip exactly
through IEEE doubles. A trajectory or component table is formatted in one
pass of a row template over the whole table and written in one call, with
the bytes ``np.savetxt`` would write, at less than half its cost. Reports
flatten to key,value rows; per-sample series inside a report become their
own bracketed sections with a two-column layout, each formatted by the same
row template.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, read_number
from .integrate import Trajectory


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def _format_rows(table: np.ndarray) -> str:
    """One line per row of the 2-D ``table``, every float with 17 significant digits, as format_float writes it.

    The row template "%.17g,...,%.17g\\n", repeated once per row, formats the
    whole table in one pass.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _write_table(path: Path, header: str, columns) -> Path:
    """The header line, then one row of ``columns`` per line, written in one call.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``.
    """
    path.write_text(header + "\n" + _format_rows(np.column_stack(columns)))
    return path


def export_trajectory_csv(traj: Trajectory, path) -> Path:
    """Write `t,x1,...,xn` rows; header-only (with a warning) when empty."""
    path = Path(path)
    header = "t," + ",".join(f"x{i + 1}" for i in range(traj.states.shape[1]))
    if traj.times.size == 0:
        print(f"warning: exporting empty trajectory to {path}", file=sys.stderr)
    return _write_table(path, header, (traj.times, traj.states))


def export_component_csv(traj: Trajectory, component: int, path) -> Path:
    """Plot data for one state component: `t,x{i}` rows."""
    path = Path(path)
    if not 0 <= component < traj.states.shape[1]:
        raise InvalidInputError(f"component {component} out of range for dim {traj.states.shape[1]}")
    return _write_table(path, f"t,x{component + 1}", (traj.times, traj.states[:, component]))


def load_trajectory_csv(path) -> Trajectory:
    """Read a file written by export_trajectory_csv back into a Trajectory."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "t":
        raise InvalidInputError(f"{path}: expected header starting with 't'")
    n = len(header) - 1
    times = []
    states = []
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != n + 1:
            raise InvalidInputError(f"{path}: row has {len(parts)} fields, expected {n + 1}")
        where = f"{path}: row {i}"
        row = [read_number(p, where) for p in parts]
        times.append(row[0])
        states.append(row[1:])
    return Trajectory(np.array(times), np.array(states).reshape(len(times), n))


def _flatten_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    if isinstance(v, np.ndarray):
        return " ".join(format_float(x) for x in np.asarray(v, dtype=float).ravel())
    if isinstance(v, (list, tuple)) and all(isinstance(x, (int, float, np.floating)) for x in v):
        return " ".join(format_float(x) for x in v)
    return str(v)


def export_report_csv(report, path, name: str | None = None) -> Path:
    """Flatten a report dataclass to `key,value` rows.

    Nested dataclasses contribute dotted keys; lists of (t, value) pairs are
    emitted as their own `[field]` section after the scalar block.
    """
    if not dataclasses.is_dataclass(report):
        raise InvalidInputError("export_report_csv expects a dataclass report")
    path = Path(path)
    scalars = []
    series = []

    def visit(prefix: str, obj):
        for f in dataclasses.fields(obj):
            key = f"{prefix}{f.name}"
            v = getattr(obj, f.name)
            if dataclasses.is_dataclass(v) and not isinstance(v, type):
                visit(f"{key}.", v)
            elif isinstance(v, list) and v and isinstance(v[0], tuple) and len(v[0]) == 2:
                series.append((key, v))
            else:
                scalars.append((key, _flatten_value(v)))

    visit("", report)
    lines = [f"# {name or type(report).__name__}", "key,value"]
    lines += [f"{k},{v}" for k, v in scalars]
    text = "\n".join(lines) + "\n"
    for key, rows in series:
        text += f"[{key}]\nt,value\n" + _format_rows(np.array(rows, dtype=float))
    path.write_text(text)
    return path


def parse_matrix_text(text: str) -> np.ndarray:
    """Whitespace-separated rows; rows split on newlines or ';'."""
    rows = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    if not rows:
        raise InvalidInputError("empty matrix text")
    data = [[read_number(v, "matrix entry") for v in r.split()] for r in rows]
    if len({len(vals) for vals in data}) > 1:
        raise InvalidInputError("matrix rows have inconsistent widths")
    return np.array(data)


def read_matrix_file(path) -> np.ndarray:
    return parse_matrix_text(Path(path).read_text())
