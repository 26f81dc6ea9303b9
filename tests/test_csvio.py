import re

import numpy as np
import pytest

from logstab.certify import ConvergenceReport, Domain, RateIntegralReport, SamplingPlan, estimate_contraction_rate
from logstab.csvio import (
    export_component_csv,
    export_report_csv,
    export_trajectory_csv,
    format_float,
    load_trajectory_csv,
    parse_matrix_text,
    read_matrix_file,
)
from logstab.errors import InvalidInputError
from logstab.integrate import Trajectory
from logstab.linalg import NormKind


class TestTrajectoryExport:
    def test_two_sample_scalar_trajectory(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [0.5]]))
        path = export_trajectory_csv(traj, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 3

    def test_round_trip_is_exact(self, fig1_trajectory, tmp_path):
        path = export_trajectory_csv(fig1_trajectory, tmp_path / "demo.csv")
        back = load_trajectory_csv(path)
        # 17 significant digits round-trip IEEE doubles bit for bit
        assert np.array_equal(back.times, fig1_trajectory.times)
        assert np.array_equal(back.states, fig1_trajectory.states)

    def test_empty_trajectory_writes_header_and_warns(self, tmp_path, capsys):
        traj = Trajectory(np.zeros(0), np.zeros((0, 3)))
        path = export_trajectory_csv(traj, tmp_path / "empty.csv")
        assert path.read_text() == "t,x1,x2,x3\n"
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "states",
        [
            np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1e16], [0.1, -1.5]]),
            np.zeros((0, 2)),
        ],
        ids=["edge-values", "empty"],
    )
    def test_files_are_savetxt_bytes(self, tmp_path, states, capsys):
        times = np.arange(len(states)) / 3.0
        traj = Trajectory(times, states)
        export_trajectory_csv(traj, tmp_path / "t.csv")
        export_component_csv(traj, 1, tmp_path / "x2.csv")
        for name, header, table in [
            ("t.csv", "t,x1,x2", np.column_stack((times, states))),
            ("x2.csv", "t,x2", np.column_stack((times, states[:, 1]))),
        ]:
            np.savetxt(tmp_path / "oracle.csv", table, fmt="%.17g", delimiter=",", header=header, comments="")
            assert (tmp_path / name).read_bytes() == (tmp_path / "oracle.csv").read_bytes(), name

    def test_component_export(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = export_component_csv(traj, 1, tmp_path / "x2.csv")
        assert path.read_text().splitlines() == ["t,x2", "0,2", "1,4"]
        with pytest.raises(InvalidInputError):
            export_component_csv(traj, 5, tmp_path / "oops.csv")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1\n0,1\n1\n", "row has 1 fields, expected 2"),
            ("", "empty file"),
            ("x1,t\n1,0\n", "expected header starting with 't'"),
        ],
        ids=["short row", "empty", "header"],
    )
    def test_loader_rejects_malformed_files(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{bad}: {message}')}$"):
            load_trajectory_csv(bad)

    def test_loader_rejects_non_numeric_cells(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1\n0,1\n1,oops\n")
        with pytest.raises(InvalidInputError, match="row 2: 'oops' is not a number"):
            load_trajectory_csv(bad)


class TestReportExport:
    def test_certificate_report_sections(self, fig1_system, tmp_path):
        cert = estimate_contraction_rate(
            fig1_system,
            Domain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 0.0, 1.0),
            NormKind.l2(),
            SamplingPlan(n_space=5, n_time=3),
        )
        path = export_report_csv(cert, tmp_path / "cert.csv", name="contraction certificate")
        text = path.read_text()
        assert text.startswith("# contraction certificate\nkey,value\n")
        assert "verdict,certified_on_domain" in text
        assert "[alpha_samples]" in text
        assert "plan.seed,42" in text

    def test_number_lists_are_space_separated(self, tmp_path):
        report = RateIntegralReport("divergent", 4.0, [1.0, 2.5, 4.0], [1.0, 1.5, 1.5])
        rows = export_report_csv(report, tmp_path / "rate.csv").read_text().splitlines()
        assert rows[4:6] == ["partial_totals,1 2.5 4", "increments,1 1.5 1.5"]

    def test_series_rows_are_the_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 0.1, -2.5e-310, 3]
        rows = [(t, v) for t in values for v in values]
        report = ConvergenceReport(rows, 0.0, 1.0, 2.0, 0.5, "inconclusive", "l2", -0.1, 0.05, 0.1, 0.01)
        text = export_report_csv(report, tmp_path / "ratio.csv").read_text()
        section = "[ratio_samples]\nt,value\n" + "".join(f"{format_float(t)},{format_float(v)}\n" for t, v in rows)
        assert text.endswith("\n" + section)
        assert "-0,-0\n" in section and "4.9406564584124654e-324,1e+308\n" in section and "-inf,nan\n" in section

    def test_report_requires_dataclass(self, tmp_path):
        with pytest.raises(InvalidInputError):
            export_report_csv({"not": "a dataclass"}, tmp_path / "x.csv")


class TestMatrixParsing:
    def test_inline_rows(self):
        m = parse_matrix_text("2 1; 1 2")
        assert np.array_equal(m, [[2.0, 1.0], [1.0, 2.0]])

    def test_file_rows(self, tmp_path):
        path = tmp_path / "P.txt"
        path.write_text("4 0\n0 1\n")
        assert np.array_equal(read_matrix_file(path), [[4.0, 0.0], [0.0, 1.0]])

    def test_non_numeric_entry_rejected(self):
        with pytest.raises(InvalidInputError, match="'a' is not a number"):
            parse_matrix_text("1 a; 2 3")

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_matrix_text("1 2; 3")
        with pytest.raises(InvalidInputError):
            parse_matrix_text("   ")
