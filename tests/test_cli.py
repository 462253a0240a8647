"""Command-line interface tests: file format, commands, exit codes, CSV."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmbp.cli
import hmbp.oracle
from hmbp.cli import (
    BENCH_CSV_HEADER,
    EXIT_FEASIBLE,
    EXIT_INDETERMINATE,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    InstanceFormatError,
    main,
    parse_instance,
    render_instance,
)
from hmbp.core import WeightProfile, b_constant
from hmbp.criteria import tight_profile
from hmbp.solver import SolverConfig, solve
from hmbp.witness import extremal_witness

SIX_BIN_TEXT = "d: 6\nw: 5 5 3 1 1 0\nC: 17 17 17 17 17 8\n"
SIXTY_W = range(60, 0, -1)
SIXTY_BIN_TEXT = (
    f"d: 60\nw: {' '.join(map(str, SIXTY_W))}\n"
    f"C: {' '.join(str(60 * v + 1) for v in SIXTY_W)}\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def six_bin_file(tmp_path):
    path = tmp_path / "six.hmbp"
    path.write_text(SIX_BIN_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def sixty_bin_file(tmp_path):
    path = tmp_path / "sixty.hmbp"
    path.write_text(SIXTY_BIN_TEXT, encoding="utf-8")
    return str(path)


class TestInstanceFormat:
    def test_parse_basic(self):
        inst = parse_instance(SIX_BIN_TEXT)
        assert inst.d == 6
        assert inst.weights.entries == (5, 5, 3, 1, 1, 0)
        assert inst.capacities.entries == (17, 17, 17, 17, 17, 8)

    def test_comments_and_order_ignored(self):
        text = "# witness file\nC: 5 3\n# mid comment\nd: 2\nw: 3 1\n"
        inst = parse_instance(text)
        assert inst.d == 2 and inst.weights.entries == (3, 1)

    def test_round_trip_identity(self):
        for text in (
            SIX_BIN_TEXT,
            "d: 6\nw: 5 5 3 1 1 0\nC: 29 29 21 7 7 0\n",
            "d: 1\nw: 0\nC: -3\n",
        ):
            inst = parse_instance(text)
            again = parse_instance(render_instance(inst))
            assert (again.d, again.weights.entries, again.capacities.entries) == (
                inst.d,
                inst.weights.entries,
                inst.capacities.entries,
            )

    def test_non_monotone_weights_error(self):
        with pytest.raises(
            InstanceFormatError, match="w not non-increasing at position 2"
        ):
            parse_instance("d: 1\nw: 1 3\nC: 4 4\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(InstanceFormatError, match="line 3"):
            parse_instance("d: 1\nw: 3 1\nC: 4 x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("d: 1\nw: 3 -1\nC: 4 4\n", "line 2: weights must be non-negative"),
            ("C: 4 4\nd: 1\nw: 3 -1\n", "line 3: weights must be non-negative"),
            ("d: 1\nw: 3 1\nC: 4 5\n", "line 3: C not non-increasing at position 2"),
            ("d: 1\nw:\nC: 4\n", "line 2: weight profile must have at least one"),
        ],
        ids=["negative-weight", "negative-weight-last", "rising-C", "empty-w"],
    )
    def test_profile_errors_name_their_line(self, text, message):
        # The profile constructors check the values; the parser adds the line.
        with pytest.raises(InstanceFormatError, match=f"^{message}"):
            parse_instance(text)

    def test_duplicate_key(self):
        with pytest.raises(InstanceFormatError, match="duplicate key 'd'"):
            parse_instance("d: 1\nd: 2\nw: 1\nC: 1\n")

    def test_missing_key(self):
        with pytest.raises(InstanceFormatError, match="missing key 'C'"):
            parse_instance("d: 1\nw: 1\n")

    def test_length_mismatch(self):
        with pytest.raises(InstanceFormatError, match="C has 1 entries"):
            parse_instance("d: 1\nw: 2 1\nC: 5\n")

    def test_unknown_line(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            parse_instance("q: 1\nd: 1\nw: 1\nC: 1\n")


class TestCheckCommand:
    def test_indeterminate_report(self, six_bin_file, capsys):
        code, out, _ = run_cli(["check", six_bin_file], capsys)
        assert code == EXIT_INDETERMINATE
        assert "violated at i=1: slack 3 < b=4" in out
        assert "verdict: indeterminate" in out

    def test_infeasible_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.hmbp"
        path.write_text("d: 2\nw: 3 1\nC: 3 2\n", encoding="utf-8")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == EXIT_INFEASIBLE
        assert "verdict: infeasible" in out

    def test_guaranteed_exit(self, tmp_path, capsys):
        w = WeightProfile((3, 1))
        caps = tight_profile(w, 168)
        path = tmp_path / "good.hmbp"
        path.write_text(
            f"d: 168\nw: 3 1\nC: {caps[0]} {caps[1]}\n", encoding="utf-8"
        )
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == EXIT_FEASIBLE
        assert "verdict: guaranteed_feasible" in out


class TestOracleCommand:
    def test_feasible(self, six_bin_file, capsys):
        code, out, _ = run_cli(["oracle", six_bin_file, "--k", "0"], capsys)
        assert code == EXIT_FEASIBLE
        assert out.startswith("feasible")
        assert "B1:" in out and "values:" in out

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "two.hmbp"
        path.write_text("d: 2\nw: 3 1\nC: 5 3\n", encoding="utf-8")
        code, out, _ = run_cli(["oracle", str(path)], capsys)
        assert code == EXIT_INFEASIBLE

    def test_k_one_on_extremal(self, tmp_path, capsys):
        path = tmp_path / "ext.hmbp"
        path.write_text("d: 6\nw: 5 5 3 1 1 0\nC: 29 29 21 7 7 0\n", encoding="utf-8")
        code, out, _ = run_cli(["oracle", str(path), "--k", "1"], capsys)
        assert code == EXIT_FEASIBLE
        code, out, _ = run_cli(["oracle", str(path), "--k", "0"], capsys)
        assert code == EXIT_INFEASIBLE

    def test_wmin(self, tmp_path, capsys):
        path = tmp_path / "two.hmbp"
        path.write_text("d: 2\nw: 3 1\nC: 5 3\n", encoding="utf-8")
        code, out, _ = run_cli(["oracle", str(path), "--wmin"], capsys)
        assert code == EXIT_FEASIBLE
        assert "W^min = 6" in out

    def test_wmin_not_one_feasible(self, tmp_path, capsys):
        # The error's own words, once: the CLI adds no prefix of its own.
        path = tmp_path / "tight.hmbp"
        path.write_text("d: 3\nw: 2 2\nC: 5 1\n", encoding="utf-8")
        code, out, _ = run_cli(["oracle", str(path), "--wmin"], capsys)
        assert code == EXIT_INFEASIBLE
        assert out == "instance is not 1-feasible; minimum bin-1 load undefined\n"

    def test_sixty_bins(self, sixty_bin_file, capsys):
        code, out, err = run_cli(["oracle", sixty_bin_file], capsys)
        assert (code, err) == (EXIT_FEASIBLE, "")
        lines = out.splitlines()
        assert lines[0].startswith("feasible (k=0, nodes=2011, elapsed=")
        assert len(lines) == 1 + 60 + 1 + 60
        assert lines[1].startswith("B1: ") and lines[-1].startswith("B60: ")

    @pytest.mark.parametrize("extra", [[], ["--wmin"]], ids=["decide", "wmin"])
    def test_budget_exhaustion_is_indeterminate(self, six_bin_file, extra, capsys):
        code, out, _ = run_cli(
            ["oracle", six_bin_file, *extra, "--budget", "3"], capsys
        )
        assert code == EXIT_INDETERMINATE
        assert "undecided" in out
        assert "undecided: undecided" not in out


class TestSolveCommand:
    def test_feasible_with_trace(self, tmp_path, capsys):
        path = tmp_path / "odd.hmbp"
        path.write_text("d: 7\nw: 3 1\nC: 15 14\n", encoding="utf-8")
        trace_path = tmp_path / "run.trace"
        code, out, _ = run_cli(
            ["solve", str(path), "--trace", str(trace_path)], capsys
        )
        assert code == EXIT_FEASIBLE
        assert "B1: 3^4 1^3" in out
        assert trace_path.exists()
        for line in trace_path.read_text().strip().splitlines():
            assert " moves=" in line and " w1=" in line

    def test_stall_exit(self, tmp_path, capsys):
        path = tmp_path / "ext.hmbp"
        path.write_text("d: 6\nw: 5 5 3 1 1 0\nC: 29 29 21 7 7 0\n", encoding="utf-8")
        code, out, _ = run_cli(["solve", str(path), "--r", "2"], capsys)
        assert code == EXIT_INDETERMINATE
        assert "stall" in out

    def test_fallback_oracle_decides_infeasible(self, tmp_path, capsys):
        path = tmp_path / "ext.hmbp"
        path.write_text("d: 6\nw: 5 5 3 1 1 0\nC: 29 29 21 7 7 0\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["solve", str(path), "--r", "2", "--fallback-oracle"], capsys
        )
        assert code == EXIT_INFEASIBLE
        assert "infeasible via fallback oracle" in out

    EXTREMAL_TEXT = "d: 6\nw: 5 5 3 1 1 0\nC: 29 29 21 7 7 0\n"

    @pytest.mark.parametrize("case", ["extremal-r2", "witness-n9"])
    def test_fallback_decides_a_stall_infeasible(self, case, tmp_path, capsys):
        # The r = 2 extremal instance, and the n = 9 extremal witness under
        # the default tunables: the descent stalls, the exact search settles
        # either at once, and the stall is still printed. The trace file
        # holds the stalled descent's moves.
        if case == "extremal-r2":
            text, r = self.EXTREMAL_TEXT, 2
        else:
            w = WeightProfile((8, 7, 6, 5, 4, 3, 2, 1, 0))
            text, r = render_instance(extremal_witness(w, 30).instance), None
        path = tmp_path / "case.hmbp"
        path.write_text(text, encoding="utf-8")
        stalled = solve(parse_instance(text), SolverConfig(r=r))
        assert stalled.status == "indeterminate"
        flags = [] if r is None else ["--r", str(r)]
        trace_path = tmp_path / "run.trace"
        argv = ["solve", str(path), *flags, "--trace", str(trace_path)]
        code, out, _ = run_cli(argv + ["--fallback-oracle"], capsys)
        assert code == EXIT_INFEASIBLE
        assert out == f"infeasible via fallback oracle\nstall: {stalled.stall}\n"
        assert trace_path.read_text() == stalled.trace.serialize()

    def test_fallback_answers_feasible_with_the_oracle_witness(self, tmp_path, capsys):
        # The descent stalls at r = N = 1 and the exact search finds an
        # assignment: it is printed, and the trace file still holds the
        # descent's two moves, which do not lead to it.
        path = tmp_path / "stall.hmbp"
        path.write_text("d: 2\nw: 7 6 5 4 2\nC: 13 12 11 9 4\n", encoding="utf-8")
        trace_path = tmp_path / "run.trace"
        argv = ["solve", str(path), "--r", "1", "--N", "1", "--trace", str(trace_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == EXIT_INDETERMINATE
        stalled_trace = trace_path.read_text()
        code, out, _ = run_cli(argv + ["--fallback-oracle"], capsys)
        assert code == EXIT_FEASIBLE
        assert out.splitlines()[:2] == [
            "feasible (fallback oracle)",
            "B1: 6^2  weight=12 gap=1",
        ]
        assert trace_path.read_text() == stalled_trace
        assert len(stalled_trace.splitlines()) == 2

    def test_fallback_refused_by_budget_keeps_the_stall(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "ext.hmbp"
        path.write_text(self.EXTREMAL_TEXT, encoding="utf-8")
        code, without, _ = run_cli(["solve", str(path)], capsys)
        assert code == EXIT_INDETERMINATE

        def refuse(*args):
            raise hmbp.oracle.BudgetExceeded("undecided: node budget exhausted")

        monkeypatch.setattr(hmbp.oracle, "decide", refuse)
        code, out, _ = run_cli(["solve", str(path), "--fallback-oracle"], capsys)
        assert code == EXIT_INDETERMINATE
        assert out == without
        assert out.startswith("stall: indeterminate\n")

    def test_zero_round_output(self, tmp_path, capsys):
        path = tmp_path / "easy.hmbp"
        path.write_text("d: 2\nw: 2 1\nC: 9 9\n", encoding="utf-8")
        code, out, _ = run_cli(["solve", str(path)], capsys)
        assert code == EXIT_FEASIBLE
        assert "0 rounds" in out


class TestWitnessCommand:
    def test_extremal_file(self, capsys):
        code, out, _ = run_cli(["witness", "--w", "5", "5", "3", "1", "1", "0", "--d", "6"], capsys)
        assert code == EXIT_FEASIBLE
        assert "C: 29 29 21 7 7 0" in out
        assert "# construction: extremal" in out
        inst = parse_instance(out)
        assert inst.capacities.entries == (29, 29, 21, 7, 7, 0)

    def test_two_value_family(self, capsys):
        code, out, _ = run_cli(["witness", "--w", "3", "1", "--d", "4"], capsys)
        assert code == EXIT_FEASIBLE
        assert "C: 11 5" in out

    def test_relaxed(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--w", "3", "1", "--d", "4", "--relax", "2"], capsys
        )
        assert code == EXIT_FEASIBLE
        assert "C: 19 3" in out
        assert "not 1-feasible" in out

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "wit.hmbp"
        code, _, _ = run_cli(
            ["witness", "--w", "4", "2", "1", "--d", "5", "--out", str(target)],
            capsys,
        )
        assert code == EXIT_FEASIBLE
        assert parse_instance(target.read_text()).d == 5

    def test_bad_input_exit(self, capsys):
        code, _, err = run_cli(["witness", "--w", "4", "4", "--d", "5"], capsys)
        assert code == EXIT_INPUT_ERROR
        assert "error:" in err


class TestInfoCommand:
    def test_truncation_row(self, capsys):
        code, out, _ = run_cli(["info", "--w", "6", "6", "4", "4", "4", "0"], capsys)
        assert code == EXIT_FEASIBLE
        assert "b by truncation: 7 6 9 6 3 0" in out

    def test_gap_sequence(self, capsys):
        code, out, _ = run_cli(["info", "--w", "5", "5", "3", "1", "1", "0"], capsys)
        assert "gap sequence: 2 2 2 2 1" in out
        assert "second largest: 3" in out

    def test_singleton(self, capsys):
        code, out, _ = run_cli(["info", "--w", "7"], capsys)
        assert "b by truncation: 0" in out
        assert "(constant profile)" in out


class TestBenchCommand:
    def test_tight_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            [
                "bench", "--w", "3", "1", "--d-min", "1", "--d-max", "8",
                "--mode", "tight", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_FEASIBLE
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 9
        for line in lines[1:]:
            w_id, d, mode, verdict, oracle_col, rounds, stall, ms = line.split(",")
            assert w_id == "3-1" and mode == "tight"
            # tight two-value profiles are feasible at every multiplicity
            assert oracle_col == "feasible"
            if verdict == "infeasible":
                assert oracle_col == "infeasible"
            total = 4 * int(d) + 1
            assert sum(tight_profile(WeightProfile((3, 1)), int(d))) == total

    def test_witness_sweep_all_infeasible(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            [
                "bench", "--w", "3", "1", "--d-min", "2", "--d-max", "7",
                "--mode", "witness", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_FEASIBLE
        lines = out_path.read_text().strip().splitlines()
        for line in lines[1:]:
            assert line.split(",")[4] == "infeasible"

    def test_empty_range_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            [
                "bench", "--w", "3", "1", "--d-min", "5", "--d-max", "4",
                "--mode", "tight", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_FEASIBLE
        assert out_path.read_text() == BENCH_CSV_HEADER + "\n"

    def test_witness_rows_skip_d_below_n(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            [
                "bench", "--w", "3", "1", "--d-min", "1", "--d-max", "3",
                "--mode", "witness", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_FEASIBLE
        lines = out_path.read_text().strip().splitlines()
        # the construction needs d >= n, so d = 1 yields no row
        assert [line.split(",")[1] for line in lines[1:]] == ["2", "3"]


class TestExitCodeContract:
    def test_input_error_paths(self, tmp_path, capsys):
        code, _, err = run_cli(["check", str(tmp_path / "missing.hmbp")], capsys)
        assert code == EXIT_INPUT_ERROR
        bad = tmp_path / "bad.hmbp"
        bad.write_text("d: 1\nw: 1 3\nC: 4 4\n", encoding="utf-8")
        code, _, err = run_cli(["check", str(bad)], capsys)
        assert code == EXIT_INPUT_ERROR
        assert "not non-increasing" in err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["check"],
            ["oracle", "{file}", "--k", "x"],
            ["oracle", "{file}", "--budget", "-5"],
            ["oracle", "{file}", "--budget", "0"],
            ["oracle", "{file}", "--wmin", "--budget", "0"],
            ["solve", "{file}", "--r", "0"],
            ["solve", "{file}", "--N", "-1"],
            ["solve", "{file}", "--max-rounds", "0"],
            ["solve", "{file}", "--max-rounds", "-1"],
            ["witness", "--w", "3", "1"],
            ["oracle", "{file}", "--wmin", "--k", "1"],
            ["oracle", "{file}", "--k", "0", "--wmin"],
            ["bench", "--w", "3", "1", "--d-min", "0", "--d-max", "2", "--mode",
             "tight"],
            ["bench", "--w", "3", "1", "--d-min", "1", "--d-max", "-1", "--mode",
             "tight"],
        ],
        ids=[
            "no-command",
            "unknown-command",
            "no-file",
            "non-integer-k",
            "negative-budget",
            "zero-budget",
            "zero-budget-wmin",
            "zero-r",
            "negative-N",
            "zero-max-rounds",
            "negative-max-rounds",
            "missing-d",
            "wmin-with-k",
            "k-zero-with-wmin",
            "zero-d-min",
            "negative-d-max",
        ],
    )
    def test_usage_errors_are_input_errors(self, argv, six_bin_file, capsys):
        # argparse exits 2 on its own, which the contract reserves for
        # "indeterminate".
        argv = [a.format(file=six_bin_file) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT_ERROR
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: hmbp")
        assert lines[-1].startswith("hmbp") and ": error: " in lines[-1]

    def test_bad_d_range_leaves_the_output_untouched(self, tmp_path, capsys):
        # The range is checked while parsing, before --out is opened.
        out_path = tmp_path / "rows.csv"
        out_path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "bench", "--w", "3", "1", "--d-min", "0", "--d-max", "2",
                    "--mode", "tight", "--out", str(out_path),
                ]
            )
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "--d-min: must be at least 1, got 0" in capsys.readouterr().err
        assert out_path.read_text(encoding="utf-8") == "kept\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hmbp oracle")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{dir}"],
            ["check", "{dir}/missing/six.hmbp"],
            ["solve", "{file}", "--trace", "{dir}"],
            ["witness", "--w", "3", "1", "--d", "4", "--out", "{dir}"],
            ["bench", "--w", "3", "1", "--d-min", "2", "--d-max", "2", "--mode",
             "tight", "--out", "{dir}/missing/out.csv"],
        ],
        ids=["instance-dir", "instance-missing", "trace-dir", "out-dir", "csv-missing"],
    )
    def test_unopenable_paths_are_input_errors(
        self, argv, six_bin_file, tmp_path, capsys
    ):
        argv = [a.format(file=six_bin_file, dir=tmp_path) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: [Errno ")

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["solve", "{file}", "--trace", "{dir}"], "solve"),
            (["bench", "--w", "3", "1", "--d-min", "2", "--d-max", "2", "--mode",
              "tight", "--out", "{dir}"], "_bench_rows"),
        ],
        ids=["solve-trace-dir", "bench-out-dir"],
    )
    def test_unopenable_output_exits_before_the_work(
        self, argv, work, six_bin_file, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output path was opened")

        monkeypatch.setattr(hmbp.cli, work, never)
        argv = [a.format(file=six_bin_file, dir=tmp_path) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: [Errno ")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("d: 2\nw: 3 1\nC: 5 3\n"))
        code, _, _ = run_cli(["oracle", "-"], capsys)
        assert code == EXIT_INFEASIBLE

    def test_unexpected_error_is_undecided(self, six_bin_file, capsys, monkeypatch):
        # exit 1 means "decided infeasible", so a crash must not produce it
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(hmbp.cli._oracle, "decide", crash)
        code, out, err = run_cli(["oracle", six_bin_file], capsys)
        assert code == EXIT_INDETERMINATE
        assert out == ""
        assert err.splitlines() == [
            "error: RecursionError: maximum recursion depth exceeded"
        ]


    @pytest.mark.parametrize("command", ["oracle", "check"])
    def test_closed_stdout_is_undecided_and_quiet(
        self, command, six_bin_file, sixty_bin_file
    ):
        # The reader is gone before the first write: no verdict reaches it,
        # so the exit is 2 (never 1), with no error line and no traceback.
        path = sixty_bin_file if command == "oracle" else six_bin_file
        src = str(Path(hmbp.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hmbp.cli", command, path],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INDETERMINATE
        assert proc.stderr == b""


def test_tight_profile_monotone_repair():
    # the raw increments dip at index 2; repair must raise earlier entries only
    w = WeightProfile((6, 6, 4, 4, 4, 0))
    d = 2  # small d forces the dip to matter
    caps = tight_profile(w, d)
    assert all(caps[j] >= caps[j + 1] for j in range(w.n - 1))
    for i in range(1, w.n + 1):
        suffix = sum(caps[i - 1 :])
        demand = d * sum(w[i - 1 :])
        assert suffix >= demand + b_constant(w.truncate(i))
