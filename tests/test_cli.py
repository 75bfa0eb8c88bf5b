import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import src_env
from hypothesis import example, given, strategies as st

import zetacomb.cli as cli
import zetacomb.kernels as kernels
from zetacomb.actions import MODE_SAMPLE_CAP, delta2_closed
from zetacomb.quad import sinc_truncated


def run_text(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


class TestZeta:
    def test_text_table(self, capsys):
        code, out, _ = run_text(capsys, ["zeta", "--max-k", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["two_k", "zeta"]
        assert lines[1].split() == ["2", "1/6", "π^2"]
        assert lines[2].split() == ["4", "1/90", "π^4"]
        assert lines[3].split() == ["6", "1/945", "π^6"]

    def test_oracle_column_matches(self, capsys):
        code, out, _ = run_text(capsys, ["zeta", "--max-k", "5", "--format", "csv", "--oracle"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["two_k", "zeta", "bernoulli"]
        for row in rows:
            assert row[1] == row[2]
        assert rows[0] == ["2", "1/6 π^2", "1/6 π^2"]

    def test_golden_max_k_100_oracle_csv(self, capsys):
        code, out, _ = run_text(capsys, ["zeta", "--max-k", "100", "--oracle", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "d1ed35cfaa72ce3ab7ea9ffd4664910058c26199b3a3f2afc447d468e7908ef5"
        )

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            # sha256 measured while the ladder stepped Fraction coefficients and
            # the oracle summed the recurrence sum_j C(m+1, j) * B_j = 0.
            ("csv", "0fc777927339c4d6fdf3ca40358f1e0fae4ed83909e934813e234ac82f94809a"),
            ("text", "564c14e97d16a548133277d936fc1b7faa88bd66b1b4990a9ca0e99c564f252e"),
            ("json", "f8e5bb15f493ea11fd24bc0da88d3b1158520d4b9f6376e1e4c1c3f6f753df2b"),
        ],
    )
    def test_golden_max_k_200_oracle(self, capsys, fmt, digest):
        code, out, _ = run_text(capsys, ["zeta", "--max-k", "200", "--oracle", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_csv_is_utf8_with_lf(self, tmp_path):
        out = tmp_path / "zeta.csv"
        assert cli.run(["zeta", "--max-k", "2", "--format", "csv", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert "π^2" in raw.decode("utf-8")


class TestKernel:
    def test_default_table_shape(self, capsys):
        code, out, _ = run_text(capsys, ["kernel", "--n", "50", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "sum_form", "compact_form"]
        assert len(rows) == 2001

    def test_fig_scale_properties(self, capsys):
        code, out, _ = run_text(capsys, ["kernel", "--n", "50", "--format", "csv"])
        data = [(float(r[0]), float(r[1]), float(r[2])) for r in parse_csv(out)[1]]
        peak = max(row[1] for row in data)
        assert peak == 101.0
        assert [row[0] for row in data if row[1] == peak] == [0.0]
        for x, s, c in data:
            assert abs(s - c) <= 1e-10 * 101
        # symmetric: reversed x negates, values carry over unchanged
        for (x1, s1, c1), (x2, s2, c2) in zip(data, reversed(data)):
            assert x1 == -x2 and s1 == s2 and c1 == c2

    def test_golden_csv(self, capsys):
        # The sum form takes the numpy blocks here and math.fsum in the table
        # below; each sha256 was measured with either route forced.
        code, out, _ = run_text(capsys, ["kernel", "--n", "1831", "--samples", "1330", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "aec93c98af0e1ecc44b25bb30e1c33d8c76f28c2b944e42f5b9136bb0cb33bb9"
        )

    def test_golden_csv_scalar_route(self, capsys):
        # The sum form takes math.fsum here (see above).
        code, out, _ = run_text(capsys, ["kernel", "--n", "50", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "b818689e236bfc5418fe6f13317b6eac157e7f178e42ceca888724d82302fde4"
        )

    def test_subnormal_x_is_the_peak(self, capsys):
        # sin(x/2) underflows to 0 at x = 5e-324; the compact form must not divide.
        argv = ["kernel", "--n", "7", "--samples", "3", "--xmin=-5e-324", "--xmax=5e-324", "--format", "csv"]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        rows = parse_csv(out)[1]
        assert len(rows) == 3
        assert all(row[1:] == ["15.0", "15.0"] for row in rows)

    def test_negative_number_in_exponent_form_is_a_value(self, capsys):
        # argparse alone takes -1e-3 for an option on some Pythons.
        argv = ["kernel", "--n", "5", "--samples", "3", "--xmax", "1e-3"]
        separate = run_text(capsys, [*argv, "--xmin", "-1e-3"])
        joined = run_text(capsys, [*argv, "--xmin=-1e-3"])
        assert separate == joined
        assert separate[0] == 0
        code, out, err = run_text(capsys, [*argv, "--xmin", "-inf"])
        assert (code, out) == (2, "")
        assert "usage" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ["action", "--phi", "gauss", "--center", "-1e-3", "--n-list", "5"],
            ["fourier", "--order", "1", "--n", "5", "--samples", "2", "--xmin", "-2E0", "--xmax", "1"],
        ],
    )
    def test_negative_exponent_forms_run(self, capsys, argv):
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        assert out


class TestActionCommand:
    ARGS = ["action", "--phi", "gauss", "--n-list", "10,50", "--tol", "1e-9"]

    def test_reference_and_errors(self, capsys):
        code, out, _ = run_text(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "action"
        assert payload["params"]["phi"] == "gauss"
        assert payload["params"]["center"] == 0.0
        assert payload["columns"] == ["N", "value", "reference", "abs_error"]
        for N, value, reference, abs_error in payload["rows"]:
            assert reference == 2 * math.pi * math.exp(-1.0)
            assert abs_error == abs(value - reference)

    def test_json_csv_round_trip(self, capsys):
        code, json_out, _ = run_text(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        code, csv_out, _ = run_text(capsys, self.ARGS + ["--format", "csv"])
        assert code == 0
        payload = json.loads(json_out)
        _, csv_rows = parse_csv(csv_out)
        parsed = [[int(r[0]), float(r[1]), float(r[2]), float(r[3])] for r in csv_rows]
        assert parsed == payload["rows"]

    def test_golden_gauss_csv(self, capsys):
        # sha256 measured when the orders past 8 periods of 0 first took FCC
        # panels there; only N = 12000 moved.  Against mpmath at 30 digits the
        # five values are off by 8.5e-17, 5.0e-17, 4.5e-16, 2.3e-16 and
        # 8.8e-17 (5.3e-16 on the lattice-seeded G7/K15 route).
        argv = [
            "action", "--phi", "gauss", "--center", "0.3", "--radius", "1.2",
            "--n-list", "0,1,37,500,12000", "--tol", "1e-12", "--format", "csv",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "28a9dddd7b13a31c51adf51205764a756c745258170552f2564f1f217d1109f9"
        )

    @pytest.mark.parametrize(
        "phi, digest",
        [
            (["plateau"], "4219722f752ff06d3c7eb4a105c73eb9b960d1f3eca5d420022bb92e55d20f0c"),
            (["gauss", "--center", "0", "--radius", "1.2"],
             "11d6770317430aa5f6c3544a18cc5e9070d8cb259debbbc10a8f3e908324516e"),
        ],
        ids=["plateau", "gauss-centred"],
    )
    def test_golden_even_csv(self, capsys, phi, digest):
        # sha256 measured when the orders past 8 periods of 0 first took FCC
        # panels there.  Moved against mpmath: the plateau at N = 500
        # 8.9e-16 -> 0 and at 12000 1.5e-14 -> 8.9e-16; the centred gauss at
        # 12000 2.8e-17 -> 4.2e-16.  N = 0, 1 and 37 kept their bits.
        argv = [
            "action", "--phi", *phi,
            "--n-list", "0,1,37,500,12000", "--tol", "1e-12", "--format", "csv",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.run(self.ARGS + ["--format", "csv", "--out", str(a)]) == 0
        assert cli.run(self.ARGS + ["--format", "csv", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCombCommand:
    def test_columns_are_consistent(self, capsys):
        code, out, _ = run_text(
            capsys, ["comb", "--phi", "gauss", "--n", "50", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["N", "partial_action", "comb_action", "abs_diff"]
        ((N, partial, comb, diff),) = payload["rows"]
        assert N == 50
        assert diff == abs(partial - comb)
        assert diff < 1e-2

    def test_golden_gauss_csv(self, capsys):
        argv = [
            "comb", "--phi", "gauss", "--center", "-0.7", "--radius", "3",
            "--n", "239", "--tol", "1e-12", "--format", "csv",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "311c837b2278ea21e1e4c0aee540de277dff7548a8dd4f3a283192d8e8428456"
        )

    def test_plateau_comb_is_two_pi(self, capsys):
        code, out, _ = run_text(capsys, ["comb", "--n", "30", "--format", "json"])
        assert code == 0
        ((_, _, comb, _),) = json.loads(out)["rows"]
        assert comb == 2 * math.pi


class TestFourierCommand:
    def test_grid_and_closed_form(self, capsys):
        argv = [
            "fourier", "--order", "2", "--n", "100", "--samples", "9",
            "--xmin", "-3.0", "--xmax", "3.0", "--format", "json",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 9
        assert rows[0][0] == -3.0
        assert rows[-1][0] == 3.0
        for x, partial, closed, abs_err in rows:
            assert closed == delta2_closed(x)
            assert abs_err == abs(partial - closed)
            assert abs_err <= 2.0 / 100

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # N past 2**19 orders, many blocks to a row, with x = 0 on the grid.
            (["--order", "1", "--n", "600001", "--samples", "7", "--xmin", "-6", "--xmax", "12"],
             "6880a981d3fc02f7e033369526bdd89e518dd50db899dff6b6083b580c6a0151"),
            (["--order", "2", "--n", "1048577", "--samples", "5", "--xmin", "-13", "--xmax", "4"],
             "5e23bc7adfbcb493472c4cd137fab6d842dfb7aaf9dcfdb84c5e687a4a7959a1"),
            # Below the scalar limit, with x = 0 on the grid; these took the
            # numpy blocks when their sha256 was measured.
            (["--order", "1", "--n", "100", "--samples", "9", "--xmin", "-3", "--xmax", "3"],
             "59dfe06c247aed47ed3d3be49b8eeb5cf0f473f3b89be441f2e2130ea9f16df1"),
            (["--order", "2", "--n", "100", "--samples", "9", "--xmin", "-3", "--xmax", "3"],
             "1f4d14cf982fea6c84255080a1c064420f383025e9f21633bff363adde166c02"),
        ],
    )
    def test_golden_csv(self, capsys, argv, digest):
        # The first two sha256 measured when each row was math.fsum of its
        # 2**19-order chunk sums; rounding the whole series once moves no
        # bit there.
        code, out, _ = run_text(capsys, ["fourier", *argv, "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_terms_past_the_float_range_exit_two(self):
        # The closed forms are finite on this grid, but n*|x| overflows from
        # n = 2 on: the partial sums refuse it before they start, not
        # printed as nan rows.
        argv = ["fourier", "--order", "1", "--n", "5", "--samples", "3", "--xmin", "1e307", "--xmax", "1.5e308"]
        result = subprocess.run(
            [sys.executable, "-m", "zetacomb.cli", *argv], env=src_env(), capture_output=True, text=True
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "float range" in result.stderr
        assert "Warning" not in result.stderr


class TestSincCommand:
    def test_rows_match_library(self, capsys):
        code, out, _ = run_text(capsys, ["sinc", "--n-max", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r[0] for r in rows] == [0, 1, 2]
        for N, value, abs_err in rows:
            assert value == sinc_truncated(N, 1e-10).value
            assert abs_err == abs(value - math.pi)

    def test_golden_csv(self, capsys):
        # sha256 measured before the G7/K15 panel became straight-line code.
        code, out, _ = run_text(capsys, ["sinc", "--n-max", "350", "--tol", "1e-12", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "715bd7c91ce35d449d116198abe539708ff80aa798ae1e4d1be0fa0c31b5c91b"
        )


def assert_refused_on_usage(err: str, subcommand: str, message: str) -> None:
    """err is what argparse prints for a refusal: the subcommand's usage
    synopsis, then its error line, which names the cause."""
    assert "usage" in err.lower()
    assert err.startswith(f"usage: zetacomb {subcommand} ")
    assert f"zetacomb {subcommand}: error: {message}" in err
    assert "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta"],  # missing required --max-k
            ["zeta", "--max-k", "0"],
            ["kernel", "--n", "50", "--bogus", "1"],
            ["kernel", "--n", "-1"],
            ["kernel", "--n", "5", "--samples", "1"],
            ["kernel", "--n", "5", "--xmax", "9"],
            ["action", "--n-list", "1,a"],
            ["action", "--n-list", ""],
            ["action", "--n-list", "5", "--center", "1.0"],  # plateau has no center
            ["comb", "--phi", "plateau", "--radius", "2.0", "--n", "5"],
            ["fourier", "--order", "3", "--n", "5", "--samples", "5", "--xmin", "0", "--xmax", "1"],
            ["fourier", "--order", "1", "--n", "5", "--samples", "5", "--xmax", "1"],
            ["fourier", "--order", "1", "--n", "5", "--samples", "5", "--xmin", "1", "--xmax", "1"],
            ["sinc"],
            ["sinc", "--n-max", "2", "--tol", "0"],
            ["nonsense"],
            ["zeta", "--max-k", "201"],  # 2K past the ladder's ORDER_CAP
            ["action", "--phi", "gauss", "--center", "nan", "--n-list", "5"],
            ["comb", "--phi", "gauss", "--radius", "inf", "--n", "5"],
            ["fourier", "--order", "1", "--n", "10", "--samples", "3", "--xmin", "0", "--xmax", "inf"],
            ["kernel", "--n", "5", "--xmin", "-inf"],
            ["sinc", "--n-max", "2", "--tol", "inf"],
            ["comb", "--phi", "gauss", "--center", "1e17", "--n", "5"],  # support rounds to a point
            # 2 * 33554433 terms, two past SERIES_WORK_CAP
            ["fourier", "--order", "1", "--n", "33554433", "--samples", "2", "--xmin", "0", "--xmax", "1"],
            ["kernel", "--n", "1" + "0" * 320, "--samples", "3"],  # past the work cap
            ["kernel", "--n", "100000000", "--samples", "3"],
            # 65536 * 2048 terms: no two of these x share an |x|
            ["kernel", "--n", "65536", "--samples", "2048", "--xmin", "0", "--xmax", "3"],
            # --tol belongs to the integrating subcommands only
            ["zeta", "--max-k", "2", "--tol", "1e-9"],
            ["kernel", "--n", "5", "--tol", "1e-9"],
            ["fourier", "--order", "1", "--n", "5", "--samples", "5", "--xmin", "0", "--xmax", "1", "--tol", "1e-9"],
        ],
    )
    def test_exit_code_two_with_usage(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2
        assert out == ""
        assert "usage" in err.lower()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fourier", "--order", "1", "--n", "3", "--samples", "3", "--xmin=-1.7e308", "--xmax", "1.7e308"],
             "the span of [-1.7e+308, 1.7e+308] is past the float range"),  # xmax - xmin overflows to inf
            # the closed form's floor times ceiling is past the float range
            (["fourier", "--order", "2", "--n", "7", "--samples", "4", "--xmin=-1e300", "--xmax", "1e300"],
             "the order-2 closed form at x = -1e+300 is past the float range"),
            # past SAMPLES_CAP at any order
            (["kernel", "--n", "0", "--samples", "100000000"], f"need at most SAMPLES_CAP = {kernels.SAMPLES_CAP}"),
            (["kernel", "--n", "0", "--samples", str(kernels.SAMPLES_CAP + 1)],
             f"need at most SAMPLES_CAP = {kernels.SAMPLES_CAP}"),
            (["fourier", "--order", "1", "--n", "10", "--samples", str(kernels.SAMPLES_CAP + 1),
              "--xmin", "0", "--xmax", "1"], f"need at most SAMPLES_CAP = {kernels.SAMPLES_CAP}"),
            (["kernel", "--n", "5", "--samples", "0"], "count must be an integer >= 2, got 0"),
            (["zeta", "--max-k", "0"], "two_k must be an integer >= 2, got 0"),
            # refused before row 1 is built
            (["zeta", "--max-k", "1000000"], "two_k must be <= ORDER_CAP = 400, got 2000000"),
            (["fourier", "--order", "1", "--n", "10000000", "--samples", "100000", "--xmin", "0", "--xmax", "1"],
             "order 10000000 at 100000 rows is past the work cap"),
            (["fourier", "--order", "2", "--n", "10000000", "--samples", "7", "--xmin", "0", "--xmax", "1"],
             "order 10000000 at 7 rows is past the work cap"),
            # closed forms past the float range, refused before ten million
            # terms per point are summed
            (["fourier", "--order", "2", "--n", "10000000", "--samples", "6", "--xmin=-1e300", "--xmax", "1e300"],
             "the order-2 closed form at x = -1e+300"),
            # x**2/2 is finite, but the closed form is inf
            (["fourier", "--order", "2", "--n", "1", "--samples", "2", "--xmin", "1e154", "--xmax", "1.5e154"],
             "the order-2 closed form at x = 1.5e+154"),
            # the first mode sum is refused before phi is sampled
            (["comb", "--n", "262144"],
             f"the mode sum at order 262144 needs more than MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP}"),
            # a value, not an option, though it starts with -
            (["action", "--n-list", "-1,2"], "argument --n-list: need non-negative integers, got '-1,2'"),
        ],
    )
    def test_range_and_work_errors_exit_two_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_text(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert_refused_on_usage(err, argv[0], message)

    def test_unwritable_out_path_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "zeta.csv"
        code, out, err = run_text(capsys, ["zeta", "--max-k", "1", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert_refused_on_usage(err, "zeta", f"[Errno 2] No such file or directory: {str(target)!r}")
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_path_that_cannot_be_written_exits_two(self, capsys):
        # /dev/full opens, but every write fails with ENOSPC
        code, out, err = run_text(capsys, ["zeta", "--max-k", "5", "--out", "/dev/full"])
        assert code == 2
        assert out == ""
        assert_refused_on_usage(err, "zeta", "[Errno 28] No space left on device")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_that_cannot_be_written_exits_two(self, unbuffered):
        # buffered, the failed bytes stay in stdout's buffer and the
        # interpreter's flush at exit would fail again with exit code 120
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "zetacomb.cli", "zeta", "--max-k", "5"],
                env=src_env(PYTHONUNBUFFERED=unbuffered), stdout=full, stderr=subprocess.PIPE,
                text=True,
            )
        assert result.returncode == 2
        assert_refused_on_usage(result.stderr, "zeta", "[Errno 28] No space left on device")
        assert "Exception ignored" not in result.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_two_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "zetacomb.cli", "zeta", "--max-k", "5"],
                env=src_env(PYTHONUNBUFFERED=unbuffered), stdout=write_end,
                stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "--max-k", "abc"],
            ["kernel", "--n", "abc"],
            ["kernel", "--n", "5", "--samples", "abc"],
            ["fourier", "--order", "1", "--n", "abc", "--samples", "3", "--xmin", "0", "--xmax", "1"],
        ],
    )
    def test_non_integer_message_names_no_private_function(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2
        assert out == ""
        assert "invalid int value: 'abc'" in err
        for name in ("_int", "_pos_int", "_nonneg_int", "_samples_count", "_max_k"):
            assert name not in err


# Argvs past a limit, refused before any work (exit 2), and tolerances that
# cannot be met once panels or nodes were evaluated (exit 3).  The README's
# exit-code table lists the same rows, and a test below holds it to this list.
FAILURE_EXIT_CODES = {
    ("comb", "--n", "5", "--tol", "1e-300"): 3,  # below the roundoff floor
    ("comb", "--n", str(MODE_SAMPLE_CAP // 4)): 2,  # past the sample cap
    ("comb", "--phi", "gauss", "--radius", "1e-300", "--n", "3"): 2,  # support too narrow for the cap
    ("sinc", "--n-max", "3", "--tol", "1e-300"): 3,  # below the rounding floor
    ("action", "--n-list", "10", "--tol", "1e-300"): 3,
    ("sinc", "--n-max", "100000000000"): 2,  # seed grid past the panel budget
    ("action", "--n-list", str(2**52)): 2,  # N + 1/2 is not a float
    ("action", "--n-list", "1" + "0" * 320): 2,
}


def fails_fast(capsys, argv):
    """Run argv, which must end in under a second with its listed code and
    no output; returns stderr."""
    start = time.perf_counter()
    code, out, err = run_text(capsys, list(argv))
    assert time.perf_counter() - start < 1.0
    assert code == FAILURE_EXIT_CODES[argv]
    assert out == ""
    assert "Traceback" not in err
    if code == 2:
        assert "usage" in err.lower()
        assert "numerical failure" not in err
    else:
        assert "numerical failure" in err
    return err


class TestNumericalFailure:
    @pytest.mark.parametrize("argv", [argv for argv in FAILURE_EXIT_CODES if argv[0] == "comb"])
    def test_comb_fails_fast(self, capsys, argv):
        fails_fast(capsys, argv)

    def test_mode_route_refusal_names_its_cap(self, capsys):
        err = fails_fast(capsys, ("comb", "--phi", "gauss", "--radius", "1e-300", "--n", "3"))
        assert f"MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP}" in err
        assert "panels" not in err

    def test_mode_route_failure_counts_nodes(self, capsys):
        err = fails_fast(capsys, ("comb", "--n", "5", "--tol", "1e-300"))
        assert re.search(r"after \d+ nodes: the rounding floor \S+ is above tol = 1\.000e-300$", err)
        assert "panel" not in err

    def test_mode_route_failure_names_the_cap(self, capsys, monkeypatch):
        # On a support inside one period, the first sum of order 5 takes 32
        # samples of phi, and the doubling would pass the cap.
        monkeypatch.setattr(importlib.import_module("zetacomb.actions"), "MODE_SAMPLE_CAP", 32)
        code, out, err = run_text(capsys, ["comb", "--phi", "gauss", "--radius", "3", "--n", "5", "--tol", "1e-10"])
        assert (code, out) == (3, "")
        assert re.search(
            r"after 32 nodes: estimate \S+, and the next doubling passes MODE_SAMPLE_CAP = 32 samples of phi$", err
        )

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("sinc", "--n-max", "100000000000"), r"n_max = 100000000000 .*DEFAULT_PANEL_BUDGET = 1000000 "),
            (("action", "--n-list", str(2**52)), r"N must be < 2\*\*52, where N \+ 1/2 is a float; got an N of 53 bits"),
            (("action", "--n-list", "1" + "0" * 320), r"N must be < 2\*\*52, .* got an N of 1064 bits"),
        ],
        ids=["sinc", "action", "float-range"],
    )
    def test_refusal_names_its_limit_and_value(self, capsys, argv, limit):
        assert re.search(limit, fails_fast(capsys, argv))

    @pytest.mark.parametrize("argv", [argv for argv in FAILURE_EXIT_CODES if argv[0] != "comb"])
    def test_quadrature_fails_fast(self, capsys, argv):
        err = fails_fast(capsys, argv)
        if "1e-300" in argv:
            assert re.search(r"the rounding floor \S+ is above tol = 1\.000e-300\n$", err)

    def test_exit_code_three(self, capsys):
        code, out, err = run_text(capsys, ["sinc", "--n-max", "0", "--tol", "1e-300"])
        assert code == 3
        assert out == ""
        assert "numerical failure" in err

    def test_oracle_mismatch_reports_failure(self, capsys, monkeypatch):
        from zetacomb.exactalg import PiNumber
        from zetacomb.zeta_ladder import ZetaValue

        def wrong_oracle(two_k):
            return ZetaValue(two_k, PiNumber.pi_power(two_k, 1))

        monkeypatch.setattr(cli, "bernoulli_oracle", wrong_oracle)
        code, _, err = run_text(capsys, ["zeta", "--max-k", "1", "--oracle"])
        assert code == 3
        assert "disagree" in err


# Argument texts for the exit-code contract: half of them ordinary values,
# half values at or past every range and cap, or text that is no number.
# Sizes that parse and pass the caps stay small, so no example runs for long.
INT_TEXTS = st.integers(0, 12).map(str) | st.sampled_from(
    [str(n) for n in (-1, -(2**63), 2**31, 2**63, 10**12, 10**320)] + ["abc", "1.5", "", "nan"]
)
FLOAT_TEXTS = st.sampled_from(["0.3", "1.0", "2.5", "-0.7", "3.0", "1e-08", "-3.141592653589793"]) | (
    st.sampled_from(["0.0", "-0.0", "5e-324", "1e-300", "1e+300", "1.5e+154", "5e+154", "1.7e+308",
                     "-1.7e+308", "nan", "inf", "-inf", "1e999", "abc", ""])
)
# A float cell that is no number, as repr (text, csv) or json writes it.
NOT_A_NUMBER = re.compile(r"\b(?:inf|nan|Infinity|NaN)\b")


def flag_values(action: argparse.Action):
    """Texts to try for one flag of the real parser, by its kind."""
    if action.choices is not None:
        return st.sampled_from([str(choice) for choice in action.choices] + ["bogus"])
    return {
        int: INT_TEXTS,
        float: FLOAT_TEXTS,
        cli._n_list: st.lists(INT_TEXTS, min_size=1, max_size=3).map(",".join),
    }[action.type]


def subcommand_argv():
    """argv for every subcommand: each required flag with a value, each other
    flag left out or given (bare, if it takes no value)."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    per_command = []
    for name, sub in subparsers.choices.items():
        parts = [st.just([name])]
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "out"):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                given_as = st.just([flag])
            else:
                given_as = flag_values(action).map(lambda text, flag=flag: [f"{flag}={text}"])
            parts.append(given_as if action.required else st.just([]) | given_as)
        per_command.append(st.tuples(*parts).map(lambda lists: sum(lists, [])))
    return st.one_of(per_command)


@given(subcommand_argv())
# The order-2 closed form is past the float range on both grids, and x**2/2
# on the first.
@example(["fourier", "--order=2", "--n=1", "--samples=2", "--xmin=1e+154", "--xmax=5e+154"])
@example(["fourier", "--order=2", "--n=1", "--samples=2", "--xmin=1e+154", "--xmax=1.5e+154"])
def test_every_argv_exits_zero_two_or_three(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3)
    assert (out.getvalue() != "") == (code == 0)
    assert "Traceback" not in err.getvalue()
    assert NOT_A_NUMBER.search(out.getvalue()) is None


def modules_added_by(probe, modules, *args):
    """Run probe in a fresh interpreter; its stdout words, then those of modules it added.

    A module counts as added when it is in sys.modules after the probe but
    was not before it, so what site loads at start-up does not count.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{probe}\n"
        f"print(*[m for m in {list(modules)!r} if m in sys.modules and m not in before])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=src_env(), capture_output=True, text=True, check=True
    )
    return result.stdout.split()


# Runs the CLI on the probe's own argv, output discarded; prints the exit code.
RUN_ARGV = "import os, zetacomb.cli as cli\nprint(cli.run(sys.argv[1:] + ['--out', os.devnull]))"


def test_cli_import_leaves_numpy_unloaded():
    assert modules_added_by("import zetacomb.cli", ["numpy"]) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--max-k", "3", "--oracle"],
        ["action", "--phi", "gauss", "--n-list", "10", "--format", "json"],
        ["comb", "--n", "5", "--format", "csv"],
        ["sinc", "--n-max", "2"],
    ],
)
def test_runs_without_series_leave_numpy_unloaded(argv):
    # Only large kernel and fourier grids need numpy; the exact and quadrature routes start without it.
    assert modules_added_by(RUN_ARGV, ["numpy"], *argv) == ["0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--n", "5000", "--samples", "1001"],  # 5000 * 500 distinct |x|
        ["fourier", "--order", "1", "--n", "250001", "--samples", "2", "--xmin", "0", "--xmax", "1"],
    ],
    ids=["kernel", "fourier"],
)
def test_series_runs_load_numpy(argv):
    # The probe above can tell: past the scalar limit of terms, a table loads numpy.
    assert modules_added_by(RUN_ARGV, ["numpy"], *argv) == ["0", "numpy"]


@pytest.mark.parametrize("order", ["1", "2"])
def test_small_fourier_grid_leaves_numpy_unloaded(order):
    argv = ["fourier", "--order", order, "--n", "100", "--samples", "9", "--xmin", "-3", "--xmax", "3"]
    assert modules_added_by(RUN_ARGV, ["numpy"], *argv) == ["0"]


def test_refused_fourier_grid_leaves_numpy_unloaded():
    # The partial sums check the float range before they import numpy.
    argv = ["fourier", "--order", "1", "--n", "5", "--samples", "3", "--xmin", "1e307", "--xmax", "1.5e308"]
    assert modules_added_by(RUN_ARGV, ["numpy"], *argv) == ["2"]


def test_criterion_12_table_leaves_numpy_unloaded():
    assert modules_added_by(RUN_ARGV, ["numpy"], "kernel", "--n", "50") == ["0"]


@pytest.mark.parametrize("n, added", [(500, []), (501, ["numpy"])], ids=["at", "above"])
def test_kernel_loads_numpy_only_past_the_scalar_limit(n, added):
    # The default grid of 2001 samples holds 1000 distinct |x| inside the
    # window: 0 and 999 more, as pi lies outside.  At order 500 the table
    # takes exactly the scalar route's limit of terms.
    assert 500 * 1000 == kernels._SCALAR_TERMS
    assert modules_added_by(RUN_ARGV, ["numpy"], "kernel", "--n", str(n)) == ["0", *added]


def test_cli_import_stays_within_its_budget():
    # Every command pays for the import: records are namedtuples, not
    # dataclasses (which pull in inspect), and each format loads its own module.
    heavy = ["dataclasses", "inspect", "typing", "json", "csv", "numpy"]
    assert modules_added_by("import zetacomb.cli", heavy) == []


@pytest.mark.parametrize(
    "fmt, added", [("json", ["json"]), ("csv", ["csv"]), ("text", [])], ids=["json", "csv", "text"]
)
def test_each_format_loads_only_its_own_module(fmt, added):
    argv = ["zeta", "--max-k", "3", "--format", fmt]
    assert modules_added_by(RUN_ARGV, ["json", "csv"], *argv) == ["0", *added]


# Every module of the package but cli, which each probe imports first.
LIBRARY = sorted(
    f"zetacomb.{path.stem}" for path in Path(cli.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "__main__", "cli")
)


def test_cli_import_loads_no_library_module():
    assert len(LIBRARY) == 6
    assert modules_added_by("import zetacomb.cli", LIBRARY) == []


# Each subcommand's argv, the library modules it runs, and the modules of
# WATCHED it loads besides.  The README's "Start-up" table lists the same
# sets, and a test below holds it to this list.
SUBCOMMAND_MODULES = {
    "zeta": (["zeta", "--max-k", "3", "--oracle"], ["exactalg", "zeta_ladder"], ["decimal", "fractions", "numbers"]),
    "sinc": (["sinc", "--n-max", "2"], ["quad"], ["heapq"]),
    "action": (["action", "--phi", "gauss", "--n-list", "10"], ["actions", "kernels", "quad", "testfn"], ["heapq"]),
    "comb": (["comb", "--n", "5"], ["actions", "testfn"], []),
    "kernel": (["kernel", "--n", "50"], ["kernels"], []),
    "fourier": (
        ["fourier", "--order", "1", "--n", "100", "--samples", "5", "--xmin", "-1", "--xmax", "1"],
        ["actions", "kernels"],
        [],
    ),
}
WATCHED = ["decimal", "fractions", "heapq", "numbers"]


@pytest.mark.parametrize("subcommand", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_its_own_modules(subcommand):
    # The whole set of library modules each subcommand loads, as the cli
    # docstring lists it.  The exact and numerical halves share no module,
    # so neither pays to compile the other.
    argv, loaded, others = SUBCOMMAND_MODULES[subcommand]
    added = modules_added_by(RUN_ARGV, [*LIBRARY, *WATCHED], *argv)
    assert added == ["0", *(f"zetacomb.{m}" for m in loaded), *others]


def start_up_table():
    """{subcommand: (library modules, other modules)}, each sorted, as the
    README's "Start-up" table lists them: the names in backquotes."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = re.search(r"\* Start-up:[\s\S]*?\n((?:[ \t]*\|.*\n)+)", readme).group(1).splitlines()
    table = {}
    for line in lines[2:]:  # after the header and its rule
        names, library, others = (re.findall(r"`([^`]+)`", cell) for cell in line.strip().strip("|").split("|"))
        for name in names:
            table[name] = (sorted(library), sorted(others))
    return table


def test_readme_start_up_table_is_the_asserted_module_sets():
    assert start_up_table() == {
        name: (loaded, others) for name, (_, loaded, others) in SUBCOMMAND_MODULES.items()
    }


def exit_code_table():
    """{argv: exit code} as the README's exit-code table lists them."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = re.search(r"\n(\| argv \| exit code \|.*\n(?:\|.*\n)+)", readme).group(1).splitlines()
    table = {}
    for line in lines[2:]:  # after the header and its rule
        argv, code = line.strip().strip("|").split("|")[:2]
        table[tuple(argv.strip().strip("`").split())] = int(code)
    return table


def test_readme_exit_code_table_is_the_asserted_codes(capsys):
    table = exit_code_table()
    assert table == FAILURE_EXIT_CODES
    for argv, code in table.items():
        assert cli.run(list(argv)) == code


def readme_examples():
    """[(argv, stdout)] for every `$ zetacomb ...` line in the README's text
    blocks: its arguments, and the lines under it up to a blank line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return [
        (shlex.split(command), output)
        for block in re.findall(r"```text\n(.*?)```", readme, re.S)
        for command, output in re.findall(r"^\$ zetacomb (.*)\n((?:(?!\$ ).+\n)*)", block, re.M)
    ]


def test_readme_examples_are_the_commands_output(capsys):
    examples = readme_examples()
    assert examples
    for argv, output in examples:
        assert run_text(capsys, argv)[:2] == (0, output), argv


def test_readme_python_quick_start_runs_as_commented(capsys):
    # Both python blocks run in one fresh namespace; the first three prints
    # are the values their comments give, and the action's value starts
    # with the digits of 2*pi its comment gives.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    commented = re.findall(r"^print\(.*\)\s+# (.*)$", blocks[0], re.M)[:3]
    assert commented == ["691/638512875 π^12", "Fraction(691, 638512875)", "1.000246086553308"]
    assert capsys.readouterr().out.splitlines()[:3] == commented
    ((action, digits),) = re.findall(r"^(deltaN_action\(.*\))\s+# -> ([0-9.]+)\.\.\.", blocks[1], re.M)
    assert (action, digits) == ("deltaN_action(phi, 500, 1e-10)", "6.2831853071795")
    assert repr(eval(action, namespace)).startswith(digits)


def test_comb_failure_exits_3_without_loading_quad():
    # QuadratureError is the package's own, so catching it loads no module.
    assert modules_added_by(RUN_ARGV, ["zetacomb.quad"], "comb", "--n", "5", "--tol", "1e-300") == ["3"]


FOURIER_ARGV = ["fourier", "--n", "2", "--samples", "2", "--xmin", "0", "--xmax", "1"]

# Each library name the handlers call through zetacomb.cli: its defining
# module, and an argv whose handler calls it.
PATCH_POINTS = {
    "zeta_even": ("zeta_ladder", ["zeta", "--max-k", "1"]),
    "bernoulli_oracle": ("zeta_ladder", ["zeta", "--max-k", "1", "--oracle"]),
    "deltaN_action": ("actions", ["action", "--n-list", "1"]),
    "delta0_partial_action": ("actions", ["comb", "--n", "1"]),
    "delta0_comb_action": ("actions", ["comb", "--n", "1"]),
    "delta1_closed": ("actions", [*FOURIER_ARGV, "--order", "1"]),
    "delta2_closed": ("actions", [*FOURIER_ARGV, "--order", "2"]),
    "kernel_samples": ("kernels", ["kernel", "--n", "1", "--samples", "2"]),
    "gaussian_bump": ("testfn", ["action", "--phi", "gauss", "--n-list", "1"]),
    "bump_plateau": ("testfn", ["action", "--n-list", "1"]),
}


@pytest.mark.parametrize("name", PATCH_POINTS)
def test_handlers_call_the_patched_name(capsys, monkeypatch, name):
    module, argv = PATCH_POINTS[name]
    original = getattr(importlib.import_module(f"zetacomb.{module}"), name)
    assert getattr(cli, name) is original
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, _, _ = run_text(capsys, argv)
    assert code == 0
    assert calls


def run_probe(code, env):
    """Run code in a fresh interpreter with env; its stdout words."""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.split()


# A fourier op just past the scalar limit through the entry point, which
# imports numpy and so starts whatever BLAS thread pool numpy brings; then
# the threads left and the OpenBLAS variable.  The op's second worker,
# joined, may take a moment to leave /proc/self/task; a BLAS pool's
# threads never leave.
NUMPY_FOURIER_ARGV = ["fourier", "--n", "250001", "--samples", "2", "--xmin", "0", "--xmax", "1"]
MAIN_FOURIER = (
    "import os, sys, time, zetacomb.cli as cli\n"
    "sys.argv = ['zetacomb', *" + repr(NUMPY_FOURIER_ARGV) + ", '--order', '1', '--out', os.devnull]\n"
    "try:\n"
    "    cli.main()\n"
    "except SystemExit as exc:\n"
    "    print(exc.code)\n"
    "deadline = time.monotonic() + 1.0\n"
    "while len(os.listdir('/proc/self/task')) > 1 and time.monotonic() < deadline:\n"
    "    time.sleep(0.01)\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_main_leaves_one_thread_after_a_fourier_op():
    # Without the default, OpenBLAS keeps a thread per further CPU.
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert run_probe(MAIN_FOURIER, env) == ["0", "1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_main_keeps_the_callers_openblas_setting():
    code, _, value = run_probe(MAIN_FOURIER, src_env(OPENBLAS_NUM_THREADS="2"))
    assert (code, value) == ("0", "2")


def test_library_leaves_the_environment_alone():
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import zetacomb.actions as actions\n"
        "imported = dict(os.environ) == before\n"
        "actions.fourier_partial_delta1(500001, 0.5)\n"
        "print(imported, dict(os.environ) == before)"
    )
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert run_probe(code, env) == ["True", "True"]


def test_run_leaves_the_collector_alone():
    # run() is what tests and perfbench/tracer.py call in process: it keeps
    # the collector on and freezes nothing, on an op that loads numpy too.
    code = (
        "import gc, os, sys, zetacomb.cli as cli\n"
        "codes = [\n"
        "    cli.run([*" + repr(NUMPY_FOURIER_ARGV) + ", '--order', '1', '--out', os.devnull]),\n"
        "    cli.run(['zeta', '--max-k', '60', '--oracle', '--out', os.devnull]),\n"
        "]\n"
        "print(*codes, 'numpy' in sys.modules, gc.isenabled(), gc.get_freeze_count())"
    )
    assert run_probe(code, src_env()) == ["0", "0", "True", "True", "0"]


def test_main_runs_no_collection():
    code = (
        "import gc, os, sys, zetacomb.cli as cli\n"
        "sys.argv = ['zetacomb', 'zeta', '--max-k', '60', '--oracle', '--out', os.devnull]\n"
        "collections = []\n"
        "gc.callbacks.append(lambda phase, info: collections.append(info['generation']))\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0, collections)"
    )
    assert run_probe(code, src_env()) == ["0", "False", "True", "[]"]


# One argv per subcommand, each run in every format.
SUBCOMMAND_ARGVS = [
    ["zeta", "--max-k", "12", "--oracle"],
    ["kernel", "--n", "7", "--samples", "9"],
    ["action", "--phi", "gauss", "--n-list", "0,3,40"],
    ["comb", "--n", "4"],
    ["fourier", "--order", "2", "--n", "50", "--samples", "5", "--xmin", "-3", "--xmax", "3"],
    ["sinc", "--n-max", "5"],
]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=[argv[0] for argv in SUBCOMMAND_ARGVS])
def test_main_writes_the_bytes_run_writes(capsys, argv, fmt):
    argv = [*argv, "--format", fmt]
    code, out, _ = run_text(capsys, argv)
    result = subprocess.run(
        [sys.executable, "-m", "zetacomb.cli", *argv], env=src_env(PYTHONIOENCODING="utf-8"), capture_output=True
    )
    assert (result.returncode, result.stdout) == (code, out.encode("utf-8"))
    assert code == 0


def subparser(name: str) -> argparse.ArgumentParser:
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[name]


@pytest.mark.parametrize(
    "argv",
    [*SUBCOMMAND_ARGVS, ["action", "--n-list", "3"], ["comb", "--phi", "gauss", "--n", "4"]],
    ids=[argv[0] for argv in SUBCOMMAND_ARGVS] + ["action-plateau", "comb-gauss"],
)
def test_json_params_name_every_option(capsys, argv):
    # The params are the parsed options, in the parser's order, but
    # --format and --out: an option added to a subparser reaches them.  A
    # plateau has no --center or --radius; a gauss bump names the defaults
    # it was built with.
    code, out, _ = run_text(capsys, [*argv, "--format", "json"])
    assert code == 0
    params = json.loads(out)["params"]
    options = [
        a.dest for a in subparser(argv[0])._actions if a.option_strings and a.dest not in ("help", "format", "out")
    ]
    if argv[0] in ("action", "comb"):
        assert params["phi"] == ("gauss" if "gauss" in argv else "plateau")
        if params["phi"] == "plateau":
            options = [dest for dest in options if dest not in ("center", "radius")]
        else:
            assert (params["center"], params["radius"]) == (0.0, 1.0)
    assert list(params) == options
