"""Command-line surface: list parsing, CSV shape, precedence, exit codes."""
import argparse
import math

import pytest

from fblfas.cli import (
    PerformanceCurve,
    main,
    parse_float_list,
    parse_int_list,
    render_csv,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            if " = " in line:
                key, _, value = line[1:].partition(" = ")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


class TestParseLists:
    def test_int_forms(self):
        assert parse_int_list("5,50") == (5, 50)
        assert parse_int_list("1:4") == (1, 2, 3, 4)
        assert parse_int_list("1:10:3") == (1, 4, 7, 10)
        assert parse_int_list("1:3,10") == (1, 2, 3, 10)
        assert parse_int_list(" 7 ") == (7,)

    def test_float_forms(self):
        assert parse_float_list("2.5") == (2.5,)
        vals = parse_float_list("0:30:2")
        assert len(vals) == 16 and vals[0] == 0.0 and vals[-1] == 30.0
        vals = parse_float_list("0.1:1:0.1")
        assert len(vals) == 10
        assert vals[-1] == pytest.approx(1.0)

    def test_rejects_garbage(self):
        for bad in ("abc", "5:1", "1:5:0", "1::2:3", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_int_list(bad)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_float_list("1:x")


class TestRenderCsv:
    def test_layout(self):
        curve = PerformanceCurve(
            sweep_name="t", sweep_values=(1.0, 2.0),
            series={"a": (0.5, 0.25)},
            metadata={"command": "dist", "zeta": "1", "alpha": "2"})
        text = render_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "# fblfas dist"
        assert lines[1] == "# alpha = 2"  # metadata keys sorted
        assert lines[2] == "# zeta = 1"
        assert lines[3] == "t,a"
        assert lines[4].startswith("1,0.5")

    def test_floats_round_trip(self):
        value = 0.1 + 0.2
        curve = PerformanceCurve("x", (value,), {"y": (1.0 / 3.0,)},
                                 {"command": "dist"})
        _, _, rows = parse_csv(render_csv(curve))
        assert rows[0][0] == value
        assert rows[0][1] == 1.0 / 3.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PerformanceCurve("x", (1.0, 2.0), {"y": (0.5,)}, {})


class TestDistCommand:
    ARGS = ["dist", "--ports", "4", "--samples", "2000", "--t-points", "5",
            "--t-min", "0.5", "--t-max", "6", "--seed", "3"]

    def test_structure(self, capsys):
        code, out, err = run_cli(capsys, self.ARGS)
        assert code == 0 and err == ""
        meta, header, rows = parse_csv(out)
        assert out.startswith("# fblfas dist\n")
        assert header == ["t", "cdf_analytic", "pdf_analytic", "cdf_mc", "cdf_mc_se"]
        assert len(rows) == 5
        assert meta["ports"] == "4"
        assert meta["samples"] == "2000"
        cdf = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert all(0.0 <= r[3] <= 1.0 for r in rows)

    def test_rerun_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, self.ARGS + ["--out", str(target)])
        assert code == 0 and out == ""
        _, stdout_text, _ = run_cli(capsys, self.ARGS)
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["dist", "--t-min", "5", "--t-max", "1"])
        assert code == 2
        assert "error" in err


class TestQuadCheckCommand:
    def test_order_alias_and_mu2(self, capsys):
        base = ["quad-check", "--mu2", "0.25", "--lb", "2",
                "--t-points", "4", "--t-min", "0.5", "--t-max", "4"]
        code, out, _ = run_cli(capsys, base + ["--order", "16"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["quad_order"] == "16"
        assert meta["mu"] == "0.5"  # resolved from --mu2
        assert header == ["t", "gl_value_mu0.5", "oracle_value_mu0.5",
                          "abs_err_sq_mu0.5"]
        assert all(r[3] < 1e-20 for r in rows)  # weak correlation: exact
        code2, out2, _ = run_cli(capsys, base + ["--quad-order", "16"])
        assert code2 == 0 and out2 == out

    def test_default_mu_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["quad-check", "--t-points", "3"])
        assert code == 0
        _, header, _ = parse_csv(out)
        assert "gl_value_mu0.1" in header
        assert "gl_value_mu0.97" in header

    def test_invalid_mu_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["quad-check", "--mu", "1.5"])
        assert code == 2
        assert "mu" in err


class TestSweepCommands:
    def test_bler_vs_u_columns(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bler-vs-u", "--users", "1:3", "--ports", "2", "--width", "1",
            "--snr-db", "10", "--mrc", "1", "--mrc-trials", "2000"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["users", "fas_N2", "mrc_L1"]
        assert [r[0] for r in rows] == [1.0, 2.0, 3.0]
        assert all(0.0 < r[1] <= 1.0 for r in rows)

    def test_bler_vs_u_mc_overlay(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bler-vs-u", "--users", "2,4", "--ports", "3", "--width", "1",
            "--snr-db", "10", "--mrc", "1", "--mrc-trials", "2000",
            "--mc-samples", "2000"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["users", "fas_N3", "mc_N3", "mc_N3_se", "mrc_L1"]
        for row in rows:
            # a 3-port array is where the block approximation is coarsest;
            # only a loose agreement with the exact channel is expected
            assert abs(row[1] - row[2]) < 5.0 * row[3] + 0.2
            assert row[3] > 0.0

    def test_bler_vs_w_large_port_count(self, capsys):
        # the block fit is matrix-free, so analytic sweeps take N far past
        # what a dense eigensolve would allow
        code, out, err = run_cli(capsys, [
            "bler-vs-w", "--ports", "20000", "--widths", "0.5", "--mrc", "1",
            "--mrc-trials", "1000"])
        assert code == 0
        assert err == ""
        _, header, rows = parse_csv(out)
        assert header == ["width", "fas", "mrc_L1"]
        assert 0.0 < rows[0][1] <= 1.0

    def test_op_vs_u_columns(self, capsys):
        code, out, _ = run_cli(capsys, [
            "op-vs-u", "--users", "2:4", "--ports", "5", "--snr-db", "-20",
            "--mrc", "1,2"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["users", "fas_N5", "mrc_L1", "mrc_L2"]
        for row in rows:
            assert 0.0 < row[1] <= 1.0
            assert row[2] > row[3]  # two branches beat one

    def test_op_vs_snr_runs(self, capsys):
        code, out, _ = run_cli(capsys, [
            "op-vs-snr", "--snr-db=-30,-20", "--ports", "5", "--mrc", "1"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["snr_db", "fas_N5", "mrc_L1"]
        assert rows[1][1] < rows[0][1]  # outage falls with SNR


class TestConfigFile:
    def test_file_supplies_defaults_cli_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nports = 4\nt-points = 3\nseed = 9\n",
                       encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "dist", "--config", str(cfg), "--ports", "6",
            "--samples", "2000", "--t-min", "0.5", "--t-max", "4"])
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert meta["ports"] == "6"      # command line beats the file
        assert meta["seed"] == "9"       # file beats the built-in default
        assert len(rows) == 3

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("portz = 4\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["dist", "--config", str(cfg)])
        assert code == 2
        assert "unknown configuration key" in err

    def test_bad_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ports = banana\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["dist", "--config", str(cfg)])
        assert code == 2
        assert "bad value" in err


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fblfas" in capsys.readouterr().out

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
