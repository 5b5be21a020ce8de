"""Command-line surface: list parsing, CSV shape, precedence, exit codes."""
import argparse
import math
from collections import Counter

import pytest

from fblfas import fas_stats
from fblfas.channel import SystemConfig
from fblfas.cli import (
    PerformanceCurve,
    main,
    parse_float_list,
    parse_int_list,
    render_csv,
)
from fblfas import montecarlo, parallel
from fblfas.fas_stats import GainDistribution
from fblfas.metrics import _TAIL_MASS, mrc_conditional_bler
from fblfas.montecarlo import empirical_outage


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

    def test_bler_vs_u_shares_each_distributions_work(self, capsys, monkeypatch):
        # every error-bound point of a curve averages over one distribution
        # on the same adaptive panels of [0, upper]: the block factors run
        # at most once per distinct abscissa (without the memo, 16,800
        # evaluations for 1,350 abscissas) and the limit is bisected once
        evaluations, bisection_calls, dists = Counter(), Counter(), {}
        block_factors, cdf = fas_stats._block_factors, fas_stats.cdf_gfas

        def counted_factors(x, lam_rate, sizes, *rest, **kwargs):
            evaluations[lam_rate, tuple(sizes), x] += 1
            return block_factors(x, lam_rate, sizes, *rest, **kwargs)

        def counted_cdf(dist, t):
            # only quantile reads this binding; metrics holds its own
            dists[id(dist)] = dist
            bisection_calls[id(dist)] += 1
            return cdf(dist, t)

        monkeypatch.setattr(fas_stats, "_block_factors", counted_factors)
        monkeypatch.setattr(fas_stats, "cdf_gfas", counted_cdf)
        code, _, _ = run_cli(capsys, ["bler-vs-u", "--users", "1:20", "--ports", "5,50",
                                      "--mrc", "1", "--mrc-trials", "1000"])
        assert code == 0
        assert len(evaluations) > 1000 and max(evaluations.values()) == 1
        assert len(dists) == 2
        for key, dist in list(dists.items()):
            calls = bisection_calls[key]
            bisection_calls[key] = 0
            fresh = GainDistribution(model=dist.model, channel_variance=dist.channel_variance,
                                     rule=dist.rule)
            fas_stats.quantile(fresh, 1.0 - _TAIL_MASS)
            assert calls == bisection_calls[id(fresh)]

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

    def test_bler_vs_snr_draws_each_mrc_chunk_once(self, capsys, monkeypatch):
        # the MRC gains depend on (L, sigma^2, trials, seed) only, so every
        # SNR of the curve reads one set of draws per branch count; 70,000
        # trials end in a ragged chunk
        draws = Counter()
        chunk_rng = parallel.chunk_rng

        class CountedGenerator:
            def __init__(self, seed, index):
                self._rng, self._key = chunk_rng(seed, index), (seed, index)

            def gamma(self, shape, scale, size):
                draws[shape, scale, size, self._key] += 1
                return self._rng.gamma(shape=shape, scale=scale, size=size)

        monkeypatch.setattr(parallel, "chunk_rng", CountedGenerator)
        code, out, err = run_cli(capsys, [
            "bler-vs-snr", "--snr-db", "10,20", "--ports", "5", "--mrc", "1,2",
            "--mrc-trials", "70000", "--seed", "4"])
        assert code == 0 and err == ""
        full, rest = parallel.CHUNK_DRAWS, 70_000 - parallel.CHUNK_DRAWS
        assert draws == Counter({(branches, 2.0, size, (4, index)): 1
                                 for branches in (1, 2)
                                 for index, size in enumerate((full, rest))})
        monkeypatch.undo()
        _, header, rows = parse_csv(out)
        for branches in (1, 2):
            column = header.index(f"mrc_L{branches}")
            for snr, row in zip((10.0, 20.0), rows):
                cfg = SystemConfig.from_snr_db(ports=1, antenna_length=0.5, users=10,
                                               blocklength=5, snr_db=snr)
                assert row[column] == mrc_conditional_bler(branches, cfg, 70_000, seed=4)

    def test_op_vs_u_mc_equals_per_point_outage(self, capsys):
        # one draw per port count serves the whole sweep; U = 20 is
        # saturated, U = 3 repeats a threshold, 70,000 draws end in a
        # ragged chunk
        users = (3, 20, 2, 3)
        code, out, err = run_cli(capsys, [
            "op-vs-u", "--users", ",".join(map(str, users)), "--ports", "5,20",
            "--width", "0.5", "--snr-db", "-15", "--gamma-th", "0.01",
            "--mc-samples", "70000", "--mrc", "1", "--seed", "4"])
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        for ports in (5, 20):
            value, se = header.index(f"mc_N{ports}"), header.index(f"mc_N{ports}_se")
            for u, row in zip(users, rows):
                cfg = SystemConfig.from_snr_db(ports=ports, antenna_length=0.5, users=u,
                                               blocklength=5, snr_db=-15.0,
                                               outage_threshold=0.01)
                est = empirical_outage(cfg, samples=70_000, seed=4)
                assert (row[value], row[se]) == (est.value, est.standard_error)
        assert rows[1][header.index("mc_N5")] == 1.0

    def test_op_vs_snr_mc_equals_per_point_outage(self, capsys):
        snrs = (-14.0, -18.0, -14.0)
        code, out, err = run_cli(capsys, [
            "op-vs-snr", "--snr-db=" + ",".join(map(str, snrs)), "--ports", "8",
            "--users", "2", "--gamma-th", "0.01", "--mc-samples", "70000",
            "--mrc", "1", "--seed", "9"])
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        value, se = header.index("mc_N8"), header.index("mc_N8_se")
        for snr, row in zip(snrs, rows):
            cfg = SystemConfig.from_snr_db(ports=8, antenna_length=0.5, users=2,
                                           blocklength=5, snr_db=snr,
                                           outage_threshold=0.01)
            est = empirical_outage(cfg, samples=70_000, seed=9)
            assert (row[value], row[se]) == (est.value, est.standard_error)
            assert 0.0 < est.value < 1.0

    def test_mc_overlay_stops_at_the_port_cap(self, capsys, monkeypatch):
        # past the cap an overlay cell is NaN; the dense N x N factor behind
        # a draw is never built
        def refuse(correlation):
            raise AssertionError(f"eigen_factor called at N = {correlation.size}")

        monkeypatch.setattr(montecarlo, "eigen_factor", refuse)
        code, out, err = run_cli(capsys, [
            "op-vs-u", "--ports", "1001", "--users", "2", "--mc-samples", "2000"])
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert header[:4] == ["users", "fas_N1001", "mc_N1001", "mc_N1001_se"]
        assert 0.0 < rows[0][1] <= 1.0
        assert math.isnan(rows[0][2]) and math.isnan(rows[0][3])


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
