"""Command-line surface: list parsing, CSV shape, precedence, exit codes."""
import argparse
import math
import threading
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
from fblfas import cli, metrics, montecarlo, parallel
from fblfas.fas_stats import GainDistribution
from fblfas.montecarlo import empirical_outage, empirical_statistical_bler
from reference import dense_factor


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

    def test_mc_columns_run_past_a_thousand_ports(self, capsys, monkeypatch):
        # the factor behind the draws comes matrix-free, so the overlay takes
        # any port count; its cells agree with draws through the dense
        # oracle's factor (another seed) within four standard errors, plus
        # one draw in the thousand where both columns sit at 0 or 1
        argv = ["dist", "--ports", "1200", "--samples", "1000", "--t-points", "4",
                "--t-min", "1", "--t-max", "20"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert header == ["t", "cdf_analytic", "pdf_analytic", "cdf_mc", "cdf_mc_se"]
        monkeypatch.setattr(montecarlo, "eigen_factor", dense_factor)
        code, out, err = run_cli(capsys, argv + ["--seed", "2"])
        assert code == 0 and err == ""
        for row, dense in zip(rows, parse_csv(out)[2]):
            assert 0.0 <= row[1] <= 1.0 and row[2] >= 0.0
            assert 0.0 <= row[3] <= 1.0 and math.isfinite(row[4])
            assert abs(row[3] - dense[3]) <= 4.0 * math.hypot(row[4], dense[4]) + 1e-3

    def test_default_grid_evaluates_the_gain_law_once_per_point(self, capsys, monkeypatch):
        # both columns come from one evaluation per grid point: 200
        # abscissas enter the block-factor kernel for the 200 points,
        # against 400 when each column evaluated its own
        abscissas = Counter()
        block_factors = fas_stats._block_factors

        def counted(x, *rest, **kwargs):
            abscissas.update(x.tolist())
            return block_factors(x, *rest, **kwargs)

        monkeypatch.setattr(fas_stats, "_block_factors", counted)
        code, out, _ = run_cli(capsys, ["dist"])
        assert code == 0 and len(parse_csv(out)[2]) == 200
        assert len(abscissas) == 200 and set(abscissas.values()) == {1}

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["dist", "--t-min", "5", "--t-max", "1"])
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("subcommand", ["dist", "quad-check"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_grid_without_points_exits_2(capsys, subcommand, count):
    code, out, err = run_cli(capsys, [subcommand, "--t-points", count])
    assert (code, out) == (2, "")
    assert err == f"fblfas: error: --t-points must be at least 1, got {count}\n"


class TestQuadCheckCommand:
    def test_removed_options_exit_2(self, capsys):
        # quad-check draws nothing and takes its correlations from --mu;
        # --seed, --mu2 and the --order alias of --quad-order are gone
        for extra in (["--seed", "1"], ["--mu2", "0.25"], ["--order", "16"]):
            with pytest.raises(SystemExit) as exc:
                main(["quad-check", "--t-points", "2"] + extra)
            assert exc.value.code == 2, extra
            assert capsys.readouterr().out == "", extra

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
        # unchecked, --sigma2 0 raised ZeroDivisionError, inf printed an
        # all-zero CSV, and -2 and nan were blamed on the gain argument
        for sigma2 in ("0", "inf", "-2", "nan"):
            argv = ["quad-check", "--t-points", "2", "--sigma2", sigma2]
            assert run_cli(capsys, argv) == (
                2, "", "fblfas: error: sigma2 must be positive and finite\n"), sigma2


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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bler_vs_u_shares_each_distributions_work(self, capsys, monkeypatch, threads):
        # every error-bound point of a curve reads one grid of edges and
        # whole panels per distribution, the panel that holds its own kink
        # included (interpolated across the kink, not evaluated on nodes of
        # its own): the block factors run at most once per distinct
        # abscissa, also with two threads set, since analytic points run
        # serially; the curve evaluates exactly the abscissas its points
        # would alone, and beyond its deepest point the six others add one
        # panel and its edge between them at N = 50 and none at N = 5 (when
        # each point cut its own panel, each added up to a panel and a CDF)
        monkeypatch.setenv(parallel.THREADS_ENV, threads)
        evaluations, dists = Counter(), {}
        block_factors, distribution = fas_stats._block_factors, cli._gain_distribution

        def counted_factors(x, lam_rate, sizes, *rest, **kwargs):
            evaluations.update((lam_rate, tuple(sizes), v) for v in x.tolist())
            return block_factors(x, lam_rate, sizes, *rest, **kwargs)

        def remembered(ports, *rest):
            dists[ports] = distribution(ports, *rest)
            return dists[ports]

        monkeypatch.setattr(fas_stats, "_block_factors", counted_factors)
        monkeypatch.setattr(cli, "_gain_distribution", remembered)
        users = range(1, 21, 3)
        code, _, _ = run_cli(capsys, ["bler-vs-u", "--users", "1:20:3", "--ports", "5,50",
                                      "--mrc", "1", "--mrc-trials", "1000"])
        assert code == 0
        assert evaluations and max(evaluations.values()) == 1
        assert sorted(dists) == [5, 50]
        curve = set(evaluations)
        for ports, dist in dists.items():
            alone = []
            for count in users:
                evaluations.clear()
                fresh = GainDistribution(model=dist.model, channel_variance=dist.channel_variance,
                                         rule=dist.rule)
                metrics.statistical_bler(SystemConfig.from_snr_db(
                    ports=ports, antenna_length=1.0, users=count, blocklength=5,
                    snr_db=20.0), fresh)
                alone.append(set(evaluations))
            sizes = tuple(size for size, _ in dist._size_counts)
            mine = {key for key in curve if key[:2] == (dist._lam_rate, sizes)}
            assert mine == set.union(*alone)
            deepest = max(map(len, alone))
            assert len(mine) <= deepest + metrics._PANEL_ORDER + 1

    @pytest.mark.parametrize("subcommand, cap", [("bler-vs-u", 351), ("bler-vs-snr", 201)])
    def test_default_error_bound_curves_cap_their_densities(self, capsys, monkeypatch,
                                                            subcommand, cap):
        # the default curves (20 and 16 points) read one shared grid of
        # panels per distribution, and one evaluation of the gain law gives
        # both the density at a node and the CDF at an edge: the caps are
        # the densities plus CDFs that bler-vs-u and bler-vs-snr took when
        # the two were evaluated apart (336 + 15 and 192 + 9). When each
        # point also evaluated a panel of its own at its kink, bler-vs-u
        # took 792 and 648 densities per distribution and bler-vs-snr 552,
        # 552 and 504, and the benchmark's two-point curves did not show it.
        # The count is of abscissas entering the block-factor kernel, which
        # takes a panel's 24 at once
        evaluations = Counter()
        block_factors = fas_stats._block_factors

        def counted(x, lam_rate, sizes, *rest, **kwargs):
            evaluations[lam_rate, tuple(sizes)] += len(x)
            return block_factors(x, lam_rate, sizes, *rest, **kwargs)

        monkeypatch.setattr(fas_stats, "_block_factors", counted)
        code, _, _ = run_cli(capsys, [subcommand])
        assert code == 0
        assert evaluations and max(evaluations.values()) <= cap

    def test_only_monte_carlo_chunks_leave_the_main_thread(self, capsys, monkeypatch):
        # FBLFAS_THREADS = T starts at most T threads: the channels are fitted
        # one after another on the main thread, and only parallel.run_chunks
        # opens a pool, once, for the chunks that draw every channel
        monkeypatch.setenv(parallel.THREADS_ENV, "2")
        calls = Counter()

        def on_main_thread(fn):
            def spy(*args, **kwargs):
                calls[fn.__name__, threading.current_thread() is threading.main_thread()] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(parallel, "run_chunks", on_main_thread(parallel.run_chunks))
        monkeypatch.setattr(cli, "_gain_distribution", on_main_thread(cli._gain_distribution))
        code, _, err = run_cli(capsys, ["op-vs-u", "--ports", "5,50", "--mc-samples", "140000"])
        assert code == 0 and err == ""
        assert calls == Counter({("run_chunks", True): 1, ("_gain_distribution", True): 2})

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

    MRC_SWEEP = ["bler-vs-snr", "--snr-db", "10,20,10", "--ports", "5", "--mrc", "1,2"]

    def test_bler_vs_snr_mrc_columns_are_the_deterministic_average(self, capsys, monkeypatch):
        # each distinct (branches, config) is evaluated once and read into
        # its cells; nothing is drawn, so --seed, --mrc-trials and the
        # thread count leave the columns as they are
        calls = Counter()
        average = metrics.mrc_statistical_bler

        def counted(branches, config):
            calls[branches, config] += 1
            return average(branches, config)

        monkeypatch.setattr(cli, "mrc_statistical_bler", counted)
        columns = []
        for extra, threads in (([], "1"), (["--seed", "4", "--mrc-trials", "70000"], "2")):
            monkeypatch.setenv(parallel.THREADS_ENV, threads)
            calls.clear()
            code, out, err = run_cli(capsys, self.MRC_SWEEP + extra)
            assert code == 0 and err == ""
            assert len(calls) == 4 and set(calls.values()) == {1}
            _, header, rows = parse_csv(out)
            columns.append([[row[header.index(f"mrc_L{b}")] for row in rows] for b in (1, 2)])
        assert columns[0] == columns[1]
        for branches, column in zip((1, 2), columns[0]):
            for snr, value in zip((10.0, 20.0, 10.0), column):
                cfg = SystemConfig.from_snr_db(ports=1, antenna_length=0.5, users=10,
                                               blocklength=5, snr_db=snr)
                assert value == average(branches, cfg)

    def test_mrc_trials_is_accepted_and_moves_no_cell(self, capsys):
        # the flag draws nothing but stays accepted, and echoed, for
        # callers that still pass it
        _, plain, _ = run_cli(capsys, self.MRC_SWEEP)
        code, given, err = run_cli(capsys, self.MRC_SWEEP + ["--mrc-trials", "1000"])
        assert code == 0 and err == ""
        plain, given = plain.splitlines(), given.splitlines()
        assert len(plain) == len(given)
        assert [(a, b) for a, b in zip(plain, given) if a != b] == [
            ("# mrc_trials = 100000", "# mrc_trials = 1000")]

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

    def test_mc_overlays_draw_each_channel_once(self, capsys, monkeypatch):
        # every point on one channel reads one set of exact-channel draws,
        # and every channel of a sweep is drawn in the same chunk: one
        # _max_gains call per chunk, keyed here by its port counts
        calls = Counter()
        max_gains = montecarlo._max_gains

        def counted(index, size, channels, seed):
            calls[tuple(factor_t.shape[1] for factor_t, _, _ in channels), index, size] += 1
            return max_gains(index, size, channels, seed)

        monkeypatch.setattr(montecarlo, "_max_gains", counted)
        code, _, err = run_cli(capsys, [
            "bler-vs-n", "--ports", "5,10,5", "--mc-samples", "5000", "--mrc", "1",
            "--mrc-trials", "1000"])
        assert code == 0 and err == ""
        assert calls == Counter({((5, 10), 0, 5000): 1})
        calls.clear()
        # 70,000 draws are two chunks, each drawing both port counts, for the
        # screened outage overlay as for the error bound
        full, rest = parallel.CHUNK_DRAWS, 70_000 - parallel.CHUNK_DRAWS
        two_chunks = Counter({((5, 8), index, size): 1
                              for index, size in enumerate((full, rest))})
        code, _, err = run_cli(capsys, [
            "op-vs-u", "--users", "2,3,2", "--ports", "5,8", "--snr-db", "-15",
            "--gamma-th", "0.01", "--mc-samples", "70000", "--mrc", "1", "--seed", "3"])
        assert code == 0 and err == ""
        assert calls == two_chunks
        calls.clear()
        code, out, err = run_cli(capsys, [
            "bler-vs-snr", "--snr-db", "10,20,10", "--ports", "5,8",
            "--mc-samples", "70000", "--mrc", "1", "--mrc-trials", "1000", "--seed", "3"])
        assert code == 0 and err == ""
        assert calls == two_chunks
        monkeypatch.undo()
        _, header, rows = parse_csv(out)
        for ports in (5, 8):
            value, se = header.index(f"mc_N{ports}"), header.index(f"mc_N{ports}_se")
            for snr, row in zip((10.0, 20.0, 10.0), rows):
                cfg = SystemConfig.from_snr_db(ports=ports, antenna_length=0.5, users=10,
                                               blocklength=5, snr_db=snr)
                est = empirical_statistical_bler(cfg, samples=70_000, seed=3)
                assert (row[value], row[se]) == (est.value, est.standard_error)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_op_vs_u_mc_columns_equal_one_port_runs(self, capsys, monkeypatch, threads):
        # the three channels read one normal stream per chunk (70,000 draws
        # are two chunks), and each column keeps the bytes of its own run
        monkeypatch.setenv(parallel.THREADS_ENV, threads)

        def mc_columns(ports):
            code, out, err = run_cli(capsys, ["op-vs-u", "--ports", ports,
                                              "--mc-samples", "70000"])
            assert code == 0 and err == ""
            lines = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            return {name: [row[j] for row in lines[1:]] for j, name in enumerate(lines[0])
                    if name.startswith("mc_")}

        together = mc_columns("5,50,200")
        alone = {}
        for ports in ("5", "50", "200"):
            alone.update(mc_columns(ports))
        assert sorted(together) == sorted(alone) and len(together) == 6
        assert together == alone

    def test_mc_outage_pass_draws_one_stream_per_command(self, capsys, monkeypatch):
        # the benchmark's mc_outage pass (perfbench/workloads.py): op-vs-u on
        # N = 50 and 200, both rank 7 at W = 0.5, and dist at N = 10, rank 7
        # too, each 65,536 draws; the two op-vs-u channels share their stream
        drawn, chunk_rng = [], parallel.chunk_rng

        class Counted:
            def __init__(self, rng):
                self._rng = rng

            def standard_normal(self, size=None, out=None):
                values = self._rng.standard_normal(size, out=out)
                drawn.append(values.size)
                return values

        monkeypatch.setattr(parallel, "chunk_rng", lambda seed, index: Counted(
            chunk_rng(seed, index)))
        for argv in (["op-vs-u", "--ports", "50,200", "--users", "6,15", "--width", "0.5",
                      "--snr-db=-35", "--gamma-th", "0.0001", "--blocklength", "5",
                      "--sigma2", "2", "--mc-samples", "65536", "--seed", "1001"],
                     ["dist", "--ports", "10", "--width", "0.5", "--samples", "65536",
                      "--t-points", "200", "--seed", "1001"]):
            code, _, err = run_cli(capsys, argv)
            assert code == 0 and err == ""
        assert sum(drawn) == 2 * parallel.CHUNK_DRAWS * 2 * 7 == 1_835_008

    def test_mc_overlay_runs_past_a_thousand_ports(self, capsys, monkeypatch):
        # the overlay cell lies in the benchmark's band around the analytic
        # cell (4 SE + 0.05, the block model's error included) and agrees
        # with draws through the dense oracle's factor (another seed)
        argv = ["op-vs-u", "--ports", "1001", "--users", "2", "--mc-samples", "2000"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert header[:4] == ["users", "fas_N1001", "mc_N1001", "mc_N1001_se"]
        fas, mc, se = rows[0][1:4]
        assert 0.0 < fas <= 1.0 and 0.0 < mc < 1.0
        assert abs(mc - fas) <= 4.0 * se + 0.05
        monkeypatch.setattr(montecarlo, "eigen_factor", dense_factor)
        code, out, err = run_cli(capsys, argv + ["--seed", "2"])
        assert code == 0 and err == ""
        dense, dense_se = parse_csv(out)[2][0][2:4]
        assert abs(mc - dense) <= 4.0 * math.hypot(se, dense_se)


class TestThreadsVariable:
    @pytest.mark.parametrize("raw, message", [
        ("abc", "FBLFAS_THREADS must be an integer, got 'abc'"),
        ("0", "FBLFAS_THREADS must be >= 1, got '0'"),
    ])
    @pytest.mark.parametrize("argv", [["bler-vs-u", "--users", "1:2"], ["quad-check"]],
                             ids=["bler-vs-u", "quad-check"])
    def test_malformed_value_exits_2(self, capsys, monkeypatch, raw, message, argv):
        # outside input, so it fails also a subcommand that draws nothing
        monkeypatch.setenv(parallel.THREADS_ENV, raw)
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"fblfas: error: {message}\n")


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

    @pytest.mark.parametrize("text", ["ports = 3\nports = 7\n",
                                      "# spellings of one key\nt-points = 3\nt_points = 4\n"],
                             ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["dist", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert f"{cfg}:{text.count(chr(10))}: repeated key" in err

    def test_bad_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ports = banana\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["dist", "--config", str(cfg)])
        assert code == 2
        assert "bad value" in err


class TestParserBasics:
    # argv whose output argparse writes itself: help, usage and errors
    ANSWERED = [[], ["--help"], ["--version"], ["bogus"], ["--seed", "3", "dist"],
                ["dist", "--help"], ["op-vs-u", "-h"], ["quad-check", "--help"],
                ["dist", "--bogus"], ["op-vs-u", "--version"], ["bler-vs-n", "--ports"],
                ["bler-vs-w", "--widths", "x"], ["quad-check", "extra"]]

    @pytest.mark.parametrize("argv", ANSWERED, ids=" ".join)
    def test_output_reads_as_with_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as full:
            cli.build_parser()[0].parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, capsys.readouterr()) == (full.value.code, want)

    def test_builds_only_the_invoked_subcommand(self, capsys, monkeypatch, tmp_path):
        built, build = [], cli.build_parser

        def spy(command=None):
            parser, by_name = build(command)
            built.append(sorted(by_name))
            return parser, by_name

        monkeypatch.setattr(cli, "build_parser", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-points = 3\n", encoding="utf-8")
        argv = ["quad-check", "--config", str(cfg), "--mu", "0.5"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "") and len(parse_csv(out)[2]) == 3
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.startswith("fblfas ")
        assert built == [["quad-check"], sorted(cli._COMMANDS)]
        # the file's defaults went to the parser built for that call alone
        assert len(parse_csv(run_cli(capsys, argv[:1])[1])[2]) == 50

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fblfas" in capsys.readouterr().out

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
