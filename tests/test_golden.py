"""Byte identity of CLI sweeps against CSVs captured from earlier code.

Each file in tests/golden/ is the output of `fblfas <argv>` for the argv
listed here. The small sweeps were captured from the per-subcommand loops
that the table-driven sweep engine replaced. They cover all eight
subcommands, Monte Carlo and MRC columns, repeated sweep values, a
`bler-vs-n` port count past a thousand, where the sampling factor comes
matrix-free, `quad-check` with its default correlation sweep and a
configuration file. The two *_default files
are the default `bler-vs-snr` and `bler-vs-u`, first captured when they
took 130 s and 8 s and `bler-vs-snr` warned four times, for the low-SNR
points whose adaptive integral did not converge; their fas columns were
re-captured for the fixed-order error-bound rule, within 1e-12 relative.
Every analytic and MRC column was re-captured once more when the library
dropped scipy (its own Poisson tails, ln k! table, inverse normal and
Gauss rule solver), within 5.3e-13 relative, and quad-check's squared
errors within 9.2e-28 absolute; the Monte Carlo columns kept their bytes.
The fas columns of the seven bler_* files were re-captured when the error
bound changed functional, from min(E[h(G)], 1) to the E[min(h(G), 1)] that
the overlays and the MRC benchmark estimate, by up to 96% relative (1 to
0.040 in bler_vs_u_default); their MRC columns moved within 2.1e-14
relative, and their Monte Carlo columns and every other file kept their
bytes.
The fas and mrc_L columns of the seven bler_* files were re-captured once
more when the error-bound sum came to read only its shared grid (the
panel that holds the kink interpolated, not evaluated on its own nodes)
and to drop the panels above the edge where its tail bound is negligible:
the fas cells moved by up to 1.9e-11 relative (bler_vs_snr_default,
fas_N1000) and the mrc_L cells by up to 3.0e-14 (bler_vs_u_default,
mrc_L2); every other column and file kept its bytes.
The two quad_check files lost their `# seed = 1` line when quad-check,
which draws nothing, dropped --seed; their bodies kept their bytes.
No file moved when the split rule's block factors became one array kernel
over batches of abscissas, on Poisson tables cut to each panel's band,
with panels of 16 nodes at every order.
No file moved when the Laguerre rule became one panel of that kernel, in
place of a noncentral chi-square family per distribution.
The N = 1001 Monte Carlo cells of bler_vs_n, NaN while overlays stopped at
a thousand ports, were captured when the sampling factor came to be found
matrix-free; every other cell and file kept its bytes, since every other
port count here is 20 or less, where the factor is still the dense eigh's.
Every sweep must run without a warning.
Rewrite a file only for an output change that is intended and stated.
"""
from collections import Counter
from pathlib import Path

import pytest

from fblfas import cli, metrics
from fblfas.channel import SystemConfig
from fblfas.cli import main

GOLDEN = Path(__file__).parent / "golden"
MC = ["--mc-samples", "2000", "--mrc-trials", "2000"]

SWEEPS = {
    "dist": ["dist", "--ports", "4", "--samples", "2000", "--t-points", "5",
             "--t-min", "0.5", "--t-max", "6", "--seed", "3"],
    "bler_vs_u": ["bler-vs-u", "--users", "3,1,3", "--ports", "2,6", "--width", "1",
                  "--snr-db", "10", "--mrc", "1,2", "--seed", "5"] + MC,
    "bler_vs_snr": ["bler-vs-snr", "--snr-db", "10,20,10", "--ports", "3,8",
                    "--users", "4", "--mrc", "1,2", "--seed", "2"] + MC,
    "bler_vs_n": ["bler-vs-n", "--ports", "5,10,5,1001", "--users", "4", "--snr-db", "20",
                  "--mrc", "1,2"] + MC,
    "bler_vs_w": ["bler-vs-w", "--widths", "0.5,1,0.5", "--ports", "8", "--users", "4",
                  "--snr-db", "15", "--mrc", "1,2"] + MC,
    "op_vs_snr": ["op-vs-snr", "--snr-db=-20,-10,-20", "--ports", "5,20", "--users", "4",
                  "--gamma-th", "0.01", "--mrc", "1,3"] + MC,
    "op_vs_u": ["op-vs-u", "--users", "3,20,2,3", "--ports", "5,20", "--snr-db=-15",
                "--gamma-th", "0.01", "--mrc", "1,2"] + MC,
    "quad_check": ["quad-check", "--t-points", "4"],
    "quad_check_mu2": ["quad-check", "--mu", "0.5", "--lb", "2", "--quad-order", "16",
                       "--t-points", "4", "--t-min", "0.5", "--t-max", "4"],
    "bler_vs_snr_config": ["bler-vs-snr", "--config", str(GOLDEN / "bler_vs_snr.cfg"),
                           "--mrc", "2"],
    "bler_vs_snr_default": ["bler-vs-snr"],
    "bler_vs_u_default": ["bler-vs-u"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_output_matches_golden(name, capsys):
    assert main(SWEEPS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


def test_bler_vs_n_evaluates_the_mrc_benchmark_once_per_branch_count(monkeypatch, capsys):
    # every port count shares the single-antenna MRC config, so each branch
    # count takes one evaluation, whose value fills its whole column
    calls = Counter()
    average = metrics.mrc_statistical_bler

    def counted(branches, config):
        calls[branches] += 1
        return average(branches, config)

    monkeypatch.setattr(cli, "mrc_statistical_bler", counted)
    assert main(["bler-vs-n", "--ports", "5,10,20", "--mrc", "1,2",
                 "--mrc-trials", "70000"]) == 0
    assert calls == Counter({1: 1, 2: 1})
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    header, rows = lines[0].split(","), [[float(v) for v in line.split(",")]
                                         for line in lines[1:]]
    for branches in (1, 2):
        cfg = SystemConfig.from_snr_db(ports=1, antenna_length=1.0, users=10,
                                       blocklength=5, snr_db=12.0)
        want = average(branches, cfg)
        assert [row[header.index(f"mrc_L{branches}")] for row in rows] == [want] * 3


def test_bler_vs_w_evaluates_the_mrc_benchmark_once_per_branch_count(monkeypatch, capsys):
    # a single antenna's bound reads no aperture, so the widths of the
    # sweep share one evaluation per branch count (20 for the ten widths
    # before), and each cell keeps the bits of an evaluation at its width
    calls = Counter()
    average = metrics.mrc_statistical_bler

    def counted(branches, config):
        calls[branches] += 1
        return average(branches, config)

    monkeypatch.setattr(cli, "mrc_statistical_bler", counted)
    assert main(["bler-vs-w", "--widths", "0.1:1:0.1", "--ports", "50"]) == 0
    assert calls == Counter({1: 1, 2: 1})
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    header, rows = lines[0].split(","), [[float(v) for v in line.split(",")]
                                         for line in lines[1:]]
    assert len(rows) == 10
    for branches in (1, 2):
        for row in rows:
            cfg = SystemConfig.from_snr_db(ports=1, antenna_length=row[0], users=10,
                                           blocklength=5, snr_db=12.0)
            assert row[header.index(f"mrc_L{branches}")] == average(branches, cfg)
