"""Byte identity of CLI sweeps against CSVs captured from earlier code.

Each file in tests/golden/ is the output of `fblfas <argv>` for the argv
listed here. The small sweeps were captured from the per-subcommand loops
that the table-driven sweep engine replaced. They cover all eight
subcommands, Monte Carlo and MRC columns, repeated sweep values, a
`bler-vs-n` port count past the Monte Carlo cap, `quad-check` with its
default correlation sweep and a configuration file. The two *_default files
are the default `bler-vs-snr` and `bler-vs-u`, captured before the
distribution memo and the proved clamp, when they took 130 s and 8 s; the
`bler-vs-snr` run then also warned four times, for the low-SNR points whose
integral did not converge. Every sweep must now run without a warning.
Rewrite a file only for an output change that is intended and stated.
"""
from pathlib import Path

import numpy as np
import pytest

from fblfas import cli, metrics, parallel
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
    "quad_check_mu2": ["quad-check", "--mu2", "0.25", "--lb", "2", "--order", "16",
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
    # count takes one call, and the bound runs once per chunk of its draws
    # (70,000 trials: a full chunk and a ragged one)
    calls, bounds = [], []
    original = cli.mrc_conditional_bler
    bound = metrics.conditional_bler

    def counted(branches, config, trials, seed):
        calls.append(branches)
        return original(branches, config, trials, seed)

    def counted_bound(users, blocklength, gain, codeword_variance, noise_variance):
        bounds.append(np.size(gain))
        return bound(users, blocklength, gain, codeword_variance, noise_variance)

    monkeypatch.setattr(cli, "mrc_conditional_bler", counted)
    monkeypatch.setattr(metrics, "conditional_bler", counted_bound)
    assert main(["bler-vs-n", "--ports", "5,10,20", "--mrc", "1,2",
                 "--mrc-trials", "70000"]) == 0
    assert sorted(calls) == [1, 2]
    assert sorted(bounds) == sorted(2 * parallel.chunk_sizes(70_000))
    capsys.readouterr()
