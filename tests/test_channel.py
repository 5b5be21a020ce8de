"""Spatial correlation construction, sampling, and block-model fitting."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, stats

from fblfas import channel
from fblfas.channel import (
    BlockModel,
    SystemConfig,
    ToeplitzCorrelation,
    build_correlation,
    eigen_factor,
    fit_block_model,
)
from reference import dense_factor, sample_channels


class TestSystemConfig:
    def test_snr_and_codeword_variance(self):
        cfg = SystemConfig(ports=10, antenna_length=0.5, users=4, blocklength=5,
                           channel_variance=2.0, noise_variance=0.02)
        assert cfg.snr == pytest.approx(100.0)
        assert cfg.codeword_variance == pytest.approx(0.2)

    def test_from_snr_db(self):
        cfg = SystemConfig.from_snr_db(ports=10, antenna_length=0.5, users=4,
                                       blocklength=5, snr_db=20.0)
        assert cfg.noise_variance == pytest.approx(0.02)
        assert 10.0 * math.log10(cfg.snr) == pytest.approx(20.0)
        neg = SystemConfig.from_snr_db(ports=10, antenna_length=0.5, users=4,
                                       blocklength=5, snr_db=-35.0)
        assert neg.noise_variance == pytest.approx(2.0 * 10.0**3.5)

    def test_validation(self):
        good = dict(ports=10, antenna_length=0.5, users=4, blocklength=5)
        for bad in (dict(ports=0), dict(users=0), dict(blocklength=-1),
                    dict(antenna_length=0.0), dict(channel_variance=-2.0),
                    dict(noise_variance=0.0), dict(outage_threshold=math.inf)):
            with pytest.raises(ValueError):
                SystemConfig(**{**good, **bad})


class TestBuildCorrelation:
    def test_unit_diagonal_and_symmetry(self):
        corr = build_correlation(10, 0.5)
        matrix = linalg.toeplitz(corr.first_row)
        assert np.array_equal(channel._toeplitz(corr.first_row), matrix)
        assert np.all(np.diag(matrix) == 1.0)
        assert np.array_equal(matrix, matrix.T)
        assert corr.first_row[0] == 1.0
        assert float(np.trace(matrix)) == pytest.approx(10.0)

    def test_sinc_zeros(self):
        # lag n has argument 2 pi n W / (N-1); at N=2, W=0.5 the single
        # off-diagonal lag sits exactly on the first sinc zero
        corr = build_correlation(2, 0.5)
        assert abs(corr.first_row[1]) < 1e-15
        corr = build_correlation(10, 0.5)
        assert abs(corr.first_row[9]) < 1e-15

    def test_known_lag_value(self):
        corr = build_correlation(5, 1.0)
        z = 2.0 * math.pi * 1.0 / 4.0
        assert corr.first_row[1] == pytest.approx(math.sin(z) / z, rel=1e-14)

    def test_neighbor_correlation_grows_with_density(self):
        dense = build_correlation(500, 0.5).first_row[1]
        sparse = build_correlation(5, 0.5).first_row[1]
        assert dense > sparse
        assert dense > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            build_correlation(1, 0.5)
        with pytest.raises(ValueError):
            build_correlation(10, 0.0)
        with pytest.raises(ValueError):
            build_correlation(10, -1.0)


class TestEigenFactor:
    @pytest.mark.parametrize("ports,width", [(10, 0.5), (50, 1.0), (200, 2.0)])
    def test_reconstruction(self, ports, width):
        corr = build_correlation(ports, width)
        factor = eigen_factor(corr)
        err = float(np.linalg.norm(factor @ factor.T - linalg.toeplitz(corr.first_row)))
        assert err <= 1e-8 * ports

    def test_factor_squares_to_matrix(self):
        corr = build_correlation(20, 1.0)
        factor = eigen_factor(corr)
        np.testing.assert_allclose(factor @ factor.T, linalg.toeplitz(corr.first_row), atol=1e-10)

    def test_factor_keeps_only_unclipped_columns(self):
        # the sinc kernel at W = 0.5 has 7 eigenvalues above the clip, so
        # draws need 7 complex Gaussians per sample, not 200
        corr = build_correlation(200, 0.5)
        factor = eigen_factor(corr)
        assert factor.shape == (200, 7)
        np.testing.assert_allclose(factor @ factor.T, linalg.toeplitz(corr.first_row),
                                   rtol=0, atol=1e-10)

    def test_eigenvalues_sorted_and_clipped(self):
        # column k carries eigenvalue k as its squared norm: descending,
        # positive, and summing to the trace N
        factor = eigen_factor(build_correlation(50, 0.5))
        norms = np.sum(factor * factor, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)
        assert np.all(norms >= 1e-12 * norms[0])
        # the sinc kernel is numerically rank deficient: most of the
        # spectrum must have been clipped away
        assert factor.shape[1] < 25
        assert float(norms.sum()) == pytest.approx(50.0, rel=1e-6)

    # the matrix-free factor against the dense oracle: the sinc plunge from
    # W = 0.5 to 50, N from just past the tiny-N dense path to 2500
    ORACLE_GRID = [(n, w) for n in (17, 20, 60, 200, 1000, 2500)
                   for w in (0.5, 1.0, 3.0, 10.0, 50.0) if w <= (n - 1) / 2]

    def test_matches_dense_oracle(self):
        for n, w in self.ORACLE_GRID:
            corr = build_correlation(n, w)
            factor = eigen_factor(corr)
            matrix = linalg.toeplitz(corr.first_row)
            vals = np.linalg.eigvalsh(matrix)
            rank = int(np.count_nonzero(vals >= channel.EIGENVALUE_CLIP * vals[-1]))
            assert factor.shape == (n, rank), (n, w)
            assert float(np.max(np.abs(factor @ factor.T - matrix))) <= 1e-10, (n, w)

    def test_tiny_port_counts_keep_the_dense_bits(self):
        # at N <= 16 two blocks of 8 columns would span the space, so the
        # search is the dense eigh and every draw keeps its bits
        for n in range(2, 17):
            for w in (0.05, 0.5, 1.0, 3.0, (n - 1) / 2):
                corr = build_correlation(n, w)
                assert np.array_equal(eigen_factor(corr), dense_factor(corr)), (n, w)

    def test_large_factor_never_builds_the_matrix(self, monkeypatch):
        def refuse(row):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(channel, "_toeplitz", refuse)
        factor = eigen_factor(build_correlation(1200, 0.5))
        assert factor.shape == (1200, 7)

    def test_factor_bits_do_not_follow_the_blas_thread_count(self):
        # the Monte Carlo cells past a thousand ports (a golden file among
        # them) read these factors; a gemm over N would round differently
        # on one BLAS thread and on two, and flip the sign of some columns
        script = ("import hashlib\n"
                  "from fblfas.channel import build_correlation, eigen_factor\n"
                  "for n, w in ((200, 0.5), (1001, 1.0), (2500, 3.0)):\n"
                  "    factor = eigen_factor(build_correlation(n, w))\n"
                  "    print(hashlib.sha256(factor.tobytes()).hexdigest())\n")
        src = str(Path(channel.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=False)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_small_factor_goes_dense_before_any_block_step(self, monkeypatch):
        # at W = 0.5 seven eigenvalues reach the clip, N / 8 or more for N up
        # to 56: the search would need blocks of N / 4 columns, and the
        # factor goes dense without forming one
        calls = []
        qr = np.linalg.qr

        def recorded_qr(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        for n in range(20, 56):
            assert eigen_factor(build_correlation(n, 0.5)).shape == (n, 7)
        assert calls == []
        assert eigen_factor(build_correlation(200, 0.5)).shape == (200, 7)
        assert calls


class TestSampleChannels:
    def test_shape_and_dtype(self):
        fac = eigen_factor(build_correlation(10, 0.5))
        g = sample_channels(fac, 2.0, 1000, seed=1)
        assert g.shape == (1000, 10)
        assert g.dtype == np.complex128

    def test_port_marginals(self):
        fac = eigen_factor(build_correlation(10, 0.5))
        g = sample_channels(fac, 2.0, 200_000, seed=5)
        power = np.abs(g) ** 2
        # per-port mean gain sigma^2 within 1 percent
        np.testing.assert_allclose(power.mean(axis=0), 2.0, rtol=0.01)
        # per-port gain is exponential: KS against Expon(scale=2) below the
        # 1 percent critical value 1.63/sqrt(n)
        for k in (0, 4, 9):
            ks = stats.kstest(power[:, k], "expon", args=(0.0, 2.0)).statistic
            assert ks < 1.63 / math.sqrt(power.shape[0])

    def test_empirical_covariance(self):
        corr = build_correlation(8, 1.0)
        fac = eigen_factor(corr)
        g = sample_channels(fac, 2.0, 200_000, seed=9)
        cov = (g.conj().T @ g).real / g.shape[0]
        np.testing.assert_allclose(cov, 2.0 * linalg.toeplitz(corr.first_row), atol=0.04)

    def test_deterministic_across_workers(self):
        fac = eigen_factor(build_correlation(10, 0.5))
        a = sample_channels(fac, 2.0, 150_000, seed=3, workers=1)
        b = sample_channels(fac, 2.0, 150_000, seed=3, workers=8)
        assert np.array_equal(a, b)

    def test_seed_changes_draws(self):
        fac = eigen_factor(build_correlation(10, 0.5))
        a = sample_channels(fac, 2.0, 1000, seed=3)
        b = sample_channels(fac, 2.0, 1000, seed=4)
        assert not np.array_equal(a, b)


class TestFitBlockModel:
    def test_reference_setup_two_blocks(self):
        model = fit_block_model(build_correlation(10, 0.5), 0.97)
        assert model.block_count == 2
        assert model.block_sizes == (9, 1)
        assert model.ports == 10

    def test_wider_aperture_three_blocks(self):
        # 2W+1 dominant modes at W=1
        model = fit_block_model(build_correlation(50, 1.0), 0.97)
        assert model.block_count == 3
        assert model.block_sizes == (48, 1, 1)

    def test_identity_correlation_all_singletons(self):
        row = np.zeros(6)
        row[0] = 1.0
        exact = ToeplitzCorrelation(size=6, first_row=row)
        assert np.array_equal(linalg.toeplitz(exact.first_row), np.eye(6))
        model = fit_block_model(exact, 0.5)
        assert model.block_count == 6
        assert model.block_sizes == (1,) * 6

    def test_near_identity_from_sinc_zeros(self):
        # W = (N-1)/2 puts every lag on a sinc zero; round-off leaves the
        # eigenvalues within an ulp of 1 and the fit must still see N blocks
        corr = build_correlation(6, 2.5)
        np.testing.assert_allclose(linalg.toeplitz(corr.first_row), np.eye(6), atol=1e-14)
        model = fit_block_model(corr, 0.5)
        assert model.block_count == 6
        assert model.block_sizes == (1,) * 6

    @pytest.mark.parametrize("ports", [5, 10, 50, 500])
    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
    def test_sizes_partition_ports(self, ports, width):
        model = fit_block_model(build_correlation(ports, width), 0.97)
        assert sum(model.block_sizes) == ports
        assert all(size >= 1 for size in model.block_sizes)
        assert model.block_count == len(model.block_sizes)

    def test_degenerate_spectrum_falls_back(self):
        zero = ToeplitzCorrelation(size=3, first_row=np.zeros(3))
        with pytest.warns(UserWarning, match="degenerate"):
            model = fit_block_model(zero, 0.9)
        assert model.block_count == 1
        assert model.block_sizes == (3,)

    # (N, W) grid of the dense oracle, 128 pairs: tiny N that go straight to
    # the dense path, the sinc plunge from W = 0.01 to 300, and W = (N-1)/2,
    # where every lag sits on a sinc zero and the spectrum has no plunge
    ORACLE_GRID = [(n, w) for n in (2, 3, 6, 11, 17, 50, 56, 200, 500, 1000)
                   for w in (0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)]
    ORACLE_GRID += [(n, w) for n in (500, 1000) for w in (100.0, 200.0)]
    ORACLE_GRID += [(2000, w) for w in (0.01, 0.5, 3.0, 50.0, 300.0)]
    ORACLE_GRID += [(n, (n - 1) / 2) for n in (2, 3, 6, 11, 17, 50, 56, 200, 1000)]

    def test_matches_dense_oracle(self):
        for n, w in self.ORACLE_GRID:
            corr = build_correlation(n, w)
            model = fit_block_model(corr, 0.97)
            vals = np.linalg.eigvalsh(linalg.toeplitz(corr.first_row))[::-1]
            threshold = max(1e-2 * vals[0], vals.sum() / n)
            b = int(np.sum(vals >= threshold * (1.0 - 1e-9)))
            assert model.block_count == b, (n, w)
            assert model.block_sizes == (n - b + 1,) + (1,) * (b - 1), (n, w)

    def test_large_fit_never_builds_the_matrix(self, monkeypatch):
        def refuse(row):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(channel, "_toeplitz", refuse)
        corr = build_correlation(100_000, 1.0)
        model = fit_block_model(corr, 0.97)
        # the 2W+1 = 3 dominant modes and a fourth above 1e-2 of the largest
        assert model.block_count == 4
        assert model.ports == 100_000

    def test_wide_spectrum_goes_dense_before_any_block_step(self, monkeypatch):
        # at N = 2000, W = 200 about 2W + 1 = 401 eigenvalues are
        # significant, over N / 8: certifying them would need blocks of
        # N / 4 columns or more, and the fit goes dense without forming one
        # (it formed 1,024 columns first, taking 1.17 s against 0.74 s);
        # at W = 100 it still certifies the block model without the dense
        # solve
        widths, dense = [], []
        qr, eigvalsh = np.linalg.qr, np.linalg.eigvalsh

        def recorded_qr(a, *args, **kwargs):
            widths.append(a.shape[1])
            return qr(a, *args, **kwargs)

        def recorded_eigvalsh(a, *args, **kwargs):
            dense.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
        corr = build_correlation(2000, 200.0)
        model = fit_block_model(corr, 0.97)
        assert max(widths, default=0) < 2000 // 4 and dense == [2000]
        vals = eigvalsh(linalg.toeplitz(corr.first_row))[::-1]
        threshold = max(1e-2 * vals[0], vals.sum() / 2000)
        assert model.block_count == int(np.sum(vals >= threshold * (1.0 - 1e-9)))
        widths.clear()
        dense.clear()
        fit_block_model(build_correlation(2000, 100.0), 0.97)
        assert widths and not dense

    def test_mu2_validation(self):
        corr = build_correlation(10, 0.5)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                fit_block_model(corr, bad)
        with pytest.raises(ValueError):
            BlockModel(block_sizes=(0,), mu2=0.5)
