"""Spatial correlation construction, sampling, and block-model fitting."""
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from fblfas.channel import (
    BlockModel,
    SystemConfig,
    ToeplitzCorrelation,
    build_correlation,
    eigen_factor,
    fit_block_model,
    load_block_model,
    load_correlation,
    sample_channels,
    save_block_model,
    save_correlation,
)


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
        assert np.all(np.diag(corr.matrix) == 1.0)
        assert np.array_equal(corr.matrix, corr.matrix.T)
        assert corr.first_row[0] == 1.0
        assert float(np.trace(corr.matrix)) == pytest.approx(10.0)

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
        fac = eigen_factor(corr)
        approx = (fac.eigenvectors * fac.eigenvalues[None, :]) @ fac.eigenvectors.T
        err = float(np.linalg.norm(approx - corr.matrix))
        assert err <= 1e-8 * ports

    def test_factor_squares_to_matrix(self):
        corr = build_correlation(20, 1.0)
        fac = eigen_factor(corr)
        np.testing.assert_allclose(fac.factor @ fac.factor.T, corr.matrix, atol=1e-10)

    def test_factor_keeps_only_unclipped_columns(self):
        # the sinc kernel at W = 0.5 has 7 eigenvalues above the clip, so
        # draws need 7 complex Gaussians per sample, not 200
        corr = build_correlation(200, 0.5)
        factor = eigen_factor(corr).factor
        assert factor.shape == (200, 7)
        np.testing.assert_allclose(factor @ factor.T, corr.matrix, rtol=0, atol=1e-10)

    def test_eigenvalues_sorted_and_clipped(self):
        fac = eigen_factor(build_correlation(50, 0.5))
        assert np.all(np.diff(fac.eigenvalues) <= 0.0)
        assert np.all(fac.eigenvalues >= 0.0)
        # the sinc kernel is numerically rank deficient: most of the
        # spectrum must have been clipped to exactly zero
        assert np.sum(fac.eigenvalues == 0.0) > 25
        assert float(fac.eigenvalues.sum()) == pytest.approx(50.0, rel=1e-6)


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
        np.testing.assert_allclose(cov, 2.0 * corr.matrix, atol=0.04)

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

    def test_validation(self):
        fac = eigen_factor(build_correlation(4, 0.5))
        with pytest.raises(ValueError):
            sample_channels(fac, -1.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_channels(fac, 2.0, 0, seed=0)


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
        assert np.array_equal(exact.matrix, np.eye(6))
        model = fit_block_model(exact, 0.5)
        assert model.block_count == 6
        assert model.block_sizes == (1,) * 6

    def test_near_identity_from_sinc_zeros(self):
        # W = (N-1)/2 puts every lag on a sinc zero; round-off leaves the
        # eigenvalues within an ulp of 1 and the fit must still see N blocks
        corr = build_correlation(6, 2.5)
        np.testing.assert_allclose(corr.matrix, np.eye(6), atol=1e-14)
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

    # (N, W) grid of the dense oracle: tiny N that go straight to the dense
    # path, the sinc plunge from W = 0.01 to 50, and W = (N-1)/2, where
    # every lag sits on a sinc zero and the spectrum has no plunge
    ORACLE_GRID = [(n, w) for n in (2, 3, 6, 11, 50, 200, 1000)
                   for w in (0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0, 50.0)]
    ORACLE_GRID += [(2000, w) for w in (0.01, 0.5, 3.0, 50.0)]
    ORACLE_GRID += [(n, (n - 1) / 2) for n in (2, 3, 6, 11, 50, 200, 1000)]

    def test_matches_dense_oracle(self):
        for n, w in self.ORACLE_GRID:
            corr = build_correlation(n, w)
            model = fit_block_model(corr, 0.97)
            assert "matrix" not in corr.__dict__
            vals = np.linalg.eigvalsh(corr.matrix)[::-1]
            threshold = max(1e-2 * vals[0], vals.sum() / n)
            b = int(np.sum(vals >= threshold * (1.0 - 1e-9)))
            assert model.block_count == b, (n, w)
            assert model.block_sizes == (n - b + 1,) + (1,) * (b - 1), (n, w)

    def test_large_fit_never_builds_the_matrix(self):
        corr = build_correlation(100_000, 1.0)
        model = fit_block_model(corr, 0.97)
        assert "matrix" not in corr.__dict__
        # the 2W+1 = 3 dominant modes and a fourth above 1e-2 of the largest
        assert model.block_count == 4
        assert model.ports == 100_000

    def test_mu2_validation(self):
        corr = build_correlation(10, 0.5)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                fit_block_model(corr, bad)
        with pytest.raises(ValueError):
            BlockModel(block_count=2, block_sizes=(3,), mu2=0.5)
        with pytest.raises(ValueError):
            BlockModel(block_count=1, block_sizes=(0,), mu2=0.5)


class TestSerialization:
    def test_correlation_round_trip(self, tmp_path):
        corr = build_correlation(12, 0.7)
        path = tmp_path / "corr.txt"
        save_correlation(corr, path)
        # the first row defines the matrix; no N^2 floats are written
        assert [ln.partition("=")[0] for ln in path.read_text().splitlines()] == [
            "size", "first_row"]
        back = load_correlation(path)
        assert back.size == corr.size
        assert np.array_equal(back.first_row, corr.first_row)
        assert np.array_equal(back.matrix, corr.matrix)

    def test_block_model_round_trip(self, tmp_path):
        model = fit_block_model(build_correlation(50, 1.0), 0.97)
        path = tmp_path / "model.txt"
        save_block_model(model, path)
        back = load_block_model(path)
        assert back == model

    def test_corrupt_correlation_rejected(self, tmp_path):
        corr = build_correlation(4, 0.5)
        path = tmp_path / "corr.txt"
        save_correlation(corr, path)
        size, row = path.read_text().splitlines()
        path.write_text(size + "\n" + row.rpartition(",")[0] + "\n")  # drop the last lag
        with pytest.raises(ValueError):
            load_correlation(path)

    def test_stored_matrix_must_match_first_row(self, tmp_path):
        # files that still carry a `matrix:` block load only when it is the
        # Toeplitz matrix of the first row
        corr = build_correlation(4, 0.5)
        path = tmp_path / "corr.txt"
        save_correlation(corr, path)
        header = path.read_text()
        rows = [",".join(repr(float(v)) for v in r) for r in corr.matrix]
        path.write_text(header + "matrix:\n" + "\n".join(rows) + "\n")
        assert np.array_equal(load_correlation(path).matrix, corr.matrix)
        for bad in (rows[:-1],  # a row short
                    rows[:-1] + [rows[-1].rpartition(",")[0]],  # a value short
                    rows[:-1] + ["0.5," + rows[-1].partition(",")[2]]):  # a wrong value
            path.write_text(header + "matrix:\n" + "\n".join(bad) + "\n")
            with pytest.raises(ValueError):
                load_correlation(path)
