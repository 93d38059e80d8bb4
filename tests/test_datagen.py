import multiprocessing.process
import os
from dataclasses import replace

import numpy as np
import pytest

import circfreg as cf
from circfreg import (
    CoefVector,
    SequenceSpec,
    SlopeSpec,
    default_truncation,
    design_matrix,
    make_slope,
    simulate,
    slope_tail_bias,
    substream,
    weighted_norm_sq,
    write_sample_csv,
)

PP = SequenceSpec("PP", a=1.0, p=2.0, s=0.0)
PP_PAIRED = SequenceSpec("PP", a=1.0, p=2.0, s=0.0, enforce_pair=True)


class TestMakeSlope:
    def test_single_coefficient(self):
        # normalized over the whole profile, where gamma_j shape_j^2 = j^-3
        from scipy.special import zeta

        slope = make_slope(SlopeSpec(PP, radius=1.0), 1)
        assert slope.coefs[0] == pytest.approx(zeta(3.0) ** -0.5, rel=1e-15)

    def test_sqrt_radius(self):
        slope = make_slope(SlopeSpec(PP, radius=4.0), 1)
        assert slope.coefs[0] == 2.0 * make_slope(SlopeSpec(PP, radius=1.0), 1).coefs[0]

    def test_ellipsoid_equality(self):
        # the first 200 coefficients and the tail past them, sum_{j > 200} c^2 j^-3
        from scipy.special import zeta

        spec = SlopeSpec(PP, radius=1.0)
        slope = make_slope(spec, 200)
        norm = weighted_norm_sq(slope, np.exp(PP.log_smoothness_weights(200)))
        assert norm + spec.scale**2 * zeta(3.0, 201) == pytest.approx(1.0, rel=1e-12)

    def test_ellipsoid_equality_ep_logspace(self):
        seq = SequenceSpec("EP", a=1.0, p=1.0, s=0.0)
        spec = SlopeSpec(seq, radius=2.0)
        slope = make_slope(spec, 50)
        live = slope.coefs != 0.0  # far tail underflows to exact zeros
        log_terms = (seq.log_smoothness_weights(50)[live]
                     + 2.0 * np.log(np.abs(slope.coefs[live])))
        assert float(np.sum(np.exp(log_terms))) == pytest.approx(2.0, rel=1e-12)

    def test_norm_monotone_in_radius(self):
        norms = []
        for rho in (0.5, 1.0, 2.0, 4.0):
            slope = make_slope(SlopeSpec(PP, radius=rho), 100)
            norms.append(weighted_norm_sq(slope, np.exp(PP.log_smoothness_weights(100))))
        assert np.all(np.diff(norms) > 0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            SlopeSpec(PP, radius=0.0)

    def test_profile_cached_and_spec_compared_by_fields(self):
        spec = SlopeSpec(PP, radius=1.0)
        make_slope(spec, 20)  # caches the scale on spec only
        twin = SlopeSpec(PP, radius=1.0)
        assert "scale" in vars(spec) and "scale" not in vars(twin)
        assert spec == twin and hash(spec) == hash(twin)
        assert "scale" not in vars(replace(spec, radius=4.0))
        assert (make_slope(replace(spec, radius=4.0), 20).coefs[0]
                == 2.0 * make_slope(spec, 20).coefs[0])

    def test_tail_bias_matches_direct_sum(self):
        spec = SlopeSpec(PP, radius=1.0)
        slope_long = make_slope(SlopeSpec(PP, radius=1.0), 30)
        # direct continuation of the coefficient profile beyond the truncation
        c = spec.scale
        j = np.arange(31, 200001, dtype=float)
        direct = float(np.sum((c * j ** -3.5) ** 2))  # s = 0
        assert slope_tail_bias(spec, 30) == pytest.approx(direct, rel=1e-9)
        del slope_long

    def test_tail_bias_ep_converges(self):
        seq = SequenceSpec("EP", a=1.0, p=1.0, s=0.0)
        tail = slope_tail_bias(SlopeSpec(seq, radius=1.0), 5)
        assert 0.0 < tail < 1e-10

    @pytest.mark.parametrize("regime", ["PP", "PE"])
    @pytest.mark.parametrize("p", [0.3, 1.0, 2.0, 5.0])
    def test_tail_bias_matches_hurwitz_zeta(self, regime, p):
        from scipy.special import zeta

        for s in (-1.0, 0.0, 0.25):
            for n_coef in (1, 5, 60, 4000, 8000):
                spec = SlopeSpec(SequenceSpec(regime, a=1.0, p=p, s=s), radius=1.0)
                # sum_{j > n_coef} j^(2s) (c j^-(p + 3/2))^2
                expected = spec.scale ** 2 * zeta(2.0 * (p + 1.5 - s), n_coef + 1)
                assert slope_tail_bias(spec, n_coef) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("regime", ["PP", "PE"])
    def test_tail_bias_is_zero_where_the_remainder_underflows(self, regime):
        # at p = 1e103 the remainder's x^3 overflows to inf while a^-x is 0
        spec = SlopeSpec(SequenceSpec(regime, a=1.0, p=1e103), radius=1.0)
        assert slope_tail_bias(spec, 5) == 0.0

    def test_tail_bias_ep_slow_decay_matches_direct_sum(self):
        spec = SlopeSpec(SequenceSpec("EP", a=1.0, p=0.1, s=0.0), radius=1.0)
        # (c exp(-j^0.2 / 2) / j)^2 summed over 2^25 indices, far past where
        # the terms stop mattering in float64
        total = 0.0
        for start in range(4001, 4001 + 2**25, 2**20):
            j = np.arange(start, start + 2**20, dtype=float)
            total += float(np.sum(np.exp(-(j**0.2)) / j**2))
        expected = spec.scale ** 2 * total
        assert slope_tail_bias(spec, 4000) == pytest.approx(expected, rel=1e-12)


class TestSimulate:
    def test_model_collapses_without_signal_or_noise(self):
        sample = simulate(PP, CoefVector([0.0]), n=50, sigma=0.0, seed=1, n_coef=5)
        assert np.all(sample.y == 0.0)

    def test_bit_identical_replay(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 20)
        a = simulate(PP, slope, n=100, sigma=0.5, seed=42, replicate=3, n_coef=20)
        b = simulate(PP, slope, n=100, sigma=0.5, seed=42, replicate=3, n_coef=20)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.xcoef, b.xcoef)

    def test_distinct_replicates_differ(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 20)
        a = simulate(PP, slope, n=100, sigma=0.5, seed=42, replicate=0, n_coef=20)
        b = simulate(PP, slope, n=100, sigma=0.5, seed=42, replicate=1, n_coef=20)
        assert not np.array_equal(a.y, b.y)

    def test_slope_longer_than_truncation_rejected(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 30)
        with pytest.raises(ValueError):
            simulate(PP, slope, n=50, sigma=0.5, seed=1, n_coef=20)

    @pytest.mark.parametrize("n, sigma, message", [
        (1, 0.5, "sample size must be >= 2, got 1"),
        (50, -0.5, "sigma must be >= 0, got -0.5"),
    ])
    def test_size_and_noise_level_checked(self, n, sigma, message):
        with pytest.raises(ValueError, match=message):
            simulate(PP, CoefVector([0.0]), n=n, sigma=sigma, seed=1, n_coef=5)

    def test_default_truncation_covers_weight_cap(self):
        for spec, n in ((PP, 100), (SequenceSpec("PP", a=1.0, p=2.0, s=1.0), 100)):
            assert default_truncation(spec, n) >= cf.bound_N(spec, n)

    def test_noise_variance(self):
        sample = simulate(PP, CoefVector([0.0]), n=10**5, sigma=1.0, seed=9, n_coef=2)
        var = float(np.mean(sample.y**2))
        assert abs(var - 1.0) < 1.96 * np.sqrt(2.0 / 10**5)

    def test_response_variance_matches_model(self):
        # Var(Y) = sum_j lambda_j beta_j^2 + sigma^2
        slope = make_slope(SlopeSpec(PP, radius=1.0), 12)
        sigma = 0.7
        n = 10**5
        sample = simulate(PP, slope, n=n, sigma=sigma, seed=5, n_coef=12)
        target = float(np.sum(PP.eigenvalues(12) * slope.coefs**2) + sigma**2)
        got = float(np.mean(sample.y**2))
        se = target * np.sqrt(2.0 / n)
        assert abs(got - target) < 3.0 * se


class TestCoefficientMoments:
    def test_normalized_variance_and_kurtosis(self):
        n = 10**5
        sample = simulate(PP, CoefVector([0.0]), n=n, sigma=0.0, seed=77, n_coef=6)
        normalized = sample.xcoef / np.sqrt(PP.eigenvalues(6))
        var = np.mean(normalized**2, axis=0)
        assert np.all(np.abs(var - 1.0) < 3.0 * np.sqrt(2.0 / n))
        fourth = np.mean(normalized**4, axis=0)
        assert np.all(np.abs(fourth - 3.0) < 3.0 * np.sqrt(96.0 / n))

    def test_cross_covariance_vanishes(self):
        n = 10**5
        sample = simulate(PP, CoefVector([0.0]), n=n, sigma=0.0, seed=78, n_coef=4)
        z = sample.xcoef / np.sqrt(PP.eigenvalues(4))
        for i in range(4):
            for j in range(i + 1, 4):
                cov = float(np.mean(z[:, i] * z[:, j]))
                assert abs(cov) < 3.0 / np.sqrt(n)


def _covariance(spec, n_coef, s, t):
    # Cov(X(s), X(t)) = sum_j lambda_j phi_j(s) phi_j(t) for the first n_coef terms
    return float(design_matrix(n_coef, s)[0] * spec.eigenvalues(n_coef)
                 @ design_matrix(n_coef, t)[0])


class TestCovariateCovariance:
    # with paired eigenvalues and complete cosine/sine pairs the covariate is
    # stationary on the circle: c(u) = lambda_1 + sum_k 2 lambda_{2k} cos(2 pi k u)
    def test_constant_kernel(self):
        assert _covariance(PP_PAIRED, 1, 0.1, 0.73) == 1.0

    def test_variance_at_zero_lag(self):
        # with an odd truncation the variance is the eigenvalue sum at every t
        for n_coef in (5, 9):
            lam_sum = float(np.sum(PP_PAIRED.eigenvalues(n_coef)))
            for t in (0.0, 0.2, 0.5, 0.9):
                assert _covariance(PP_PAIRED, n_coef, t, t) == pytest.approx(lam_sum, rel=1e-14)

    def test_half_lag_values(self):
        # 1 - 2 lambda_2 + 2 lambda_4 = 1 - 1/2 + 1/8 at lag 1/2, from any origin
        for s in (0.0, 0.25, 0.4):
            assert _covariance(PP_PAIRED, 5, s, s + 0.5) == pytest.approx(0.625, rel=1e-14)

    def test_paired_kernel_depends_only_on_lag(self):
        rng = np.random.default_rng(3)
        for s, t, h in rng.uniform(size=(5, 3)):
            shifted = _covariance(PP_PAIRED, 9, (s + h) % 1.0, (t + h) % 1.0)
            assert shifted == pytest.approx(_covariance(PP_PAIRED, 9, s, t), abs=1e-14)

    def test_unpaired_kernel_is_not_stationary(self):
        # lambda_2 = 1/4 != lambda_3 = 1/9: the cosine peak and the sine peak differ
        assert _covariance(PP, 3, 0.0, 0.0) == pytest.approx(1.5, rel=1e-14)
        assert _covariance(PP, 3, 0.25, 0.25) == pytest.approx(1.0 + 2.0 / 9.0, rel=1e-14)

    def test_simulated_covariate_matches_kernel(self):
        # the empirical Cov(X(s), X(t)) of simulate's draws, within 3 standard errors
        n = 10**5
        sample = simulate(PP_PAIRED, CoefVector([0.0]), n=n, sigma=0.0, seed=79, n_coef=5)
        for s, t in ((0.0, 0.0), (0.1, 0.35), (0.3, 0.8)):
            xs, xt = (sample.xcoef @ design_matrix(5, u)[0] for u in (s, t))
            c_st = _covariance(PP_PAIRED, 5, s, t)
            se = np.sqrt((_covariance(PP_PAIRED, 5, s, s) * _covariance(PP_PAIRED, 5, t, t)
                          + c_st**2) / n)
            assert abs(float(np.mean(xs * xt)) - c_st) < 3.0 * se


class TestSubstreamAndCsv:
    def test_substream_reproducible(self):
        a = substream(1, 2, 3).standard_normal(8)
        b = substream(1, 2, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_substream_key_sensitivity(self):
        a = substream(1, 2, 3).standard_normal(8)
        b = substream(1, 3, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_sample_csv_layout(self, tmp_path):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 4)
        sample = simulate(PP, slope, n=6, sigma=0.5, seed=3, n_coef=4)
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path, echo="unit test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# unit test")
        assert "sigma=" in lines[0] and "n_coef=4" in lines[0]
        assert lines[1] == "y,x_1,x_2,x_3,x_4"
        assert len(lines) == 2 + 6
        first = [float(v) for v in lines[2].split(",")]
        assert first[0] == sample.y[0]
        assert np.array_equal(first[1:], sample.xcoef[0])

    @staticmethod
    def _reference_csv(sample, echo) -> bytes:
        meta = (f"n={sample.n} n_coef={sample.n_coef} sigma={sample.sigma!r} "
                f"seed={sample.seed} replicate={sample.replicate}")
        header = "y," + ",".join(f"x_{j}" for j in range(1, sample.n_coef + 1))
        lines = [f"# {echo} | {meta}", header]
        for i in range(sample.n):
            values = [sample.y[i]] + list(sample.xcoef[i])
            lines.append(",".join(repr(float(v)) for v in values))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("n, n_coef, cpus", [(700, 199, 1), (700, 199, 2), (1, 40, 2)])
    def test_sample_csv_bytes_match_row_by_row_reference(self, tmp_path, monkeypatch, n,
                                                         n_coef, cpus):
        # 700 rows of 200 values span 18 chunks of 2^13 values; whatever the
        # CPU count, they are formatted and written without starting a process
        rng = substream(5, n, n_coef)
        y, xcoef = rng.standard_normal(n), rng.standard_normal((n, n_coef)) * 1e-3
        xcoef[0, :3] = (0.1, 1e300, -5e-324)
        # negative, tiny, huge and zero values, in positional and exponent form
        xcoef[-1, -9:] = (-2.5, 1e-200, -1e-200, 1.7976931348623157e308, -3e250, 0.0, -0.0,
                        1e16, -123456.789)
        sample = cf.Sample(y=y, xcoef=xcoef, sigma=0.25, seed=5, replicate=(n, 0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda self: pytest.fail("write_sample_csv started a process"))
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path, echo="unit test")
        assert path.read_bytes() == self._reference_csv(sample, "unit test")

