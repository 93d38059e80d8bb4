import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from circfreg import (
    PenaltyScales,
    SequenceSpec,
    balance_m_dagger,
    balance_m_star,
    bound_M,
    bound_N,
    intrinsic_scales,
    summability_check,
    theoretical_rate,
)
from circfreg.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

PP = SequenceSpec("PP", a=1.0, p=2.0, s=0.0)
PE = SequenceSpec("PE", a=0.5, p=1.0, s=0.0)
EP = SequenceSpec("EP", a=1.0, p=1.0, s=0.0)


class TestSpecValidation:
    def test_pp_requires_a_above_half(self):
        with pytest.raises(ValueError, match="a > 1/2"):
            SequenceSpec("PP", a=0.4, p=2.0, s=0.0)
        with pytest.raises(ValueError, match=r"a: .*a > 1/2.*; p: .*p > max\(0, s\)"):
            SequenceSpec("PP", a=0.4, p=-1)

    def test_pe_allows_small_a(self):
        SequenceSpec("PE", a=0.3, p=1.0, s=0.0)

    def test_p_must_dominate_s(self):
        with pytest.raises(ValueError, match="p > max"):
            SequenceSpec("PP", a=1.0, p=0.5, s=1.0)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            SequenceSpec("XX", a=1.0, p=1.0)


class TestSequenceValues:
    def test_risk_weight_examples(self):
        assert SequenceSpec("PP", a=1.0, p=2.0, s=0.0).risk_weights(17)[16] == 1.0
        assert SequenceSpec("PP", a=1.0, p=2.0, s=1.0).risk_weights(3)[2] == 9.0
        assert SequenceSpec("PP", a=1.0, p=2.0, s=-1.0).risk_weights(2)[1] == 0.25

    def test_eigenvalue_unpaired(self):
        assert PP.eigenvalues(4)[3] == 1.0 / 16.0

    def test_eigenvalue_pairing_rule(self):
        paired = SequenceSpec("PP", a=1.0, p=2.0, s=0.0, enforce_pair=True)
        lam = paired.eigenvalues(5)
        assert lam[4] == lam[3] == 1.0 / 16.0
        assert lam[2] == lam[1] == 0.25
        assert lam[0] == 1.0

    def test_pe_eigenvalue(self):
        # lambda_j = exp(-j^(2a)); at a = 1/2, j = 4 that is exp(-4)
        assert PE.eigenvalues(4)[3] == pytest.approx(np.exp(-4.0), rel=1e-15)

    def test_ep_gamma_normalized(self):
        gam = np.exp(EP.log_smoothness_weights(3))
        assert gam[0] == 1.0
        assert gam[1] == pytest.approx(np.exp(3.0), rel=1e-14)

    @pytest.mark.parametrize("length, start, message", [
        (0, 1, "sequence length must be >= 1, got 0"),
        (3, 0, r"sequence start must lie in 1\.\.3, got 0"),
        (3, 4, r"sequence start must lie in 1\.\.3, got 4"),
    ])
    def test_index_range_checked(self, length, start, message):
        with pytest.raises(ValueError, match=message):
            PP.log_risk_weights(length, start)

    def test_log_views_consistent(self):
        for spec in (PP, PE, EP):
            length = 30
            assert np.allclose(np.log(spec.risk_weights(length)),
                               spec.log_risk_weights(length), atol=1e-12)
            assert np.allclose(np.log(spec.eigenvalues(length)[:20]),
                               spec.log_eigenvalues(length)[:20], rtol=1e-12, atol=1e-12)


class TestIntrinsicScales:
    def test_hand_values_pp(self):
        sc = intrinsic_scales(PP, 3)
        delta, Delta, kappa = np.exp(sc.log_delta), np.exp(sc.log_Delta), np.exp(sc.log_kappa)
        assert Delta[0] == 1.0 and kappa[0] == 1.0
        assert delta[0] == pytest.approx(1.0, rel=1e-10)
        assert Delta[1] == 4.0 and kappa[1] == 4.0
        assert delta[1] == pytest.approx(8.0, rel=1e-10)
        assert delta[2] == pytest.approx(27.0 * np.log(9.0) / np.log(5.0), rel=1e-10)

    def test_monotone_and_dominating(self):
        for spec in (PP, PE, EP, SequenceSpec("PP", a=1.0, p=2.0, s=1.0)):
            sc = intrinsic_scales(spec, 60)
            assert np.all(np.diff(sc.log_delta) >= 0)
            assert np.all(np.diff(sc.log_Delta) >= 0)
            assert np.all(np.diff(sc.log_kappa) >= 0)
            ratio_sum = np.cumsum(spec.risk_weights(60) / spec.eigenvalues(60))
            assert np.all(np.exp(sc.log_delta) >= ratio_sum * (1.0 - 1e-13))

    def test_kappa_equals_Delta_for_nonnegative_s(self):
        for s in (0.0, 0.5, 1.0):
            sc = intrinsic_scales(SequenceSpec("PP", a=1.0, p=2.0, s=s), 40)
            assert np.array_equal(sc.log_kappa, sc.log_Delta)

    def test_kappa_dominates_Delta(self):
        sc = intrinsic_scales(SequenceSpec("PP", a=1.0, p=2.0, s=-1.0), 40)
        assert np.all(sc.log_kappa >= sc.log_Delta)

    def test_pe_log_fields_stay_finite(self):
        sc = intrinsic_scales(PE, 2000)
        assert np.all(np.isfinite(sc.log_delta))
        assert np.all(np.isfinite(sc.log_Delta))


class TestBounds:
    def test_bound_M_golden(self):
        assert bound_M(PP, 100) == 4

    def test_bound_M_small_n_floor(self):
        assert bound_M(PP, 2) == 1

    def test_bound_N_examples(self):
        assert bound_N(SequenceSpec("PP", a=1.0, p=2.0, s=0.0), 500) == 500
        assert bound_N(SequenceSpec("PP", a=1.0, p=2.0, s=1.0), 100) == 10
        assert bound_N(SequenceSpec("PP", a=1.0, p=2.0, s=-1.0), 7) == 7

    @pytest.mark.parametrize("index", [bound_M, bound_N, balance_m_star, balance_m_dagger])
    def test_n_below_one_rejected(self, index):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            index(PP, 0)

    def test_bounds_monotone_in_n(self):
        spec = SequenceSpec("PP", a=1.0, p=2.0, s=1.0)
        prev_m, prev_n = 0, 0
        for n in (10, 50, 100, 500, 1000, 3000):
            m_n = bound_M(spec, n)
            n_n = bound_N(spec, n)
            assert m_n <= n and n_n <= n
            assert m_n >= prev_m and n_n >= prev_n
            prev_m, prev_n = m_n, n_n

    def test_eigenvalues_above_threshold_on_grid(self):
        # min_{j <= M_n} lambda_j >= 2/n over the default experiment grids
        for spec, grid in ((PP, (250, 500, 1000, 2000, 4000)), (PE, (500, 2000, 8000))):
            for n in grid:
                m_n = bound_M(spec, n)
                assert spec.eigenvalues(m_n).min() >= 2.0 / n

    def test_bound_M_independent_scan(self):
        rng = np.random.default_rng(5)
        for spec in (PP, PE, SequenceSpec("PP", a=0.75, p=1.0, s=0.5)):
            delta = np.exp(intrinsic_scales(spec, 200).log_delta)
            omega = spec.risk_weights(200)
            for n in rng.integers(2, 200, 5):
                n = int(n)
                best = 1
                for m in range(1, n + 1):
                    if delta[m - 1] <= delta[0] * n * min(omega[m - 1], 1.0):
                        best = m
                assert bound_M(spec, n) == best


class TestBalancing:
    def test_m_star_golden(self):
        assert balance_m_star(PP, 100) == 2

    def test_m_star_trivial(self):
        assert balance_m_star(PP, 1) == 1

    def test_m_star_growth_window(self):
        # m*(10^6) / m*(10^3) should straddle 10^(3/7) within a factor 2
        ratio = balance_m_star(PP, 10**6) / balance_m_star(PP, 10**3)
        target = 10.0 ** (3.0 / 7.0)
        assert target / 2.0 <= ratio <= 2.0 * target

    def test_m_star_independent_scan(self):
        for spec, n in ((PP, 100), (PE, 50), (EP, 80)):
            omega = spec.risk_weights(n)
            log_gamma = spec.log_smoothness_weights(n)
            lam = spec.eigenvalues(n)
            best_val, best_m = None, 1
            acc = 0.0
            for m in range(1, n + 1):
                acc += omega[m - 1] / lam[m - 1]
                val = abs(log_gamma[m - 1] - np.log(n) - np.log(omega[m - 1]) + np.log(acc))
                if best_val is None or val < best_val - 1e-12:
                    best_val, best_m = val, m
            assert balance_m_star(spec, n) == best_m

    def test_m_dagger_goldens(self):
        assert balance_m_dagger(PP, 100) == 2
        assert balance_m_dagger(PP, 1000) == 3
        assert balance_m_dagger(PE, 10**4) == 4

    def test_m_dagger_growth_window(self):
        ratio = balance_m_dagger(PP, 10**6) / balance_m_dagger(PP, 10**3)
        target = 10.0 ** (3.0 / 7.0)
        assert target / 2.0 <= ratio <= 2.0 * target

    def test_m_dagger_trivial(self):
        assert balance_m_dagger(PP, 1) == 1

    def test_m_dagger_independent_scan(self):
        for spec, n in ((PP, 120), (PE, 60), (EP, 40)):
            omega = spec.risk_weights(n)
            lam = spec.eigenvalues(n)
            log_gamma = spec.log_smoothness_weights(n)
            best_val, best_m = None, 1
            dmax = kmax = 0.0
            for m in range(1, n + 1):
                dmax = max(dmax, omega[m - 1] / lam[m - 1])
                kmax = max(kmax, max(omega[m - 1], 1.0) / lam[m - 1])
                delta = m * dmax * abs(np.log(max(kmax, m + 2)) / np.log(m + 2))
                val = abs(log_gamma[m - 1] + np.log(delta) - np.log(n)
                          - np.log(omega[m - 1]))
                if best_val is None or val < best_val - 1e-12:
                    best_val, best_m = val, m
            assert balance_m_dagger(spec, n) == best_m

    @pytest.mark.parametrize("s", [300.0, 1e300, 1e308])
    def test_huge_s_reaches_the_limit(self, s):
        # sum_{j<=m} omega_j/lambda_j / omega_m -> 1/lambda_m and delta_m / omega_m
        # -> m factor_m / lambda_m as s grows, so both criteria are smallest at
        # m = 1; formed as differences of logs near 2 s log m they gave 2 and 3
        spec = SequenceSpec("EP", a=1.0, p=2.0, s=s, enforce_pair=True)
        assert balance_m_star(spec, 40) == 1
        assert balance_m_dagger(spec, 40) == 1

    def test_rates_at_huge_s_and_p_reach_the_limit(self, tmp_path):
        # the overrides of the pp_rates_s_p_huge digest run
        code = main(["rates", "--config", str(CONFIG_DIR / "golden_pp.cfg"), "--out",
                     str(tmp_path), "--override", "s=1e308",
                     "--override", f"p={sys.float_info.max!r}"])
        assert code == 0
        with open(tmp_path / "rates.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 5
        assert all(row["m_star"] == row["m_dagger"] == "1" for row in rows)


class TestTheoreticalRate:
    def test_pp_exponent(self):
        # exponent (2p - 2s)/(2a + 2p + 1) = 4/7 at a=1, p=2, s=0
        n = 3
        assert theoretical_rate(PP, n) == pytest.approx(max(n ** (-4.0 / 7.0), 1.0 / n), rel=1e-14)

    def test_pe_log_rate(self):
        spec = SequenceSpec("PE", a=1.0, p=1.0, s=0.0)
        assert theoretical_rate(spec, 100) == pytest.approx(1.0 / np.log(100.0), rel=1e-14)

    def test_pp_parametric_branch(self):
        spec = SequenceSpec("PP", a=1.0, p=1.0, s=-2.0)  # 2a + 2s + 1 = -1 < 0
        assert theoretical_rate(spec, 50) == 1.0 / 50.0

    def test_pp_boundary_branch(self):
        spec = SequenceSpec("PP", a=1.0, p=1.0, s=-1.5)  # 2a + 2s + 1 = 0
        assert theoretical_rate(spec, 50) == pytest.approx(np.log(50.0) / 50.0, rel=1e-14)

    def test_ep_rate(self):
        spec = SequenceSpec("EP", a=1.0, p=1.0, s=0.0)
        n = 1000
        assert theoretical_rate(spec, n) == pytest.approx(np.log(n) ** 1.5 / n, rel=1e-14)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            theoretical_rate(PP, 2)


class TestSummability:
    def test_single_term(self):
        # delta = 6 m Delta with Delta = 1 gives exp(-1)
        scales = PenaltyScales(log_delta=np.log(np.array([6.0])), log_Delta=np.array([0.0]),
                               log_kappa=np.array([0.0]))
        assert summability_check(scales, 1) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_partial_sums_plateau(self):
        # tail terms fall below 1e-12 around m = 120 for PP a=1, s=0
        # (direct summation: the increment from 50 to 60 is still ~2.5e-5)
        sc = intrinsic_scales(PP, 150)
        assert abs(summability_check(sc, 150) - summability_check(sc, 130)) < 1e-12

    def test_plateau_all_regimes(self):
        for spec in (PP, PE, EP):
            sc = intrinsic_scales(spec, 150)
            assert abs(summability_check(sc, 150) - summability_check(sc, 130)) < 1e-12

    @pytest.mark.parametrize("length, message", [
        (0, "length must be >= 1, got 0"),
        (4, "length 4 exceeds scales length 3"),
    ])
    def test_length_outside_the_scales_rejected(self, length, message):
        with pytest.raises(ValueError, match=message):
            summability_check(intrinsic_scales(PP, 3), length)

    def test_degenerate_diagnostic(self):
        # delta = 0, Delta = kappa = 1
        scales = PenaltyScales(log_delta=np.full(10, -np.inf), log_Delta=np.zeros(10),
                               log_kappa=np.zeros(10))
        assert summability_check(scales, 10) == 10.0
