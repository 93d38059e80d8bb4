import numpy as np
import pytest

import circfreg as cf
from circfreg import (
    CoefVector,
    SampleMoments,
    SequenceSpec,
    SlopeSpec,
    bound_M_hat,
    contrast,
    contrast_curve,
    estimate_beta,
    estimated_scale_curves,
    intrinsic_scales,
    make_slope,
    moments,
    penalty_known,
    select_data_driven,
    select_known,
    simulate,
    weighted_inner,
    weighted_norm_sq,
)

PP = SequenceSpec("PP", a=1.0, p=2.0, s=0.0)


def naive_select(mom, weights, delta_list, sigma_y2, eta, const, m_max):
    """Independently coded exhaustive scan: per-m loops, no shared curves."""
    best_val, best_m = None, None
    for m in range(1, m_max + 1):
        crit = 0.0
        for j in range(m):
            if mom.lhat[j] >= 1.0 / mom.n:
                crit -= weights[j] * (mom.ghat[j] / mom.lhat[j]) ** 2
        crit += const * sigma_y2 * eta * delta_list[m - 1] / mom.n
        if best_val is None or crit < best_val:
            best_val, best_m = crit, m
    return best_m


def naive_delta_hat(mom, weights, m):
    dmax = 0.0
    for j in range(m):
        if mom.lhat[j] >= 1.0 / mom.n:
            dmax = max(dmax, weights[j] / mom.lhat[j])
    kmax = 0.0
    for j in range(m):
        if mom.lhat[j] >= 1.0 / mom.n:
            kmax = max(kmax, max(weights[j], 1.0) / mom.lhat[j])
    return m * dmax * abs(np.log(max(kmax, m + 2)) / np.log(m + 2))


class TestMoments:
    def test_zero_responses(self):
        slope = CoefVector([0.0, 0.0])
        sample = simulate(PP, slope, n=20, sigma=0.0, seed=1, n_coef=4)
        mom = moments(sample)
        assert np.all(mom.ghat == 0.0) and mom.sigma_y2 == 0.0

    def test_hand_arithmetic(self):
        from circfreg.datagen import Sample

        sample = Sample(y=np.array([1.0, 1.0]), xcoef=np.array([[1.0], [-1.0]]),
                        sigma=0.0, seed=0)
        mom = moments(sample)
        assert mom.ghat[0] == 0.0 and mom.lhat[0] == 1.0

    def test_bhat_is_the_thresholded_ratio_formed_once(self):
        mom = SampleMoments(ghat=np.array([0.5, 0.3, -0.6]), lhat=np.array([0.25, 0.005, 0.01]),
                            sigma_y2=1.0, n=100)
        assert np.array_equal(mom.bhat, [2.0, 0.0, -60.0])
        assert mom.bhat is mom.bhat
        with pytest.raises(ValueError):
            mom.bhat[0] = 1.0

    def test_single_observation_rejected(self):
        from circfreg.datagen import Sample

        sample = Sample(y=np.array([1.0]), xcoef=np.array([[1.0]]), sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="need at least 2 observations, got 1"):
            moments(sample)

    def test_eigenvalue_estimates_unbiased(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 8)
        n = 10**5
        sample = simulate(PP, slope, n=n, sigma=0.5, seed=12, n_coef=8)
        mom = moments(sample)
        lam = PP.eigenvalues(8)
        se = lam * np.sqrt(2.0 / n)
        assert np.all(np.abs(mom.lhat - lam) < 3.0 * se)


class TestEstimateBeta:
    def test_all_thresholded(self):
        mom = SampleMoments(ghat=np.array([1.0, 1.0]), lhat=np.array([1e-4, 1e-4]),
                            sigma_y2=1.0, n=100)
        assert np.all(estimate_beta(mom, 2).coefs == 0.0)

    def test_simple_ratio(self):
        mom = SampleMoments(ghat=np.array([0.5]), lhat=np.array([0.25]), sigma_y2=1.0, n=100)
        assert estimate_beta(mom, 1).coefs[0] == 2.0

    def test_partial_threshold(self):
        mom = SampleMoments(ghat=np.array([0.5, 0.3]), lhat=np.array([0.25, 0.005]),
                            sigma_y2=1.0, n=100)
        assert np.array_equal(estimate_beta(mom, 2).coefs, [2.0, 0.0])

    def test_dimension_zero_rejected(self):
        mom = SampleMoments(ghat=np.array([0.5]), lhat=np.array([0.25]), sigma_y2=1.0, n=100)
        with pytest.raises(ValueError, match=r"model dimension 0 outside 1\.\.1"):
            estimate_beta(mom, 0)

    def test_projection_consistency(self):
        rng = np.random.default_rng(3)
        mom = SampleMoments(ghat=rng.normal(size=10), lhat=rng.uniform(0.001, 1.0, 10),
                            sigma_y2=1.0, n=100)
        full = estimate_beta(mom, 10).coefs
        for m in (1, 4, 7):
            assert np.array_equal(estimate_beta(mom, m).coefs, full[:m])

    def test_threshold_zeroing_is_exact(self):
        rng = np.random.default_rng(4)
        mom = SampleMoments(ghat=rng.normal(size=30), lhat=rng.uniform(0.0, 0.05, 30),
                            sigma_y2=1.0, n=50)
        coefs = estimate_beta(mom, 30).coefs
        dead = mom.lhat < 1.0 / 50
        assert np.all(coefs[dead] == 0.0) and np.all(coefs[~dead] != 0.0)


class TestContrast:
    def test_all_thresholded_is_zero(self):
        mom = SampleMoments(ghat=np.ones(3), lhat=np.full(3, 1e-5), sigma_y2=1.0, n=100)
        assert contrast(mom, np.ones(3), 3) == 0.0

    def test_hand_values(self):
        mom = SampleMoments(ghat=np.array([0.5, 0.2]), lhat=np.array([0.25, 0.1]),
                            sigma_y2=1.0, n=100)
        assert contrast(mom, np.ones(2), 2) == -8.0
        assert contrast(mom, np.ones(2), 1) == -4.0

    def test_non_increasing_in_m(self):
        rng = np.random.default_rng(8)
        mom = SampleMoments(ghat=rng.normal(size=25), lhat=rng.uniform(0.001, 1.0, 25),
                            sigma_y2=1.0, n=200)
        w = SequenceSpec("PP", a=1.0, p=2.0, s=0.5).risk_weights(25)
        crv = contrast_curve(mom, w, 25)
        assert np.all(np.diff(crv) <= 0)

    def test_identity_with_definitional_form(self):
        # contrast(m) = |bhat_m|_w^2 - 2 <bhat_m, Phi_hat>_w with Phi_hat the
        # thresholded ratio vector over all coordinates
        rng = np.random.default_rng(9)
        for _ in range(100):
            size = int(rng.integers(2, 30))
            n = int(rng.integers(5, 500))
            mom = SampleMoments(ghat=rng.normal(size=size),
                                lhat=rng.uniform(0.0, 1.0, size), sigma_y2=1.0, n=n)
            w = np.ones(size)
            w[1:] = rng.uniform(0.1, 4.0, size - 1)
            alive = mom.lhat >= 1.0 / n
            phi = np.where(alive, np.divide(mom.ghat, mom.lhat, where=alive,
                                            out=np.zeros(size)), 0.0)
            for m in (1, size // 2 + 1, size):
                bhat = estimate_beta(mom, m)
                definitional = weighted_norm_sq(bhat, w) - 2.0 * weighted_inner(bhat, phi, w)
                assert contrast(mom, w, m) == pytest.approx(definitional, rel=1e-10, abs=1e-12)


class TestPenalties:
    def test_known_hand_value(self):
        sc = intrinsic_scales(PP, 2)
        assert penalty_known(sc, 1.0, 100, 2) == pytest.approx(46.08, rel=1e-10)

    def test_known_zero_variance(self):
        sc = intrinsic_scales(PP, 2)
        assert penalty_known(sc, 0.0, 100, 2) == 0.0

    def test_known_constants_cancel(self):
        sc = intrinsic_scales(PP, 1)
        assert penalty_known(sc, 1.0, 192 * 3, 1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 3])
    def test_known_refuses_m_outside_the_scales(self, m):
        sc = intrinsic_scales(PP, 2)
        with pytest.raises(ValueError, match=f"m = {m} must lie in 1..2"):
            penalty_known(sc, 1.0, 100, m)

    def test_estimated_scale_curves_all_dead(self):
        mom = SampleMoments(ghat=np.ones(4), lhat=np.full(4, 1e-6), sigma_y2=1.0, n=100)
        assert [c[3] for c in estimated_scale_curves(mom, np.ones(4), 4)] == [0.0, 0.0, 0.0]

    def test_estimated_scale_curves_hand_value(self):
        mom = SampleMoments(ghat=np.zeros(2), lhat=np.array([0.25, 0.1]), sigma_y2=1.0, n=100)
        d, k, dh = (c[1] for c in estimated_scale_curves(mom, np.ones(2), 2))
        assert d == 10.0 and k == 10.0
        assert dh == pytest.approx(2 * 10 * np.log(10.0) / np.log(4.0), rel=1e-12)

    def test_estimated_scale_curves_single(self):
        mom = SampleMoments(ghat=np.zeros(1), lhat=np.ones(1), sigma_y2=1.0, n=100)
        assert [c[0] for c in estimated_scale_curves(mom, np.ones(1), 1)] == [1.0, 1.0, 1.0]

    def test_random_penalty_hand_value(self):
        mom = SampleMoments(ghat=np.zeros(2), lhat=np.array([0.25, 0.1]), sigma_y2=1.0, n=100)
        expected = 1920.0 * 3.0 * (20.0 * np.log(10.0) / np.log(4.0)) / 100.0
        assert select_data_driven(mom, np.ones(2)).penalty[1] == pytest.approx(expected, rel=1e-12)

    def test_random_penalty_zero_when_dead(self):
        # no coordinate qualifies, so the random bound falls back to M_hat = 1
        mom = SampleMoments(ghat=np.ones(2), lhat=np.full(2, 1e-9), sigma_y2=1.0, n=100)
        assert select_data_driven(mom, np.ones(2)).penalty[0] == 0.0

    def test_random_penalty_quadratic_in_scale(self):
        # scaling Y by a power of two scales the penalty exactly
        mom = SampleMoments(ghat=np.array([0.5, 0.1]), lhat=np.array([0.5, 0.2]),
                            sigma_y2=1.3, n=100)
        scaled = SampleMoments(ghat=4.0 * mom.ghat, lhat=mom.lhat,
                               sigma_y2=16.0 * mom.sigma_y2, n=100)
        w = np.ones(2)
        pen, pen_scaled = (select_data_driven(m, w).penalty for m in (mom, scaled))
        assert pen_scaled[1] == 16.0 * pen[1]

    def test_naive_delta_hat_agrees(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            size = int(rng.integers(1, 20))
            mom = SampleMoments(ghat=rng.normal(size=size),
                                lhat=rng.uniform(0.0, 0.5, size),
                                sigma_y2=1.0, n=int(rng.integers(4, 300)))
            w = np.ones(size)
            w[1:] = rng.uniform(0.2, 3.0, size - 1)
            m = int(rng.integers(1, size + 1))
            dh = estimated_scale_curves(mom, w, m)[2][m - 1]
            assert dh == pytest.approx(naive_delta_hat(mom, w, m), rel=1e-13, abs=0.0)


class TestBoundMhat:
    def test_flat_eigenvalues(self):
        mom = SampleMoments(ghat=np.zeros(50), lhat=np.ones(50), sigma_y2=1.0, n=100)
        assert bound_M_hat(mom, np.ones(50)) == 21

    def test_fallback_floor(self):
        mom = SampleMoments(ghat=np.zeros(5), lhat=np.full(5, 1e-8), sigma_y2=1.0, n=100)
        assert bound_M_hat(mom, np.ones(5)) == 1

    def test_noncontiguous_keeps_largest(self):
        lhat = np.array([1.0, 1e-8, 1.0, 1e-8])
        mom = SampleMoments(ghat=np.zeros(4), lhat=lhat, sigma_y2=1.0, n=100)
        # indices 1 and 3 qualify, 2 and 4 do not: largest qualifying wins
        assert bound_M_hat(mom, np.ones(4)) == 3

    def test_single_observation_rejected(self):
        mom = SampleMoments(ghat=np.zeros(3), lhat=np.ones(3), sigma_y2=1.0, n=1)
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            bound_M_hat(mom, np.ones(3))

    def test_weight_cap_limits_scan(self):
        # omega_j = j^2 caps the scan at N with N^2 <= n
        w = np.arange(1.0, 51.0) ** 2
        mom = SampleMoments(ghat=np.zeros(50), lhat=np.ones(50), sigma_y2=1.0, n=100)
        assert bound_M_hat(mom, w) <= 10


class TestSelection:
    def test_known_hand_argmin(self):
        # contrast (-4, -8), penalty (0.04, 10.24): totals (-3.96, 2.24) pick m = 1;
        # exp(log delta) gives back delta = 4 and 1024 exactly, and (1/3) * ETA is 1.0
        mom = SampleMoments(ghat=np.array([2.0, 2.0]), lhat=np.array([1.0, 1.0]),
                            sigma_y2=1.0, n=100)
        scales = intrinsic_scales(PP, 2)
        fake = type(scales)(log_delta=np.log([4.0, 1024.0]), log_Delta=scales.log_Delta,
                            log_kappa=scales.log_kappa)
        trace = select_known(mom, np.ones(2), fake, pen_const=1 / 3)
        assert np.array_equal(trace.contrast, [-4.0, -8.0])
        assert np.array_equal(trace.delta_used, [4.0, 1024.0])
        assert np.array_equal(trace.penalty, [0.04, 10.24])
        assert trace.m_hat == 1

    def test_zero_penalty_takes_full_dimension(self):
        mom = SampleMoments(ghat=np.array([1.0, 1.0, 1.0]), lhat=np.ones(3),
                            sigma_y2=1.0, n=100)
        scales = intrinsic_scales(PP, 3)
        trace = select_known(mom, np.ones(3), scales, pen_const=0.0)
        assert trace.m_hat == 3

    def test_known_refuses_an_empty_bound(self):
        # the scales carry the bound: empty scales leave no dimension to select,
        # and a stale positional bound cannot land in pen_const
        mom = SampleMoments(ghat=np.ones(2), lhat=np.ones(2), sigma_y2=1.0, n=100)
        empty = cf.PenaltyScales(np.empty(0), np.empty(0), np.empty(0))
        with pytest.raises(ValueError, match="model dimension 0 outside 1..2"):
            select_known(mom, np.ones(2), empty)
        with pytest.raises(TypeError):
            select_known(mom, np.ones(2), intrinsic_scales(PP, 2), 2)

    def test_known_delta_past_float_range_is_inf(self):
        # golden PE: delta_m exceeds float range from m = 700 on; the trace
        # holds inf there, with no RuntimeWarning (an error under pytest)
        spec = SequenceSpec("PE", a=0.5, p=1.0, enforce_pair=True)
        mom = SampleMoments(ghat=np.zeros(710), lhat=np.ones(710), sigma_y2=1.0, n=100)
        trace = select_known(mom, np.ones(710), intrinsic_scales(spec, 710))
        assert np.all(np.isfinite(trace.delta_used[:699]))
        assert np.all(np.isinf(trace.delta_used[699:])) and np.isinf(trace.penalty[-1])
        assert trace.m_hat == 1

    def test_tie_break_smallest(self):
        # every coordinate dead: contrast = penalty = 0 for all m, pick m = 1
        mom = SampleMoments(ghat=np.ones(4), lhat=np.full(4, 1e-9), sigma_y2=1.0, n=100)
        trace = select_data_driven(mom, np.ones(4))
        assert trace.m_hat == 1

    def test_single_candidate(self):
        mom = SampleMoments(ghat=np.array([1.0, 0.0]), lhat=np.array([1.0, 1e-9]),
                            sigma_y2=1.0, n=100)
        trace = select_data_driven(mom, np.ones(2))
        assert trace.admissible_max == 1 and trace.m_hat == 1

    def test_monotone_trace_invariants(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 60)
        for r in range(10):
            sample = simulate(PP, slope, n=400, sigma=0.5, seed=100, replicate=r, n_coef=60)
            mom = moments(sample)
            trace = select_data_driven(mom, np.ones(60), pen_const=0.3)
            assert np.all(np.diff(trace.contrast) <= 0)
            assert np.all(np.diff(trace.penalty) >= 0)
            assert np.all(np.diff(trace.delta_used) >= 0)
            total = trace.contrast + trace.penalty
            assert np.all(total[trace.m_hat - 1] <= total)

    def test_scale_invariance_of_data_driven_choice(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 50)
        w = np.ones(50)
        for r in range(25):
            sample = simulate(PP, slope, n=300, sigma=0.5, seed=55, replicate=r, n_coef=50)
            mom = moments(sample)
            base = select_data_driven(mom, w, pen_const=0.3)
            for c in (0.1, 7.0, 1000.0):
                scaled = moments(
                    type(sample)(y=c * sample.y, xcoef=sample.xcoef,
                                 sigma=sample.sigma, seed=sample.seed,
                                 replicate=sample.replicate)
                )
                got = select_data_driven(scaled, w, pen_const=0.3)
                assert got.m_hat == base.m_hat
                assert got.admissible_max == base.admissible_max

    def test_data_driven_agrees_with_naive_scan(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 40)
        w = np.ones(40)
        for r in range(20):
            sample = simulate(PP, slope, n=250, sigma=0.5, seed=9, replicate=r, n_coef=40)
            mom = moments(sample)
            trace = select_data_driven(mom, w, pen_const=0.3)
            dhat = [naive_delta_hat(mom, w, m) for m in range(1, trace.admissible_max + 1)]
            naive = naive_select(mom, w, dhat, mom.sigma_y2, 3.0, 0.3, trace.admissible_max)
            assert trace.m_hat == naive

    def test_known_agrees_with_naive_scan(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 40)
        scales = intrinsic_scales(PP, cf.bound_M(PP, 250))
        m_max = len(scales)
        w = np.ones(40)
        for r in range(20):
            sample = simulate(PP, slope, n=250, sigma=0.5, seed=9, replicate=r, n_coef=40)
            mom = moments(sample)
            trace = select_known(mom, w, scales, pen_const=0.5)
            naive = naive_select(mom, w, np.exp(scales.log_delta), mom.sigma_y2, 3.0, 0.5, m_max)
            assert trace.m_hat == naive


class TestTraceCsv:
    def test_trace_csv_lines(self, tmp_path):
        # known degree: test_known_hand_argmin's trace.  Data driven: M_hat = 2,
        # delta_hat = (1, 2), contrast (-4, -5) and penalty 0.5 * 2 * 3 * delta_hat / 100
        mom = SampleMoments(ghat=np.array([2.0, 2.0]), lhat=np.ones(2), sigma_y2=1.0, n=100)
        scales = intrinsic_scales(PP, 2)
        fake = type(scales)(log_delta=np.log([4.0, 1024.0]), log_Delta=scales.log_Delta,
                            log_kappa=scales.log_kappa)
        known = select_known(mom, np.ones(2), fake, pen_const=1 / 3)
        mom = SampleMoments(ghat=np.array([2.0, 1.0]), lhat=np.ones(2), sigma_y2=2.0, n=100)
        data_driven = select_data_driven(mom, np.ones(2), pen_const=0.5)
        header = "m,contrast,penalty,delta_used,admissible,chosen"
        expected = (
            (known, ["# variant=known_degree admissible_max=2 m_hat=1 "
                     "pen_const=0.3333333333333333", header,
                     "1,-4.0,0.04,4.0,1,1", "2,-8.0,10.24,1024.0,1,0"]),
            (data_driven, ["# variant=data_driven admissible_max=2 m_hat=2 pen_const=0.5",
                           header, "1,-4.0,0.03,1.0,1,0", "2,-5.0,0.06,2.0,1,1"]),
        )
        for trace, lines in expected:
            path = tmp_path / f"trace_{trace.variant}.csv"
            cf.write_trace_csv(trace, path)
            assert path.read_text().splitlines() == lines


class TestDeltaHatConsistency:
    def test_ratio_bracket_bulk(self):
        # dhat_m / delta_m within [1/10, 3] for m <= 5 in >= 95% of replicates
        spec = PP
        delta = np.exp(intrinsic_scales(spec, 8).log_delta)
        slope = make_slope(SlopeSpec(spec, radius=1.0), 8)
        w = np.ones(8)
        n = 10**5
        hits = 0
        reps = 200
        for r in range(reps):
            sample = simulate(spec, slope, n=n, sigma=0.5, seed=606, replicate=r, n_coef=8)
            mom = moments(sample)
            ok = True
            for m in range(1, 6):
                dh = estimated_scale_curves(mom, w, m)[2][m - 1]
                ratio = dh / delta[m - 1]
                ok = ok and (0.1 <= ratio <= 3.0)
            hits += ok
        assert hits >= 0.95 * reps
