import importlib.util
import sys
import types
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import circfreg as cf
import circfreg.risk as risk_module
from circfreg import (
    CoefVector,
    NumericError,
    RunConfig,
    SampleMoments,
    SequenceSpec,
    SlopeSpec,
    fit_slope,
    fixed_dim_risk_curve,
    loss,
    make_slope,
    moments,
    oracle_risk,
    run_experiment,
    simulate,
    write_risk_csv,
)
from circfreg.risk import (
    ALIVE_EPS,
    _GridPlan,
    _run_replicate,
    alive_window,
    experiment_plans,
    log_chi2_tail_bound,
    replicate_moments,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PP = SequenceSpec("PP", a=1.0, p=2.0, s=0.0)


def test_risk_names_the_module_however_imported():
    from circfreg import risk
    import circfreg.risk as m

    assert isinstance(m, types.ModuleType) and cf.risk is risk is m


class TestRiskLoss:
    def test_zero_at_truth(self):
        beta = CoefVector([1.0, -2.0, 0.5])
        assert loss(beta, beta, np.ones(3)) == 0.0

    def test_hand_sum(self):
        assert loss(CoefVector([0.0, 0.0]), CoefVector([1.0, 1.0]), [1.0, 4.0]) == 5.0
        # an EP weight overflows to inf where the slope is 0: that term adds 0
        assert loss(CoefVector([2.0, 0.0]), CoefVector([1.0, 0.0]), [1.0, np.inf]) == 1.0

    def test_padding_semantics(self):
        assert loss(CoefVector([2.0]), CoefVector([1.0, 1.0]), np.ones(2)) == 2.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        f, g = rng.normal(size=6), rng.normal(size=6)
        w = np.ones(6)
        assert loss(f, g, w) == loss(g, f, w)


class TestFixedDimCurve:
    def test_matches_direct_risk(self):
        rng = np.random.default_rng(5)
        mom = SampleMoments(ghat=rng.normal(size=8), lhat=rng.uniform(0.001, 1.0, 8),
                            sigma_y2=1.0, n=100)
        cases = [(mom, CoefVector(rng.normal(size=8)), np.ones(8))]
        # coordinate 2 is thresholded (lhat_2 < 1/n) and beta_2 = 0: at weight
        # inf both the curve and the loss add 0 for it
        mom = SampleMoments(ghat=np.array([2.0, 0.0]), lhat=np.array([1.0, 0.0]),
                            sigma_y2=1.0, n=10)
        cases.append((mom, np.array([1.0, 0.0]), np.array([1.0, np.inf])))
        for mom, beta, w in cases:
            curve = fixed_dim_risk_curve(mom, beta, w)
            for m in range(1, mom.n_coef + 1):
                direct = loss(cf.estimate_beta(mom, m), beta, w)
                assert curve[m - 1] == pytest.approx(direct, rel=1e-12)

    def test_tail_added_to_every_entry(self):
        mom = SampleMoments(ghat=np.zeros(3), lhat=np.ones(3), sigma_y2=1.0, n=100)
        beta = CoefVector(np.zeros(3))
        base = fixed_dim_risk_curve(mom, beta, np.ones(3))
        shifted = fixed_dim_risk_curve(mom, beta, np.ones(3), tail=0.25)
        assert np.allclose(shifted - base, 0.25)

    @pytest.mark.parametrize("beta_len, w_len", [(1, 3), (3, 1), (2, 2), (4, 3)])
    def test_short_beta_or_weights_rejected(self, beta_len, w_len):
        # a length-1 array would otherwise broadcast over all 3 entries
        mom = SampleMoments(ghat=np.ones(3), lhat=np.ones(3), sigma_y2=1.0, n=100)
        with pytest.raises(ValueError, match=f"length {beta_len}.*length {w_len}.*the 3 moments"):
            fixed_dim_risk_curve(mom, np.ones(beta_len), np.ones(w_len))

    def test_bias_past_the_moments_enters_every_entry(self):
        # beta longer than the moments: its coordinates 3..4 are never
        # estimated, so their weighted squares add to every entry
        mom = SampleMoments(ghat=np.zeros(2), lhat=np.ones(2), sigma_y2=1.0, n=100)
        beta, w = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 2.0, 0.5])
        assert fixed_dim_risk_curve(mom, beta, w).tolist() == [31.0, 31.0]


class TestOracle:
    def test_noiseless_exact_moments(self):
        # population moments: estimator recovers beta exactly, so the risk is
        # truncation bias only and the largest dimension wins
        beta = CoefVector([1.0, 0.5, 0.25, 0.125])
        lam = PP.eigenvalues(4)
        mom = SampleMoments(ghat=lam * beta.coefs, lhat=lam, sigma_y2=1.0, n=1000)
        best_m, best = oracle_risk([mom], beta, np.ones(4))
        assert best_m == 4 and best == pytest.approx(0.0, abs=1e-25)

    def test_zero_slope_prefers_smallest(self):
        zero = CoefVector(np.zeros(50))
        samples = [simulate(PP, zero, 400, 1.0, 8, replicate=r, n_coef=50) for r in range(50)]
        best_m, best = oracle_risk(samples, zero, np.ones(50))
        assert best_m == 1
        assert best == pytest.approx(0.0033046369378838952, rel=1e-12)
        m_hats = [cf.select_data_driven(moments(s), np.ones(50), pen_const=0.3).m_hat
                  for s in samples]
        assert best_m <= np.median(m_hats) + 1

    def test_frozen_golden(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 200)
        samples = [simulate(PP, slope, 1000, 0.5, 31, replicate=r, n_coef=200)
                   for r in range(100)]
        best_m, best = oracle_risk(samples, slope, np.ones(200))
        assert best_m == 2
        assert best == pytest.approx(0.006276684673274327, rel=1e-12)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="need at least one replicate"):
            oracle_risk([], np.ones(3), np.ones(3))

    @pytest.mark.parametrize("lengths", [(3, 1), (1, 3)])
    def test_unequal_lengths_rejected(self, lengths):
        # the running sum of a length-3 and a length-1 curve would broadcast
        samples = [SampleMoments(ghat=np.ones(m), lhat=np.ones(m), sigma_y2=1.0, n=10)
                   for m in lengths]
        with pytest.raises(ValueError):
            oracle_risk(samples, np.ones(3), np.ones(3))


class TestSelectionGoldens:
    def test_frozen_selection_pair(self):
        slope = make_slope(SlopeSpec(PP, radius=1.0), 200)
        sample = simulate(PP, slope, 1000, 0.5, 2026, replicate=3, n_coef=200)
        mom = moments(sample)
        w = np.ones(200)
        trace_dd = cf.select_data_driven(mom, w, pen_const=0.3)
        assert (trace_dd.m_hat, trace_dd.admissible_max) == (3, 5)
        scales = cf.intrinsic_scales(PP, cf.bound_M(PP, 1000))
        assert len(scales) == 8
        trace_k = cf.select_known(mom, w, scales, pen_const=0.5)
        assert trace_k.m_hat == 2


class TestFitSlope:
    def test_exact_inverse_law(self):
        pairs = [(n, 5.0 / n) for n in (10, 20, 40, 80)]
        assert fit_slope(pairs) == pytest.approx(-1.0, abs=1e-12)

    def test_constant(self):
        assert fit_slope([(10, 2.0), (100, 2.0), (1000, 2.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_power_law(self):
        pairs = [(n, n ** (-4.0 / 7.0)) for n in (250, 500, 1000, 2000)]
        assert fit_slope(pairs) == pytest.approx(-4.0 / 7.0, abs=1e-12)

    def test_zero_risk_rejected(self):
        with pytest.raises(NumericError):
            fit_slope([(10, 1.0), (20, 0.0)])
        with pytest.raises(NumericError):
            fit_slope([(10, np.nan), (20, 1.0)])

    def test_needs_two_distinct_n(self):
        with pytest.raises(ValueError):
            fit_slope([(10, 1.0)])
        with pytest.raises(ValueError):
            fit_slope([(10, 1.0), (10, 2.0)])


@pytest.mark.parametrize("size", [1, 2, 5, 200])
def test_median_is_numpy_median_bit_for_bit(size, monkeypatch):
    # run_experiment's medians, with each replicate returning a chosen record
    # for both variants, against np.median
    def run_with(records):
        monkeypatch.setattr(risk_module, "_run_replicate",
                            lambda plan, r: (np.ones(3), [records[r]] * 2))
        return run_experiment(tiny_config(replications=size))

    rng = np.random.default_rng(size)
    for values in (rng.exponential(1e-3, size), rng.integers(1, 9, size)):
        expected = [repr(float(np.median(values)))] * 2
        for rep in run_with([(v, v, v) for v in values]):
            for got in (rep.median_risk, rep.median_m_hat, rep.median_M_hat):
                assert [repr(float(x)) for x in got] == expected
    # the largest float in the M_hat field: for even sizes (a + b) / 2 is inf
    largest = np.full(size, 1.7976931348623157e308)
    with np.errstate(over="ignore"):
        expected = float(np.median(largest))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if np.isfinite(expected):
            for rep in run_with([(1.0, 1.0, v) for v in largest]):
                assert [repr(float(x)) for x in rep.median_M_hat] == [repr(expected)] * 2
        else:
            with pytest.raises(NumericError, match="^median_M_hat is not finite at n = 40$"):
                run_with([(1.0, 1.0, v) for v in largest])
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("cls", [
    CoefVector, cf.Sample, SampleMoments, cf.SelectionTrace,
    cf.PenaltyScales, cf.RiskReport, _GridPlan,
])
def test_array_records_compare_by_identity(cls):
    # a generated __eq__ compares the arrays and raises; hash() raises TypeError
    make = lambda: cls(**{f.name: np.ones(2) for f in fields(cls)})
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b}) == 2


def tiny_config(**overrides):
    base = dict(
        regime="PP", a=1.0, p=2.0, s=0.0, sigma=0.5, rho=1.0,
        n_grid=(40, 80), replications=5, seed=99, variant="both",
        pen_const_unknown=0.3, pen_const_known=0.5, j_max=60,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunExperiment:
    def test_degenerate_single_point_bias_only(self):
        cfg = tiny_config(n_grid=(50,), replications=1, sigma=0.0, j_max=1,
                          variant="data_driven")
        report = run_experiment(cfg)[0]
        # one simulated coefficient, no noise: the estimator nails the single
        # coordinate and the reported risk is exactly the analytic tail bias
        seq = cfg.sequence_spec()
        tail = cf.slope_tail_bias(SlopeSpec(seq, 1.0), 1)
        assert report.mean_risk[0] == pytest.approx(tail, rel=1e-12)
        assert np.isnan(report.slope)

    def test_reports_both_variants(self):
        reports = run_experiment(tiny_config())
        assert [r.variant for r in reports] == ["known_degree", "data_driven"]
        for rep in reports:
            assert np.all(rep.mean_risk >= 0) and np.all(rep.median_risk >= 0)
            assert np.all(rep.oracle_risk <= rep.mean_risk + 1e-15)

    @pytest.mark.parametrize("reps", [1, 4, 5, 300])
    def test_aggregates_match_per_replicate_reference(self, reps):
        # 1-D np.mean and np.median over each (n, variant) column of replicates,
        # bit for bit; 300 takes np.mean's pairwise sum past one 128-value block
        cfg = tiny_config(replications=reps)
        ref = []
        for plan in experiment_plans(cfg):
            picks = [_run_replicate(plan, r)[1] for r in range(reps)]
            ref.append([[np.array([p[vi][k] for p in picks]) for k in range(3)]
                        for vi in range(2)])
        for vi, rep in enumerate(run_experiment(cfg)):
            cols = [per_n[vi] for per_n in ref]
            assert rep.mean_risk.tolist() == [np.mean(c[0]) for c in cols]
            for k, got in enumerate((rep.median_risk, rep.median_m_hat, rep.median_M_hat)):
                assert got.tolist() == [np.median(c[k]) for c in cols]

    def test_keeps_no_list_of_curves(self, monkeypatch):
        # each curve joins the oracle's running sum and is then dropped, so at
        # any call only the last curve or two may still be referenced
        run_replicate, earlier = risk_module._run_replicate, []

        def tracked(plan, r):
            assert sum(ref() is not None for ref in earlier) <= 2
            curve, picks = run_replicate(plan, r)
            earlier.append(weakref.ref(curve))
            return curve, picks

        monkeypatch.setattr(risk_module, "_run_replicate", tracked)
        run_experiment(tiny_config(replications=50))
        assert len(earlier) == 2 * 50

    def test_deterministic_reruns(self, tmp_path):
        cfg = tiny_config()
        a, b = run_experiment(cfg), run_experiment(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_risk_csv(a, pa, echo="x")
        write_risk_csv(b, pb, echo="x")
        assert pa.read_bytes() == pb.read_bytes()

    def test_csv_layout(self, tmp_path):
        reports = run_experiment(tiny_config(variant="data_driven"))
        path = tmp_path / "report.csv"
        write_risk_csv(reports, path, echo="layout test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# layout test")
        assert lines[1] == ("n,variant,mean_risk,median_risk,median_m_hat,"
                            "median_M_hat,oracle_m,oracle_risk,theoretical_rate")
        assert len(lines) == 2 + 2  # two grid points, one variant
        row = lines[2].split(",")
        assert row[0] == "40" and row[1] == "data_driven"
        assert float(row[8]) == pytest.approx(cf.theoretical_rate(PP, 40), rel=1e-15)

    def test_exponential_smoothness_regime_runs(self):
        cfg = RunConfig(regime="EP", a=1.0, p=1.0, s=0.0, sigma=0.5, rho=1.0,
                        n_grid=(100, 200), replications=5, seed=5, variant="both",
                        pen_const_unknown=0.3, pen_const_known=0.5)
        for rep in run_experiment(cfg):
            assert np.all(np.isfinite(rep.median_risk)) and np.all(rep.median_risk > 0)
            assert np.all(rep.median_m_hat >= 1)

    def test_derivative_risk_weights_run(self):
        # s = 1: growing weights cap the admissible range at sqrt(n)
        cfg = RunConfig(regime="PP", a=1.0, p=2.0, s=1.0, sigma=0.5, rho=1.0,
                        n_grid=(200, 400), replications=5, seed=6,
                        variant="data_driven", pen_const_unknown=0.3)
        rep = run_experiment(cfg)[0]
        assert np.all(rep.median_M_hat <= np.sqrt(np.array(cfg.n_grid)))
        assert np.all(np.isfinite(rep.median_risk))

    def test_weak_risk_weights_run(self):
        cfg = RunConfig(regime="PP", a=1.0, p=1.0, s=-1.0, sigma=0.5, rho=1.0,
                        n_grid=(200,), replications=5, seed=7,
                        variant="data_driven", pen_const_unknown=0.3)
        rep = run_experiment(cfg)[0]
        assert np.all(np.isfinite(rep.median_risk)) and rep.median_risk[0] > 0


def _pooled_table(a, b, min_count=10):
    """2 x K histogram table of two integer samples, adjacent values pooled
    until each bin holds at least min_count of the combined sample."""
    values = np.union1d(a, b)
    table, bin_a, bin_b = [], 0, 0
    for v in values:
        bin_a += int(np.sum(a == v))
        bin_b += int(np.sum(b == v))
        if bin_a + bin_b >= min_count:
            table.append([bin_a, bin_b])
            bin_a = bin_b = 0
    if bin_a + bin_b:
        if table:
            table[-1][0] += bin_a
            table[-1][1] += bin_b
        else:
            table.append([bin_a, bin_b])
    return np.array(table).T


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReplicateEngine:
    """Sufficient-statistic engine (risk module docstring) against the
    per-unit path and the population moments."""

    def test_chernoff_bound_dominates_chi2_tail(self):
        from scipy.stats import chi2

        t = np.array([0.5, 1.0, 1.001, 1.1, 1.5, 2.0, 4.0, 10.0, 100.0, 1e4])
        for n in (1, 2, 5, 30, 250, 4000, 8000):
            bound = np.exp(log_chi2_tail_bound(n, np.log(t)))
            assert np.all(bound >= chi2.sf(n * t, n))
        # t <= 1 gives the trivial bound; t = inf (lambda underflowed to 0)
        # gives 0 without overflowing
        assert np.all(log_chi2_tail_bound(8000, np.log(t[:2])) == 0.0)
        assert np.exp(log_chi2_tail_bound(8000, np.inf)) == 0.0

    def test_window_covers_population_alive_within_truncation(self):
        from scipy.stats import chi2

        specs = (PP, SequenceSpec("PP", a=1.0, p=2.0, s=0.0, enforce_pair=True),
                 SequenceSpec("EP", a=1.0, p=1.0), SequenceSpec("PE", a=0.5, p=1.0))
        for seq in specs:
            for n, n_coef in ((2, 3), (5, 20), (50, 50), (500, 500), (8000, 8000)):
                window = alive_window(seq, n, n_coef)
                lam = seq.eigenvalues(n_coef)
                assert 1 <= window <= n_coef
                assert np.all(np.nonzero(lam >= 1.0 / n)[0] < window)
                # exact union bound on the error event {lhat_j >= 1/n, j > J}
                with np.errstate(divide="ignore", over="ignore"):
                    thresholds = 1.0 / lam[window:]
                assert float(np.sum(chi2.sf(thresholds, n))) <= ALIVE_EPS

    def test_golden_windows(self):
        for name, windows in (("golden_pp", [25, 31, 41, 53, 71]), ("golden_pe", [7, 9])):
            cfg = cf.parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
            plans = experiment_plans(cfg)
            assert [plan.window for plan in plans] == windows
            assert all(plan.tau >= cfg.sigma for plan in plans)

    def test_plans_normalize_the_slope_once(self, monkeypatch):
        # one normalization per run, over the whole profile, and two series per
        # plan, each a SlopeSpec sum over every j > J: the noise folded into tau
        # (PE: the early stop) and the tail; each shapes at most a
        # block and the remainder's first term, so n = 10^6 costs no more than
        # 500 does
        shape, summed = cf.datagen._log_slope_shape, cf.sequences.series_sum
        calls, shaped = [], []

        def counted(spec, j):
            shaped.append(j.size)
            return shape(spec, j)

        def recorded(terms, start, stop=None, x=None, y=None):
            calls.append((start, stop, x, y))
            return summed(terms, start, stop, x, y)

        monkeypatch.setattr(cf.datagen, "_log_slope_shape", counted)
        monkeypatch.setattr(cf.datagen, "series_sum", recorded)
        cfg = cf.parse_config((CONFIG_DIR / "golden_pe.cfg").read_text())
        plans = experiment_plans(replace(cfg, n_grid=(500, 8000, 10**6)))
        assert [(p.tau, p.tail) for p in plans]
        expected = [(1, plans[0].slope.support + 1, 3.0, None)]  # j^-3 over the support
        for p in plans:  # the tail's terms are j^-x with x = 2 (p + 3/2) - 2 s = 5
            expected += [(p.window + 1, None, None, None), (p.window + 1, None, 5.0, None)]
        assert Counter(calls) == Counter(expected)
        assert max(shaped) <= cf.sequences.BLOCK
        assert sum(shaped) <= 1 + sum(2 * cf.sequences.BLOCK + 1 + p.window for p in plans)

    def test_plans_build_window_arrays_when_read(self):
        # the draw check reads only factor_shape, so a plan whose window it
        # refuses never sums its series or builds its O(J) arrays
        plan = experiment_plans(tiny_config())[0]
        lazy = {"tau", "tail", "beta_window", "weights_window", "lam", "bias", "scales"}
        assert not lazy & set(vars(plan))
        assert plan.factor_shape[0] == plan.window + 1
        assert not lazy & set(vars(plan))
        replicate_moments(plan, 0)
        assert set(vars(plan)) >= {"tau", "beta_window", "lam"}
        # only the known-degree selector reads the scales over 1..min(M_n, J)
        assert "scales" not in vars(plan)

    def test_plans_without_j_max_use_no_truncation(self, monkeypatch):
        # the engine simulates every coordinate: no plan, read in full, scans
        # for the per-unit truncation max(N_n, 2 m_dagger_n) or its parts
        def refuse(*args):
            raise AssertionError("a plan asked for a truncation")

        for module, name in ((cf.datagen, "default_truncation"), (cf.risk, "default_truncation"),
                             (cf.datagen, "balance_m_dagger"), (cf.datagen, "bound_N"),
                             (cf.sequences, "balance_m_dagger"), (cf.sequences, "bound_N")):
            monkeypatch.setattr(module, name, refuse)
        for name in ("golden_pp", "golden_pe"):
            cfg = replace(cf.parse_config((CONFIG_DIR / f"{name}.cfg").read_text()),
                          variant="both", replications=2)
            assert cfg.j_max is None
            for plan in experiment_plans(cfg):
                assert np.isfinite([plan.tau, plan.tail, len(plan.scales), plan.bias[0]]).all()
                _run_replicate(plan, 0)
            run_experiment(cfg)

    def test_law_audit_runs_on_its_first_config(self, monkeypatch):
        # scripts/law_audit.py reads _run_replicate and the plans' scales, window
        # and seq; a short run keeps it working.  Not a statistical gate: the
        # script keeps its own levels
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
        path = CONFIG_DIR.parent / "scripts" / "law_audit.py"
        spec = importlib.util.spec_from_file_location("law_audit", path)
        law_audit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(law_audit)
        label, cfg, n_coef = next(law_audit.configs(seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tests, events = law_audit.audit(label, replace(cfg, replications=300), n_coef)
        assert events == 0
        assert tests and all(0.0 <= p <= 1.0 for _, p in tests), tests

    def test_plan_depends_on_its_n_alone(self, monkeypatch):
        # the n = 500 plan of golden PE is the same built alone or beside
        # n = 8000, and its scales run over its own 1..min(M_n, J)
        cfg = cf.parse_config((CONFIG_DIR / "golden_pe.cfg").read_text())
        alone = experiment_plans(replace(cfg, n_grid=(500,)))[0]
        inside = experiment_plans(replace(cfg, n_grid=(500, 8000)))[0]
        for name in ("window", "tau", "tail"):
            assert getattr(alone, name) == getattr(inside, name), name
        for name in ("beta_window", "weights_window", "lam", "bias"):
            assert np.array_equal(getattr(alone, name), getattr(inside, name)), name
        known_bound = min(cf.bound_M(inside.seq, 500), inside.window)
        assert len(alone.scales) == len(inside.scales) == known_bound
        # the slope window of golden PP's n = 500 plan shapes its own J
        # indices, not the more of the plan beside it, and the slope's scale
        # one more, the probe that finds its support
        shape, shaped = cf.datagen._log_slope_shape, []

        def counted(spec, j):
            shaped.append(j.size)
            return shape(spec, j)

        cfg = cf.parse_config((CONFIG_DIR / "golden_pp.cfg").read_text())
        plan, beside = experiment_plans(replace(cfg, n_grid=(500, 4000)))
        monkeypatch.setattr(cf.datagen, "_log_slope_shape", counted)
        assert plan.beta_window.size == plan.window < beside.window
        assert sum(shaped) <= plan.window + 1

    def test_known_bound_within_window(self):
        # select_known reads the moments up to min(M_n, J), and M_n lies
        # within J: its condition implies lambda_M >= M / (delta_1 n)
        golden = [cf.parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
                  for name in ("golden_pp", "golden_pe")]
        cfgs = [replace(cfg, variant="known") for cfg in golden]
        cfgs.append(tiny_config(regime="EP", p=1.0, n_grid=(250, 1000, 4000), j_max=None))
        cfgs.append(tiny_config(s=1.0, p=3.0, n_grid=(250, 1000, 4000), j_max=None))
        unpaired = []
        for regime, a in (("PP", 0.6), ("PP", 3.0), ("EP", 0.6), ("EP", 3.0),
                          ("PE", 0.2), ("PE", 2.0)):
            for s_exp in (-1.0, 0.0, 0.5, 1.0):
                cfgs.append(tiny_config(regime=regime, a=a, p=max(s_exp, 0.0) + 1.0, s=s_exp,
                                        n_grid=(2, 7, 60, 500), variant="known", j_max=None))
                unpaired.append(SequenceSpec(regime, a=a, p=max(s_exp, 0.0) + 1.0, s=s_exp))
        for cfg in cfgs:
            for plan in experiment_plans(cfg):
                assert len(plan.scales) == cf.bound_M(plan.seq, plan.n) <= plan.window, \
                    (cfg, plan.n)
        # a run always pairs; the bound holds of the unpaired sequences too
        for seq in unpaired:
            for n in (2, 7, 60, 500):
                assert cf.bound_M(seq, n) <= alive_window(seq, n), (seq, n)

    def test_small_n_means_match_population(self):
        # n = 5..10 < J + 1 = 14: the trapezoidal (QR) branch of the factor
        reps = 1500
        cfg = tiny_config(n_grid=(5, 7, 10), j_max=20, replications=reps)
        for plan in experiment_plans(cfg):
            window = plan.window
            assert plan.n < window + 1
            moms = [replicate_moments(plan, r) for r in range(reps)]
            lhat = np.array([m.lhat for m in moms])
            ghat = np.array([m.ghat for m in moms])
            sy2 = np.array([m.sigma_y2 for m in moms])
            assert lhat.shape[1] == ghat.shape[1] == window
            lam = plan.seq.eigenvalues(cfg.j_max)
            beta = make_slope(plan.slope, cfg.j_max).coefs
            for got, target in (
                (lhat, lam[:window]),
                (ghat, (lam * beta)[:window]),
                (sy2[:, None], np.array([np.sum(lam * beta**2) + cfg.sigma**2])),
            ):
                se = np.std(got, axis=0, ddof=1) / np.sqrt(reps)
                assert np.all(np.abs(np.mean(got, axis=0) - target) < 4.0 * se)

    def test_selection_law_matches_per_unit_path(self):
        """Two-sample chi-square tests of the m_hat and M_hat histograms, each
        at level 1e-3, and a 4-SE two-sample z-test of the mean risk at m_hat
        (level 6.3e-5): with both paths of one law, the six tests together
        fail for at most 0.42% of seeds.  The paths use different seeds, so
        the two samples are independent."""
        from scipy.stats import chi2_contingency

        cases = (
            (tiny_config(regime="PE", a=0.5, p=1.0, n_grid=(500,), j_max=20,
                         variant="data_driven", seed=3), 1500),
            (tiny_config(n_grid=(200,), j_max=60, variant="data_driven", seed=4), 800),
        )
        for cfg, reps in cases:
            plan = experiment_plans(cfg)[0]
            seq, n, n_coef = plan.seq, plan.n, cfg.j_max  # the per-unit truncation
            slope = make_slope(plan.slope, n_coef)
            beta, weights = slope.coefs, seq.risk_weights(n_coef)
            tail = cf.slope_tail_bias(plan.slope, n_coef)  # the risk past n_coef
            unit, engine = [], []
            for r in range(reps):
                sample = simulate(seq, slope, n, cfg.sigma, cfg.seed + 100,
                                  replicate=(n, r), n_coef=n_coef)
                unit_mom = moments(sample)
                # the engine's error event never shows at this budget
                assert not np.any(unit_mom.lhat[plan.window:] >= 1.0 / n)
                for mom, out in ((unit_mom, unit), (replicate_moments(plan, r), engine)):
                    trace = cf.select_data_driven(
                        mom, weights, pen_const=plan.config.pen_const_unknown)
                    curve = fixed_dim_risk_curve(mom, beta, weights, tail)
                    out.append((trace.m_hat, trace.admissible_max, curve[trace.m_hat - 1]))
            unit, engine = np.array(unit), np.array(engine)
            se = np.sqrt((np.var(unit[:, 2], ddof=1) + np.var(engine[:, 2], ddof=1)) / reps)
            assert abs(np.mean(unit[:, 2]) - np.mean(engine[:, 2])) < 4.0 * se
            for col in (0, 1):
                table = _pooled_table(unit[:, col], engine[:, col])
                if table.shape[1] > 1:
                    p_value = chi2_contingency(table, correction=False)[1]
                    assert p_value > 1e-3, (cfg.regime, col, table.tolist())
