"""Audit the law of the replicate engine against the per-unit path.

    python3 scripts/law_audit.py [--seed 1]

For each config of a fixed matrix (PP, EP and PE; s = 0 and s = 1; both
selectors; j_max = 30 at n = 60; a run always pairs), and for one PP config at
s = 1, p = 3 without j_max at n = 700, whose engine simulates every
coordinate and whose selections spread over several dimensions (M_n = 3,
and the data-driven M_hat takes 2 and 3, where at n = 250 it is 2 on nearly
every replicate), it draws R replicates through the engine
(``circfreg.risk._run_replicate``) and R through ``circfreg.simulate`` and
``circfreg.moments``, on independent seeds.  The per-unit side simulates j_max coordinates, or without j_max
``default_truncation``'s max(N_n, 2 m_dagger_n).  R is set so that the
per-unit draws come to about 2^24 normals per config.  Then it runs, at one
family-wise level of 0.01 split over all tests by Bonferroni:

* two-sample chi-square tests of the m_hat and M_hat histograms, per
  variant, with adjacent values pooled to at least 10 replicates a bin (a
  histogram with one bin, such as the known-degree M_hat, which is the
  length of the plan's ``scales``, is not tested);
* two-sample z-tests of the mean risk curve at each m <= min(J, n_coef, 10).

The per-unit risk curve counts the tail past n_coef, ``slope_tail_bias``;
the engine's is the curve it reports.  The per-unit slope, weights and tail
are read once per config.  The script prints every p-value, the
engine's error-event bound ALIVE_EPS and the count of per-unit replicates
inside that event, {lhat_j >= 1/n for some j > J}.  It exits 1 on any
rejection and on any replicate inside the event.  It audits the circfreg
under ``src`` next to it, so a copy of this script in another checkout
audits that checkout.  scipy supplies the reference distributions.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import chi2_contingency, norm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import circfreg as cf  # noqa: E402
from circfreg.risk import ALIVE_EPS, _run_replicate, experiment_plans  # noqa: E402

FAMILY_LEVEL = 0.01
NORMALS = 2**24  # per-unit normals per config
N, J_MAX = 60, 30  # the sample size and j_max of every config but the last
CURVE_M = 10


def configs(seed: int):
    """The audit matrix: (label, RunConfig, n_coef), n_coef the per-unit truncation."""
    # PP and PE need p > s; EP needs p > 0 only
    matrix = [(regime, a, 1.0 if regime == "EP" else 2.0 + s, s, N, J_MAX)
              for regime, a in (("PP", 1.0), ("EP", 1.0), ("PE", 0.5)) for s in (0.0, 1.0)]
    matrix.append(("PP", 1.0, 3.0, 1.0, 700, None))
    for regime, a, p, s, n, j_max in matrix:
        seq = cf.SequenceSpec(regime, a=a, p=p, s=s, enforce_pair=True)  # as in every run
        n_coef = j_max or cf.default_truncation(seq, n)
        yield f"{regime} a={a} p={p} s={s}" + ("" if j_max else " j_max=none"), cf.RunConfig(
            regime=regime, a=a, p=p, s=s, sigma=0.5, rho=1.0, n_grid=(n,),
            replications=NORMALS // (n * (n_coef + 1)), seed=seed, variant="both",
            pen_const_known=0.3, pen_const_unknown=0.3, j_max=j_max), n_coef


def per_unit(plan, unit, r):
    """Risk curve, (risk, m_hat, M_hat) per variant, and whether the replicate
    lies in the engine's error event, from one simulated sample.  ``unit`` is
    (n_coef, slope 1..n_coef, risk weights 1..n_coef, tail past n_coef)."""
    cfg, n = plan.config, plan.n
    n_coef, slope, weights, tail = unit
    sample = cf.simulate(plan.seq, slope, n, cfg.sigma, cfg.seed + 1, replicate=(n, r),
                         n_coef=n_coef)
    mom = cf.moments(sample)
    curve = cf.fixed_dim_risk_curve(mom, slope.coefs, weights, tail)
    picks = []
    for variant in cfg.variant_names():
        if variant == "known_degree":
            trace = cf.select_known(mom, weights, plan.scales, pen_const=cfg.pen_const_known)
        else:
            trace = cf.select_data_driven(mom, weights, pen_const=cfg.pen_const_unknown)
        picks.append((float(curve[trace.m_hat - 1]), trace.m_hat, trace.admissible_max))
    return curve, picks, bool(np.any(mom.lhat[plan.window:] >= 1.0 / n))


def pooled_table(a, b, min_count=10):
    """2 x K histogram table of two integer samples, adjacent values pooled
    until each bin holds at least min_count of the combined sample."""
    table, bin_a, bin_b = [], 0, 0
    for v in np.union1d(a, b):
        bin_a += int(np.sum(a == v))
        bin_b += int(np.sum(b == v))
        if bin_a + bin_b >= min_count:
            table.append([bin_a, bin_b])
            bin_a = bin_b = 0
    if table and bin_a + bin_b:
        table[-1][0] += bin_a
        table[-1][1] += bin_b
    return np.array(table).T


def audit(label, cfg, n_coef):
    """p-values of one config's tests, as (name, p), and its error-event count."""
    plan = experiment_plans(cfg)[0]
    unit = (n_coef, cf.make_slope(plan.slope, n_coef), plan.seq.risk_weights(n_coef),
            cf.slope_tail_bias(plan.slope, n_coef))
    reps, variants = cfg.replications, cfg.variant_names()
    m_top = min(plan.window, n_coef, CURVE_M)
    engine_curves, unit_curves = np.empty((reps, m_top)), np.empty((reps, m_top))
    engine_picks, unit_picks = (np.empty((reps, len(variants), 3)) for _ in range(2))
    events = 0
    for r in range(reps):
        curve, picks = _run_replicate(plan, r)
        engine_curves[r], engine_picks[r] = curve[:m_top], picks
        curve, picks, event = per_unit(plan, unit, r)
        unit_curves[r], unit_picks[r] = curve[:m_top], picks
        events += event
    tests = []
    for vi, variant in enumerate(variants):
        for field, name in ((1, "m_hat"), (2, "M_hat")):
            table = pooled_table(unit_picks[:, vi, field], engine_picks[:, vi, field])
            if table.shape[1] > 1:
                tests.append((f"{variant} {name} chi2 ({table.shape[1]} bins)",
                              float(chi2_contingency(table, correction=False)[1])))
    se = np.sqrt((unit_curves.var(axis=0, ddof=1) + engine_curves.var(axis=0, ddof=1)) / reps)
    z = (unit_curves.mean(axis=0) - engine_curves.mean(axis=0)) / se
    tests += [(f"risk curve z at m = {m + 1}", float(2.0 * norm.sf(abs(z[m]))))
              for m in range(m_top)]
    print(f"{label}: n = {plan.n}, n_coef = {n_coef}, J = {plan.window}, R = {reps}")
    return tests, events


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="engine seed; the per-unit seed is seed + 1")
    args = parser.parse_args(argv)
    start, results = time.perf_counter(), []
    for label, cfg, n_coef in configs(args.seed):
        clock = time.perf_counter()
        tests, events = audit(label, cfg, n_coef)
        results.append((label, tests, events))
        print(f"  {time.perf_counter() - clock:.1f} s")
    count = sum(len(tests) for _, tests, _ in results)
    level = FAMILY_LEVEL / count
    rejected = 0
    print(f"\n{count} tests, family-wise level {FAMILY_LEVEL}, per-test level {level:.3g} "
          f"(Bonferroni); error-event bound ALIVE_EPS = {ALIVE_EPS:g} per replicate")
    for label, tests, events in results:
        print(f"{label}: {events} per-unit replicates in the error event")
        rejected += events
        for name, p in tests:
            reject = p < level
            rejected += reject
            print(f"  {name:34s} p = {p:.4g}{'  REJECT' if reject else ''}")
    print(f"\n{rejected} rejections in {time.perf_counter() - start:.1f} s")
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
