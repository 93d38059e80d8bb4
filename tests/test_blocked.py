"""Every O(n) pass done in blocks against its full-array reference.

The references below are the whole-array computations the blocked code
replaces, kept only here.  The bounds N_n, M_n, m_dagger_n and m_star_n, the
alive window, every running sum and every plan array read off them must equal
their references bit for bit.  The slope's series (its normalization, the
folded noise, the bias past m and the tail past J) are summed a block at a
time with an early stop or an Euler-Maclaurin remainder, and must match
math.fsum over the explicit terms, plus an exact remainder, within 1e-12.
Without j_max the folded noise and the alive window run over every index.
"""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import circfreg as cf
from circfreg.datagen import SlopeSpec, _log_slope_shape
from circfreg.risk import ALIVE_EPS, alive_window, experiment_plans, log_chi2_tail_bound
from circfreg.sequences import (
    BLOCK,
    INDEX_MAX,
    SequenceSpec,
    accumulate,
    balance_m_dagger,
    balance_m_star,
    bound_M,
    bound_N,
    first_false,
    intrinsic_scales,
    scale_blocks,
    series_sum,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# sizes on both sides of powers of two, among them the ends of the scans'
# blocks (every BLOCK = 4096 indices; 4160 ends one block 64 past 4096), and
# perfect squares and cubes (where N_n = n^(1/(2s)) exactly at s = 1 and 1.5)
SIZES = (2, 3, 4, 8, 9, 63, 64, 65, 127, 128, 129, 256, 257, 512, 513, 4095, 4096, 4097,
         4160, 8191, 8193, 9216, 15625, 16384, 46656, 65536)


# -- full-array references -----------------------------------------------------

def ref_bound_N(spec, n):
    ok = np.nonzero(np.maximum.accumulate(spec.risk_weights(n)) <= n)[0]
    return int(ok[-1]) + 1 if ok.size else 1


def ref_bound_M(spec, n):
    scales = intrinsic_scales(spec, n)
    bound = scales.log_delta[0] + np.log(n) + np.minimum(spec.log_risk_weights(n), 0.0)
    ok = np.nonzero(scales.log_delta[:n] <= bound)[0]
    return int(ok[-1]) + 1 if ok.size else 1


def ref_m_dagger(spec, n):
    scales = intrinsic_scales(spec, n)
    crit = np.abs(spec.log_smoothness_weights(n) + scales.log_delta[:n] - np.log(n)
                  - spec.log_risk_weights(n))
    return int(np.argmin(crit)) + 1


def ref_m_star(spec, n):
    log_omega = spec.log_risk_weights(n)
    log_cumsum = np.logaddexp.accumulate(log_omega - spec.log_eigenvalues(n))
    crit = np.abs(spec.log_smoothness_weights(n) - np.log(n) - log_omega + log_cumsum)
    return int(np.argmin(crit)) + 1


def ref_alive_window(seq, n, n_coef=None):
    """Over 1..n_coef, or without it over lengths doubling from 64 until the
    last bound is 0: the bounds past it are 0 too and add nothing."""
    length = n_coef or 64
    while True:
        bound = np.exp(log_chi2_tail_bound(n, -np.log(n) - seq.log_eigenvalues(length)))
        if n_coef or bound[-1] == 0.0:
            break
        length *= 2
    tail = np.cumsum(bound[::-1])[::-1]
    return int(np.count_nonzero(tail > ALIVE_EPS))


def ref_norm(slope, length):
    """sum_{j <= support} gamma_j shape_j^2 as defined, in log space: math.fsum
    over j < length, and past it the exact remainder of j^-3 (PP, PE) or
    e^-1 j^-2 (EP) through the support."""
    seq, stop = slope.seq, min(length, slope.support + 1)
    j = np.arange(1, stop, dtype=float)
    terms = np.exp(seq.log_smoothness_weights(stop - 1) + 2.0 * _log_slope_shape(slope, j))
    x, const = (2.0, math.exp(-1.0)) if seq.regime == "EP" else (3.0, 1.0)
    rest = const * (zeta(x, length) - zeta(x, slope.support + 1)) if stop == length else 0.0
    return math.fsum(terms.tolist()) + rest


def ref_tail(slope, start, length):
    """sum_{j >= start} omega_j [slope]_j^2 as defined, in log space and 0 past
    the support: math.fsum over j < length, and past it the Hurwitz zeta
    remainder under PP and PE (EP terms there are far below 1e-12 of the sum)."""
    seq = slope.seq
    if start >= length:
        return 0.0
    log_shape = _log_slope_shape(slope, np.arange(start, length, dtype=float))
    with np.errstate(over="ignore"):
        terms = np.exp(seq.log_risk_weights(length - 1, start) + 2.0 * log_shape)
    terms[np.exp(log_shape) < np.finfo(float).tiny] = 0.0
    rest = 0.0
    if seq.regime != "EP" and slope.support >= length:
        x = 2.0 * (seq.p + 1.5) - 2.0 * seq.s
        rest = zeta(x, length) - zeta(x, slope.support + 1)
    return slope.scale**2 * (math.fsum(terms.tolist()) + rest)


def ref_folded(slope, start, length):
    """sum_{j >= start} lambda_j [slope]_j^2 as defined, in log space and 0 past
    the support: math.fsum over j < length, and past it, under PP, the Hurwitz
    zeta remainder; with pairing, j = i + 1 odd takes lambda_i, and
    (1 + 1/i)^-y = sum_m binom(-y, m) i^-m over even i >= length (even) gives
    zeta remainders too (PE and EP terms there are far below 1e-12 of the sum)."""
    seq = slope.seq
    log_shape = _log_slope_shape(slope, np.arange(start, length, dtype=float))
    terms = np.exp(seq.log_eigenvalues(length - 1, start) + 2.0 * log_shape)
    terms[np.exp(log_shape) < np.finfo(float).tiny] = 0.0
    rest = 0.0
    if seq.regime == "PP" and slope.support >= length:
        y = 2.0 * (seq.p + 1.5)
        x = 2.0 * seq.a + y
        if seq.enforce_pair:
            rest, coef = 2.0**-x * zeta(x, length // 2), 1.0  # coef = binom(-y, m)
            for m in range(8):
                rest += coef * 2.0 ** -(x + m) * zeta(x + m, length // 2)
                coef *= (-y - m) / (m + 1)
        else:
            rest = zeta(x, length)
    return slope.scale**2 * (math.fsum(terms.tolist()) + rest)


# -- strategies ------------------------------------------------------------------

@st.composite
def sequence_specs(draw, paired=st.booleans()):
    regime = draw(st.sampled_from(["PP", "EP", "PE"]))
    s = draw(st.sampled_from([-1.0, -0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]))
    a = draw(st.sampled_from([0.3, 1.0, 2.0] if regime == "PE" else [0.55, 0.75, 1.0, 2.0]))
    # EP stays at p >= 0.5, where the slope's tail ends within one 2^16 run
    p = draw(st.sampled_from([0.5, 1.0, 2.0])) + (max(s, 0.0) if regime != "EP" else 0.0)
    return SequenceSpec(regime, a=a, p=p, s=s, enforce_pair=draw(paired))


sizes = st.one_of(st.sampled_from(SIZES), st.integers(2, 20000))


# -- the reductions ----------------------------------------------------------------

@pytest.mark.parametrize("x", [1.5, 3.0, 40.0])
@pytest.mark.parametrize("start", [1, 5000])
@pytest.mark.parametrize("stop", [None, 4096, 10**5, 2**53])
def test_power_series_sum_matches_fsum(x, start, stop):
    # the first block, then the Euler-Maclaurin remainder of 2.5 j^-x up to stop
    terms = lambda lo, hi: 2.5 * np.arange(lo, hi, dtype=float) ** -x
    length = min(stop or 10**5, 10**5)
    explicit = math.fsum(terms(start, length).tolist()) if start < length else 0.0
    rest = 2.5 * (zeta(x, length) - (0.0 if stop is None else zeta(x, stop)))
    expected = explicit + (rest if length < (stop or math.inf) else 0.0)
    assert series_sum(terms, start, stop, x) == pytest.approx(expected, rel=1e-12)


def test_series_sum_stops_early_or_raises():
    geometric = lambda lo, hi: 0.5 ** np.arange(lo, hi, dtype=float)
    assert series_sum(geometric, 1) == pytest.approx(1.0, rel=1e-15)
    assert series_sum(geometric, 3, 5) == 0.5**3 + 0.5**4
    assert series_sum(geometric, 5, 5) == 0.0
    # a stop bounds a slow series; without one it raises after 2^24 terms
    harmonic = lambda lo, hi: 1.0 / np.arange(lo, hi, dtype=float)
    assert series_sum(harmonic, 1, 10**5) == pytest.approx(
        math.fsum(harmonic(1, 10**5).tolist()), rel=1e-13)
    with pytest.raises(FloatingPointError, match="2\\^24 terms"):
        series_sum(harmonic, 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(length=st.integers(1, 3 * BLOCK), cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_carried_accumulate_is_whole_array_accumulate(length, cuts, seed):
    values = np.random.default_rng(seed).standard_normal(length) * 50.0
    edges = sorted({0, length, *(int(c * length) for c in cuts)})
    for ufunc in (np.add, np.logaddexp):
        carry, parts = None, []
        for lo, hi in zip(edges, edges[1:]):
            parts.append(accumulate(ufunc, values[lo:hi], carry))
            carry = parts[-1][-1]
        assert np.array_equal(np.concatenate(parts), ufunc.accumulate(values))


def test_first_false_bisects_a_prefix():
    for stop in (1, 2, 3, 17, 4096):
        for edge in range(0, stop + 1, max(1, stop // 7)):
            assert first_false(lambda lo, hi: np.arange(lo, hi) < edge, 0, stop) == edge


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(start=st.integers(-3, 100), length=st.integers(0, 3000), cut=st.floats(0.0, 1.0),
       far=st.booleans())
def test_first_false_gallops_to_a_linear_scan_answer(start, length, cut, far):
    # a condition true on a prefix of 0..length indices past start, each
    # length from 0 to the whole range; with far, the range runs to 2^53
    stop = INDEX_MAX if far else start + length
    edge = start + round(cut * length)
    calls = []

    def holds(lo, hi):
        calls.append(lo)
        return np.arange(lo, hi) < edge

    found = first_false(holds, start, stop)
    assert found == next((j for j in range(start, start + length) if j >= edge), edge)
    # one probe at stop - 1, then about log2 of the prefix length to gallop
    # past it and as many to bisect the last gap
    assert len(calls) <= 2 * math.log2(edge - start + 1) + 3


# -- bounds, balancing indices and the alive window --------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=sequence_specs(), n=sizes)
def test_bounds_and_balancing_match_full_scans(spec, n):
    assert bound_N(spec, n) == ref_bound_N(spec, n)
    assert bound_M(spec, n) == ref_bound_M(spec, n)
    assert balance_m_dagger(spec, n) == ref_m_dagger(spec, n)
    assert balance_m_star(spec, n) == ref_m_star(spec, n)
    full = intrinsic_scales(spec, n)
    blocks = [block for _, _, block in scale_blocks(spec, n)]
    for field in ("log_delta", "log_Delta", "log_kappa"):
        assert np.array_equal(np.concatenate([getattr(b, field) for b in blocks]),
                              getattr(full, field), equal_nan=True)


@pytest.mark.parametrize("n", [65, 1000, BLOCK + 1, 10 * BLOCK])
@pytest.mark.parametrize("enforce_pair", [False, True])
@pytest.mark.parametrize("regime, a, p", [("EP", 1.0, 1e300), ("PE", 1e300, 2.0)])
def test_scans_stop_at_an_infinite_lower_bound(regime, a, p, enforce_pair, n):
    # gamma_m or 1/lambda_m is inf from m = 2 on: within one block the scans
    # end at n, and past it their lower bound is inf and each scan stops on it
    spec = SequenceSpec(regime, a=a, p=p, enforce_pair=enforce_pair)
    assert bound_M(spec, n) == ref_bound_M(spec, n)
    assert balance_m_dagger(spec, n) == ref_m_dagger(spec, n)
    assert balance_m_star(spec, n) == ref_m_star(spec, n)


def test_closed_form_N_at_perfect_powers():
    for s, root in ((1.0, 2), (1.5, 3), (2.0, 4)):
        spec = SequenceSpec("PP", a=1.0, p=3.0, s=s)
        for k in (2, 10, 31, 64, 100, 215, 1000):
            n = k**root
            if n <= 10**6:
                for m in (n - 1, n, n + 1):
                    assert bound_N(spec, m) == ref_bound_N(spec, m), (s, m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=sequence_specs(), n=sizes, coverage=st.one_of(st.none(), st.floats(0.0, 3.0)))
def test_alive_window_matches_full_tail_sums(spec, n, coverage):
    # a window within n_coef, or over every index without it
    n_coef = None if coverage is None else max(1, int(coverage * n))
    assert alive_window(spec, n, n_coef) == ref_alive_window(spec, n, n_coef)


@pytest.mark.parametrize("name, a, n", [("golden_pp", None, 250), ("golden_pp", None, 4000),
                                        ("golden_pe", None, 250), ("golden_pe", None, 4000),
                                        ("golden_pp", 0.55, 10**4)])
def test_alive_window_walks_many_blocks(monkeypatch, name, a, n):
    # with 8-index blocks the PP tail sums run down over several blocks before
    # one holds a tail over ALIVE_EPS; under PE the last nonzero bound is at
    # J + 1, so its walk stays one block long
    blocks = []

    def counted(*args):
        blocks.append(args[1].size)
        return accumulate(*args)

    monkeypatch.setattr(cf.risk, "BLOCK", 8)
    monkeypatch.setattr(cf.risk, "accumulate", counted)
    cfg = cf.parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
    seq = replace(cfg, a=a or cfg.a).sequence_spec()
    assert alive_window(seq, n) == ref_alive_window(seq, n)
    assert max(blocks) <= 8 and (len(blocks) > 1) == (name == "golden_pp")


# -- plans ---------------------------------------------------------------------------

def ref_beta(slope, length):
    """[slope]_j for j = 1..length as defined: scale times the shape, 0 below
    the smallest normal float."""
    shape = np.exp(_log_slope_shape(slope, np.arange(1, length + 1, dtype=float)))
    return slope.scale * np.where(shape >= np.finfo(float).tiny, shape, 0.0)


def ref_folded_past(slope, window, j_max):
    """The folded noise past J: math.fsum over J < j <= j_max, or without j_max
    ref_folded over every j > J."""
    if j_max is None:
        return ref_folded(slope, window + 1, 2**16)
    beta, lam = ref_beta(slope, j_max), slope.seq.eigenvalues(j_max)
    return math.fsum((lam[window:] * beta[window:] ** 2).tolist())


jmaxes = st.one_of(st.none(), st.sampled_from([1, 50, BLOCK + 1, 3 * BLOCK]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=sequence_specs(paired=st.just(True)),
       grid=st.lists(sizes, min_size=1, max_size=3, unique=True), j_max=jmaxes)
def test_plans_match_full_array_plans(spec, grid, j_max):
    # sigma = 0, so tau^2 is the folded sum itself; a run always pairs
    grid = tuple(sorted(grid))
    cfg = cf.RunConfig(regime=spec.regime, a=spec.a, p=spec.p, s=spec.s, sigma=0.0, rho=1.3,
                       n_grid=grid, replications=1, seed=1, variant="both", j_max=j_max)
    plans = experiment_plans(cfg)
    slope = plans[0].slope
    assert slope.scale**2 == pytest.approx(cfg.rho / ref_norm(slope, 2**16), rel=1e-12)
    for plan, n in zip(plans, grid):
        window = ref_alive_window(spec, n, j_max)
        length = j_max or window
        beta = ref_beta(slope, length)
        omega, lam = spec.risk_weights(length), spec.eigenvalues(length)
        assert plan.window == window
        assert len(plan.scales) == min(ref_bound_M(spec, n), window)
        assert np.array_equal(plan.beta_window, beta[:window])
        assert np.array_equal(plan.weights_window, omega[:window])
        assert np.array_equal(plan.lam, lam[:window])
        # subnormal folded sums lose relative precision through the square root
        folded = ref_folded_past(slope, window, j_max)
        assert plan.tau**2 == pytest.approx(folded, rel=1e-12, abs=1e-300)
        with np.errstate(over="ignore"):
            bias_terms = np.where(beta[:window] == 0.0, 0.0, omega[:window] * beta[:window] ** 2)
        for m in {1, window // 2, window - 1, window} - {0}:
            expected = math.fsum(bias_terms[m:].tolist())
            assert plan.bias[m - 1] == pytest.approx(expected, rel=1e-12)
        assert plan.tail == pytest.approx(ref_tail(slope, window + 1, 2**16), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=sequence_specs(paired=st.just(False)), n=sizes, j_max=jmaxes)
def test_unpaired_slope_sums_match_full_arrays(spec, n, j_max):
    # no run reads an unpaired sequence: the sums a plan takes past J, off the slope
    slope, window = SlopeSpec(spec, 1.3), alive_window(spec, n, j_max)
    assert slope.scale**2 == pytest.approx(1.3 / ref_norm(slope, 2**16), rel=1e-12)
    folded = slope.folded(window + 1, j_max and j_max + 1)
    assert folded == pytest.approx(ref_folded_past(slope, window, j_max), rel=1e-12, abs=1e-300)
    assert slope.tail(window + 1) == pytest.approx(ref_tail(slope, window + 1, 2**16), rel=1e-12)


@pytest.mark.parametrize("enforce_pair", [False, True])
@pytest.mark.parametrize("regime, a, p, s", [
    *[(regime, a, 1.0, s) for regime, a in (("PP", 1.0), ("PE", 0.5), ("EP", 1.0))
      for s in (-1.0, 0.0, 0.5, 0.95)],
    ("PP", 1.0, 500.0, 0.0),  # the support, j <= 4, ends inside the first block
    ("EP", 1.0, 0.5, 0.0),
    # J = 36847, terms j^-4.7: paired, the folded noise without its remainder runs past 2^24 terms
    ("PP", 0.55, 0.3, 0.0),
])
def test_slope_series_match_fsum(regime, a, p, s, enforce_pair):
    # the normalization, the tail past J and the folded noise, off the slope at
    # n = 10^5, against math.fsum over about 10^6 explicit terms plus an exact remainder
    seq = SequenceSpec(regime, a=a, p=p, s=s, enforce_pair=enforce_pair)
    slope, window = SlopeSpec(seq, 1.3), alive_window(seq, 10**5)
    assert slope.scale**2 == pytest.approx(1.3 / ref_norm(slope, 10**6), rel=1e-12)
    assert slope.tail(window + 1) == pytest.approx(ref_tail(slope, window + 1, 10**6), rel=1e-12)
    folded = ref_folded(slope, window + 1, 10**6)
    assert slope.folded(window + 1) == pytest.approx(folded, rel=1e-12, abs=1e-300)


def test_golden_pe_plans_hold_bounded_memory():
    # tracemalloc peak of 132 KiB at this grid with tau and the tail read
    # (numpy 2.4.6); a plan holding any length-n array would need 8 MB at n = 10^6
    cfg = cf.parse_config((CONFIG_DIR / "golden_pe.cfg").read_text())
    cfg = replace(cfg, n_grid=(500, 8000, 10**6), variant="both")
    tracemalloc.start()
    try:
        plans = experiment_plans(cfg)
        sums = [(plan.tau, plan.tail) for plan in plans]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [plan.window for plan in plans] == [7, 9, 13] and len(sums) == 3
    assert peak < 256 * 1024
