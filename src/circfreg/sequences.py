"""Deterministic sequence calculus for the three decay regimes.

A :class:`SequenceSpec` fixes three sequences by exact closed forms:

* risk weights        omega_j = j^(2s)
* smoothness weights  gamma_j = j^(2p)            (PP, PE)
                      gamma_j = exp(j^(2p) - 1)   (EP, normalized so gamma_1 = 1)
* eigenvalues         lambda_j = j^(-2a)          (PP, EP)
                      lambda_j = exp(-j^(2a))     (PE)

With ``enforce_pair`` the sine eigenvalue is tied to its cosine partner,
lambda_{2k+1} = lambda_{2k}, as stationarity of the regressor requires, so a
run always pairs; the unpaired default serves the sequence calculus alone.

From these the module derives the penalty scale sequences (delta, Delta,
kappa), the admissible-model bounds M_n and N_n, the bias/variance balancing
indices, and closed-form theoretical rates.  The scales exist only as natural
logarithms, so the exponential regimes never overflow; a caller that needs a
linear value takes the exponential where it reads it, ``inf`` past float range.
A log power log j^(2c) is 2 (c log j), the bits of (2c) log j wherever that
is normal, and is 0 at j = 1 and +-inf past float range where 2c overflows.
Where log omega_j and log lambda_j are both -inf, log(omega_j / lambda_j) is
not their difference, inf - inf, but one log power (+inf under PE).

Every sequence method also evaluates a range j = start..length, so no pass
over n indices needs an array of length n:

* N_n has a closed form, checked against omega over a few indices.
* M_n, m_star_n and m_dagger_n scan m upward a block of BLOCK indices at a
  time, forming log omega_j, log lambda_j and c_j = log(omega_j / lambda_j)
  once a block (:func:`_logs`), and stop once a nondecreasing lower bound on
  their criterion shows that no later index can win.  M_n reads the scales,
  which carry their running maxima; m_star_n and m_dagger_n are one balancing
  scan (:func:`_balance`), each carrying an aggregate of c_j: its log-sum or the scales.
* :func:`accumulate` carries a running sum or maximum from block to block;
  :func:`series_sum` adds a slope series a block at a time, stopping early.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SequenceSpec",
    "PenaltyScales",
    "intrinsic_scales",
    "bound_M",
    "bound_N",
    "balance_m_star",
    "balance_m_dagger",
    "theoretical_rate",
    "summability_check",
]

_REGIMES = ("PP", "EP", "PE")

# Indices per block of every O(n) pass: 2^12 floats are 32 KiB, below glibc's
# 128 KiB mmap threshold, so block arrays reuse heap memory
BLOCK = 2**12
INDEX_MAX = 2**53  # past it, consecutive indices are no longer distinct floats


def regime_violations(regime: str, a: float, p: float, s: float) -> list:
    """Messages for every violated regime constraint, at most one per field."""
    if regime not in _REGIMES:
        return [f"regime: must be one of {', '.join(_REGIMES)}, got {regime!r}"]
    errors = []
    a_floor, a_text = (0.0, "0") if regime == "PE" else (0.5, "1/2")
    if not a > a_floor:
        errors.append(f"a: must satisfy a > {a_text} under regime {regime}, got {a}")
    p_floor, p_text = (0.0, "0") if regime == "EP" else (max(0.0, s), "max(0, s)")
    if not p > p_floor:
        errors.append(
            f"p: must satisfy p > {p_text} under regime {regime}, got p = {p} with s = {s}"
        )
    return errors


@dataclass(frozen=True)
class SequenceSpec:
    """Regime and exponents defining the weight and eigenvalue sequences.

    Parameters
    ----------
    regime : {"PP", "EP", "PE"}
        Decay regime: polynomial/exponential smoothness weights paired with
        polynomial/exponential eigenvalue decay.
    a : float
        Degree of ill-posedness; requires a > 1/2 for PP and EP, a > 0 for PE.
    p : float
        Smoothness exponent; requires p > max(0, s) for PP and PE, p > 0
        for EP.
    s : float
        Risk-weight exponent (0 gives the plain L2 risk, s > 0 derivative
        risks, s < 0 weaker risks).
    enforce_pair : bool
        Tie each sine eigenvalue to its cosine partner.
    """

    regime: str
    a: float
    p: float
    s: float = 0.0
    enforce_pair: bool = False

    def __post_init__(self):
        errors = regime_violations(self.regime, self.a, self.p, self.s)
        if errors:
            raise ValueError("; ".join(errors))

    # -- exact log-space sequences over j = start..length (1-based values) ----
    # each entry depends on j alone, so a range equals that slice of 1..length

    def _indices(self, length: int, start: int = 1) -> np.ndarray:
        if length < 1:
            raise ValueError(f"sequence length must be >= 1, got {length}")
        if not 1 <= start <= length:
            raise ValueError(f"sequence start must lie in 1..{length}, got {start}")
        return np.arange(start, length + 1, dtype=float)

    def log_risk_weights(self, length: int, start: int = 1) -> np.ndarray:
        """log omega_j for j = start..length."""
        with np.errstate(over="ignore"):  # 2 (s log j): see the module docstring
            return 2.0 * (self.s * np.log(self._indices(length, start)))

    def log_smoothness_weights(self, length: int, start: int = 1) -> np.ndarray:
        """log gamma_j for j = start..length."""
        j = self._indices(length, start)
        if self.regime == "EP":
            with np.errstate(over="ignore"):  # gamma_j = inf is the exact limit
                return j ** (2.0 * self.p) - 1.0
        with np.errstate(over="ignore"):
            return 2.0 * (self.p * np.log(j))

    def _eigen_indices(self, length: int, start: int) -> np.ndarray:
        # lambda_{2k+1} = lambda_{2k}: odd indices >= 3 evaluate at j - 1
        j = self._indices(length, start)
        if self.enforce_pair:
            first_odd = max(3, start | 1)
            j[first_odd - start::2] -= 1.0  # exact, the entries are integers
        return j

    def log_eigenvalues(self, length: int, start: int = 1) -> np.ndarray:
        """log lambda_j for j = start..length, pairing applied if enforced."""
        j = self._eigen_indices(length, start)
        if self.regime == "PE":
            with np.errstate(over="ignore"):  # log lambda_j = -inf is the exact limit
                return -(j ** (2.0 * self.a))
        with np.errstate(over="ignore"):
            return -2.0 * (self.a * np.log(j))

    # -- linear-scale views (direct powers, so integer-valued entries are exact)

    def risk_weights(self, length: int, start: int = 1) -> np.ndarray:
        """omega_j = j^(2s) for j = start..length (may overflow to inf for large s)."""
        with np.errstate(over="ignore"):  # omega_j = inf is the exact limit
            return self._indices(length, start) ** (2.0 * self.s)

    def eigenvalues(self, length: int, start: int = 1) -> np.ndarray:
        """lambda_j for j = start..length (may underflow to 0 in regime PE)."""
        if self.regime == "PE":
            return np.exp(self.log_eigenvalues(length, start))
        return self._eigen_indices(length, start) ** (-2.0 * self.a)


@dataclass(frozen=True, eq=False)
class PenaltyScales:
    """Natural logarithms of the penalty scales delta, Delta, kappa for m = 1..J.

    Delta_m is the running maximum of omega_j/lambda_j, kappa_m the same with
    omega_j floored at 1, and delta_m = m * Delta_m * |log(kappa_m v (m+2)) /
    log(m+2)| is the effective dimension entering the penalty.  The logs stay
    finite where the scales themselves exceed float range.
    """

    log_delta: np.ndarray
    log_Delta: np.ndarray
    log_kappa: np.ndarray

    def __len__(self) -> int:
        return int(self.log_delta.size)


def _logs(spec: SequenceSpec, length: int, start: int = 1) -> tuple:
    """log omega_j, log lambda_j and c_j = log(omega_j / lambda_j) for j =
    start..length, the one pass over a block that every scan reads.  Where log
    omega_j and log lambda_j are both -inf (2s and the eigenvalue's exponent
    past float range), c_j is one log power under PP and EP, 2 ((s + a) log k
    + s log(j / k)) at the eigenvalue's index k (j - 1 at a paired sine, else
    j), which no inf - inf can reach, and +inf under PE, where exp(k^(2a))
    outgrows j^(2s).  A finite difference past float range is +inf, its limit."""
    log_omega, log_lam = spec.log_risk_weights(length, start), spec.log_eigenvalues(length, start)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = log_omega - log_lam  # NaN exactly where both are -inf
    both = np.isnan(ratio)
    if spec.regime == "PE":
        ratio[both] = np.inf
    elif both.any():
        j, k = spec._indices(length, start)[both], spec._eigen_indices(length, start)[both]
        with np.errstate(over="ignore"):
            ratio[both] = 2.0 * ((spec.s + spec.a) * np.log(k) + spec.s * np.log(j / k))
    return log_omega, log_lam, ratio


def _excess(running: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """running - c_j for a running aggregate of c_j never below it: exactly 0 where
    the two are equal, inf - inf included (np.fmax drops its NaN), +inf past float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fmax(running - log_ratio, 0.0)


def delta_factor(log_kappa: np.ndarray, start: int = 1) -> np.ndarray:
    """|log(kappa_m v (m+2)) / log(m+2)| for m = start..start+len(log_kappa)-1, from
    log kappa_m (the larger of the two logs, so log_kappa = -inf gives the factor 1)."""
    log_m2 = np.log(np.arange(start, start + log_kappa.size, dtype=float) + 2.0)
    return np.abs(np.maximum(log_kappa, log_m2) / log_m2)


def intrinsic_scales(spec: SequenceSpec, length: int, start: int = 1,
                     before: PenaltyScales | None = None) -> PenaltyScales:
    """The logs of the intrinsic penalty scales delta, Delta, kappa for m = start..length.

    ``before`` holds the scales of some indices ending at start - 1: the running
    maxima go on from its last entries, so consecutive ranges give the scales
    of their union bit for bit."""
    return _scales(_logs(spec, length, start), start, before)[0]


def _scales(logs: tuple, start: int, before: PenaltyScales | None) -> tuple:
    """intrinsic_scales from :func:`_logs`, with log m and log factor_m beside them."""
    log_omega, log_lam, log_ratio = logs
    last = lambda field: None if before is None else getattr(before, field)[-1]
    log_Delta = accumulate(np.maximum, log_ratio, last("log_Delta"))
    with np.errstate(over="ignore"):  # +inf past float range, the limit
        log_kappa = accumulate(np.maximum, np.maximum(log_omega, 0.0) - log_lam,
                               last("log_kappa"))
    log_m = np.log(np.arange(start, start + log_ratio.size, dtype=float))
    log_factor = np.log(delta_factor(log_kappa, start))
    return PenaltyScales(log_m + log_Delta + log_factor, log_Delta, log_kappa), log_m, log_factor


def scale_blocks(spec: SequenceSpec, length: int):
    """(lo, hi, intrinsic_scales over lo..hi) for the blocks of BLOCK indices
    covering 1..length, the last one shorter."""
    block = None
    for lo in range(1, length + 1, BLOCK):
        hi = min(lo + BLOCK - 1, length)
        block = intrinsic_scales(spec, hi, lo, block)
        yield lo, hi, block


def _at(values, m: int) -> float:
    """values(m, m): one entry of a SequenceSpec method."""
    return float(values(m, m)[0])


def _settles(n: int, hi: int, lower, level, size=lambda m: 0.0) -> bool:
    """Whether a scan over 1..hi fixes a criterion over 1..n: hi = n, or at
    m = hi + 1 the lower bound lower(m), which never decreases with m, exceeds
    ``level`` by a margin that float rounding cannot close: 1 plus 1e-9 of
    |lower| + |level| + |size(m)|, size(m) being one more log-scale term of
    the criterion (log omega_m for M_n).  An inf bound exceeds any finite
    level, and a NaN exceeds nothing."""
    m = hi + 1
    if m > n:
        return True
    bound, level = float(lower(m)), float(level)  # Python floats never warn
    if bound == math.inf:
        return level < math.inf
    return bound - level > 1.0 + 1e-9 * (abs(bound) + abs(level) + abs(size(m)))


def bound_M(spec: SequenceSpec, n: int) -> int:
    """Largest M in 1..n with delta_M <= delta_1 * n * min(omega_M, 1).

    Scans the scales upward and keeps the last index satisfying the
    condition; the floor M = 1 always qualifies.  The scan stops once no later
    m can qualify: log delta_m >= log m + log omega_m - log lambda_m, since the
    delta factor is >= 1 and Delta_m >= omega_m / lambda_m, so m qualifies only
    while log m - log lambda_m <= log delta_1 + log n, and the left side never
    decreases with m.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lower = lambda m: math.log(m) - _at(spec.log_eigenvalues, m)
    best, block = 1, None
    for lo in range(1, n + 1, BLOCK):
        hi = min(lo + BLOCK - 1, n)
        logs = _logs(spec, hi, lo)
        block = _scales(logs, lo, block)[0]
        if lo == 1:
            level = block.log_delta[0] + np.log(n)
        ok = np.nonzero(block.log_delta <= level + np.minimum(logs[0], 0.0))[0]
        if ok.size:
            best = lo + int(ok[-1])
        if _settles(n, hi, lower, level, lambda m: _at(spec.log_risk_weights, m)):
            return best


def weight_cap(weights: np.ndarray, n: int) -> int:
    """Largest N <= len(weights) with max_{j<=N} w_j <= n (at least 1)."""
    ok = np.nonzero(np.maximum.accumulate(weights) <= n)[0]
    return int(ok[-1]) + 1 if ok.size else 1


def bound_N(spec: SequenceSpec, n: int) -> int:
    """Largest N in 1..n with max_{j<=N} omega_j <= n.

    For s <= 1/2 that is n: omega_j = j^(2s) <= j.  For s > 1/2, omega_j grows
    by a factor of at least 1 + 1/j per index, so N is within 2 of
    floor(n^(1/(2s))), and omega is compared with n over the indices within 3
    of it: exact at perfect powers, where omega_N = n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.s <= 0.5:
        return n
    guess = int(n ** (0.5 / spec.s))
    lo, hi = max(1, guess - 3), min(n, guess + 3)
    return lo - 1 + weight_cap(spec.risk_weights(hi, lo), n)


def _balance(spec: SequenceSpec, n: int, excess, floor) -> int:
    """Smallest m in 1..n minimizing |log gamma_m - log lambda_m - log n + X_m|,
    whose terms but -log n are >= 0, so it is never NaN.  excess(lo, _logs over
    lo..hi, carry) gives X_m over lo..hi and the carry for the next block (None
    before the first).  X_m >= floor(m), so the scan stops once the criterion at
    X_m = floor(m), which never decreases with m, clears the best value so far."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_n = np.log(n)
    lower = lambda m: (_at(spec.log_smoothness_weights, m) - _at(spec.log_eigenvalues, m)
                       - math.log(n) + floor(m))
    best, value, carry = 1, np.inf, None
    for lo in range(1, n + 1, BLOCK):
        hi = min(lo + BLOCK - 1, n)
        logs = _logs(spec, hi, lo)
        x, carry = excess(lo, logs, carry)
        with np.errstate(over="ignore"):  # +inf past float range, the limit
            crit = np.abs(spec.log_smoothness_weights(hi, lo) - logs[1] - log_n + x)
        i = int(np.argmin(crit))  # the first minimum
        if crit[i] < value:
            best, value = lo + i, crit[i]
        if _settles(n, hi, lower, value):
            return best


def balance_m_star(spec: SequenceSpec, n: int) -> int:
    """Dimension balancing bias and variance orders.

    Minimizes |log( (gamma_m / (n omega_m)) * sum_{j<=m} omega_j/lambda_j )|
    over m = 1..n, ties broken toward the smallest m, as |log gamma_m -
    log lambda_m - log n + X_m| with X_m = log sum_{j<=m} e^(c_j) - c_m >= 0.
    """
    def log_sum(lo, logs, carry):
        log_cumsum = accumulate(np.logaddexp, logs[2], carry)
        return _excess(log_cumsum, logs[2]), log_cumsum[-1]

    return _balance(spec, n, log_sum, lambda m: 0.0)


def balance_m_dagger(spec: SequenceSpec, n: int) -> int:
    """Dimension balancing the penalty against the bias order.

    Minimizes |log( gamma_m * delta_m / (n omega_m) )| over m = 1..n, ties
    broken toward the smallest m, as |log gamma_m - log lambda_m - log n +
    X_m| with X_m = log m + log factor_m + (log Delta_m - c_m) >= log m.
    """
    def log_delta(lo, logs, before):
        scales, log_m, log_factor = _scales(logs, lo, before)
        return log_m + log_factor + _excess(scales.log_Delta, logs[2]), scales

    return _balance(spec, n, log_delta, math.log)


# -- reductions in blocks of indices -------------------------------------------

# Terms an unbounded series may take before it is declared divergent
_SERIES_MAX = 2**24


def series_sum(terms, start: int, stop: int | None = None, x: float | None = None,
               y: float | None = None) -> float:
    """sum_{start <= j < stop} (to infinity if stop is None) of nonnegative terms
    that do not increase past their peak; terms(lo, hi) gives those of j = lo..hi-1.

    Adds BLOCK terms at a time with np.sum until it reaches stop; for terms
    C j^-x, until the first block ends, then adds the Euler-Maclaurin remainder
    (integral, f/2, B2 and B4 terms) up to stop, scaled by the next term; with
    y, the same for paired terms to infinity, C j^-x at even j and
    C (j - 1)^(y - x) j^-y at odd j, after a block ending at an even j; else
    until a block's last term is at most 1e-19 of the total.  A series with no
    stop still running after 2^24 terms raises FloatingPointError.
    """
    total, lo = 0.0, start
    while stop is None or lo < stop:
        hi = lo + BLOCK if stop is None else min(lo + BLOCK, stop)
        hi += hi % 2 if y is not None else 0
        block = terms(lo, hi)
        total += float(np.sum(block))
        if x is not None:
            return total + _power_remainder(terms, hi, stop, x, y)
        if block[-1] <= 1e-19 * total:
            return total
        lo = hi
        if stop is None and lo - start >= _SERIES_MAX:
            raise FloatingPointError(f"series from j = {start} needs over 2^24 terms")
    return total


def _power_remainder(terms, a: int, stop: int | None, x: float, y: float | None) -> float:
    """sum_{a <= j < stop} of terms C j^-x by Euler-Maclaurin, from f(a) alone.
    With y, of the paired terms from an even a on: an odd j's term is C i^-x
    (1 + 1/i)^-y at i = j - 1, and (1 + 1/i)^-y = sum_m binom(-y, m) i^-m."""
    f_a = float(terms(a, a + 1)[0]) if stop is None or a < stop else 0.0
    if not f_a:  # 0 where x^3 may overflow: the remainder is 0, not inf * 0
        return 0.0

    def tail(b, x=x):  # sum_{j >= b} (b/j)^x over j = b, b + 1, ...
        return b / (x - 1.0) + 0.5 + x / (12.0 * b) - x * (x + 1.0) * (x + 2.0) / (720.0 * b**3)

    if y is None:
        return f_a * (tail(a) - (0.0 if stop is None else (a / stop) ** x * tail(stop)))
    # the even j, then the odd: sum over even i >= a of i^-z is a^-z tail(a / 2, z).
    # A finite f_a > 0 at a > 4096 needs y <= x < 180: binom(-y, m) a^-m is negligible by m = 12
    m = np.arange(12.0)
    binom = np.cumprod(np.append(1.0, (-y - m[:-1]) / (m[:-1] + 1.0)))
    return f_a * (tail(a / 2) + float(np.sum(binom * a**-m * tail(a / 2, x + m))))


def accumulate(ufunc, values: np.ndarray, carry=None) -> np.ndarray:
    """ufunc.accumulate(values) continued from ``carry``, the accumulated value
    just before them: in blocks, a long np.cumsum or np.logaddexp.accumulate
    gives the whole-array entries bit for bit."""
    if carry is None:
        return ufunc.accumulate(values)
    return ufunc.accumulate(np.concatenate(([carry], values)))[1:]


def first_false(holds, start: int, stop: int) -> int:
    """Smallest j in start..stop-1 where holds(j, j + 1)[0] is false, or stop,
    for a condition that holds on a prefix of the range and never after it:
    one evaluation if it holds at stop - 1, else probes at start, start + 1,
    start + 3, start + 7, ... until one fails, then bisects the last gap, about
    2 log2(j - start) evaluations in all."""
    at = lambda j: holds(j, j + 1)[0]
    if start < stop and at(stop - 1):
        return stop
    lo, hi, probe = start, stop - 1, start  # it holds below lo and fails at hi
    while probe < hi and at(probe):
        lo, probe = probe + 1, 2 * probe - start + 1
    return lo + bisect.bisect_left(range(lo, min(probe, hi)), True, key=lambda j: not at(j))


def theoretical_rate(spec: SequenceSpec, n: int) -> float:
    """Closed-form minimax rate value at sample size n (reference lines)."""
    if n < 3:
        raise ValueError(f"n must be >= 3 so that log n > 1, got {n}")
    a, p, s = spec.a, spec.p, spec.s
    # the exponents as ratios of halves, the same bits: 2a, 2p or 2s may overflow
    if spec.regime == "PP":
        if s + a + 0.5 == 0.0:
            return float(np.log(n) / n)
        return float(max(n ** (-(p - s) / (a + p + 0.5)), 1.0 / n))
    if spec.regime == "EP":
        with np.errstate(over="ignore"):
            rate = float(np.log(n) ** ((a + 0.5 + s) / p) / n)
        if rate == np.inf:
            raise OverflowError(f"theoretical_rate overflows at n = {n}")
        return rate
    return float(np.log(n) ** (-(p - s) / a))


def theoretical_rate_or_nan(spec: SequenceSpec, n: int) -> float:
    """theoretical_rate at n, or NaN where it is undefined (n < 3)."""
    return theoretical_rate(spec, n) if n >= 3 else float("nan")


def summability_check(scales: PenaltyScales, length: int) -> float:
    """Partial sum sum_{m<=length} Delta_m exp(-delta_m / (6 Delta_m)).

    Diagnostic for the penalty calibration condition; callers assert the
    partial sums plateau.  Its terms are formed from the log scales, so they
    stay finite where delta_m or Delta_m alone exceeds float range.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if length > len(scales):
        raise ValueError(f"length {length} exceeds scales length {len(scales)}")
    log_Delta = scales.log_Delta[:length]
    with np.errstate(over="ignore"):
        ratio = np.exp(scales.log_delta[:length] - log_Delta)  # delta_m / Delta_m
        terms = np.exp(log_Delta - ratio / 6.0)
    return float(np.sum(terms))
