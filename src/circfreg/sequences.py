"""Deterministic sequence calculus for the three decay regimes.

A :class:`SequenceSpec` fixes three sequences by exact closed forms:

* risk weights        omega_j = j^(2s)
* smoothness weights  gamma_j = j^(2p)            (PP, PE)
                      gamma_j = exp(j^(2p) - 1)   (EP, normalized so gamma_1 = 1)
* eigenvalues         lambda_j = j^(-2a)          (PP, EP)
                      lambda_j = exp(-j^(2a))     (PE)

With ``enforce_pair`` the sine eigenvalue is tied to its cosine partner,
lambda_{2k+1} = lambda_{2k}, as stationarity of the regressor requires.

From these the module derives the penalty scale sequences (delta, Delta,
kappa), the admissible-model bounds M_n and N_n, the bias/variance balancing
indices, and closed-form theoretical rates.  All internal computations run in
log space so the exponential regimes never overflow; the exported linear-scale
values may be ``inf`` where the exact value exceeds float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SequenceSpec",
    "PenaltyScales",
    "regime_violations",
    "delta_factor",
    "intrinsic_scales",
    "weight_cap",
    "bound_M",
    "bound_N",
    "balance_m_star",
    "balance_m_dagger",
    "theoretical_rate",
    "theoretical_rate_or_nan",
    "summability_check",
]

_REGIMES = ("PP", "EP", "PE")


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

    # -- exact log-space sequences (index arrays are 1-based values j = 1..J) --

    def _indices(self, length: int) -> np.ndarray:
        if length < 1:
            raise ValueError(f"sequence length must be >= 1, got {length}")
        return np.arange(1, length + 1, dtype=float)

    def log_risk_weights(self, length: int) -> np.ndarray:
        """log omega_j for j = 1..length."""
        return 2.0 * self.s * np.log(self._indices(length))

    def log_smoothness_weights(self, length: int) -> np.ndarray:
        """log gamma_j for j = 1..length."""
        j = self._indices(length)
        if self.regime == "EP":
            with np.errstate(over="ignore"):  # gamma_j = inf is the exact limit
                return j ** (2.0 * self.p) - 1.0
        return 2.0 * self.p * np.log(j)

    def _eigen_indices(self, length: int) -> np.ndarray:
        # lambda_{2k+1} = lambda_{2k}: odd indices >= 3 evaluate at j - 1
        j = self._indices(length)
        if self.enforce_pair:
            idx = np.arange(1, length + 1)
            j = np.where((idx % 2 == 1) & (idx >= 3), j - 1.0, j)
        return j

    def log_eigenvalues(self, length: int) -> np.ndarray:
        """log lambda_j for j = 1..length, pairing applied if enforced."""
        j = self._eigen_indices(length)
        if self.regime == "PE":
            return -(j ** (2.0 * self.a))
        return -2.0 * self.a * np.log(j)

    # -- linear-scale views (direct powers, so integer-valued entries are exact)

    def risk_weights(self, length: int) -> np.ndarray:
        """omega_j = j^(2s) for j = 1..length (may overflow to inf for large s)."""
        with np.errstate(over="ignore"):  # omega_j = inf is the exact limit
            return self._indices(length) ** (2.0 * self.s)

    def smoothness_weights(self, length: int) -> np.ndarray:
        """gamma_j for j = 1..length (may overflow to inf in regime EP)."""
        j = self._indices(length)
        if self.regime == "EP":
            with np.errstate(over="ignore"):
                return np.exp(j ** (2.0 * self.p) - 1.0)
        return j ** (2.0 * self.p)

    def eigenvalues(self, length: int) -> np.ndarray:
        """lambda_j for j = 1..length (may underflow to 0 in regime PE)."""
        j = self._eigen_indices(length)
        if self.regime == "PE":
            return np.exp(-(j ** (2.0 * self.a)))
        return j ** (-2.0 * self.a)


@dataclass(frozen=True)
class PenaltyScales:
    """Penalty scale sequences delta, Delta, kappa for m = 1..J.

    Delta_m is the running maximum of omega_j/lambda_j, kappa_m the same with
    omega_j floored at 1, and delta_m = m * Delta_m * |log(kappa_m v (m+2)) /
    log(m+2)| is the effective dimension entering the penalty.  The ``log_*``
    fields hold exact natural logarithms and stay finite even where the
    linear-scale entries overflow to inf.
    """

    delta: np.ndarray
    Delta: np.ndarray
    kappa: np.ndarray
    log_delta: np.ndarray
    log_Delta: np.ndarray
    log_kappa: np.ndarray

    def __len__(self) -> int:
        return int(self.delta.size)


def delta_factor(log_kappa: np.ndarray) -> np.ndarray:
    """|log(kappa_m v (m+2)) / log(m+2)| for m = 1..len(log_kappa), from log kappa_m
    (the larger of the two logs, so log_kappa = -inf gives the factor 1)."""
    log_m2 = np.log(np.arange(1, log_kappa.size + 1, dtype=float) + 2.0)
    return np.abs(np.maximum(log_kappa, log_m2) / log_m2)


def intrinsic_scales(spec: SequenceSpec, length: int) -> PenaltyScales:
    """Compute the intrinsic penalty scales delta, Delta, kappa up to m = length."""
    log_omega = spec.log_risk_weights(length)
    log_lam = spec.log_eigenvalues(length)
    m = np.arange(1, length + 1, dtype=float)

    log_Delta = np.maximum.accumulate(log_omega - log_lam)
    log_kappa = np.maximum.accumulate(np.maximum(log_omega, 0.0) - log_lam)
    factor = delta_factor(log_kappa)
    log_delta = np.log(m) + log_Delta + np.log(factor)

    omega = spec.risk_weights(length)
    lam = spec.eigenvalues(length)
    with np.errstate(over="ignore", divide="ignore"):
        Delta = np.maximum.accumulate(omega / lam)
        kappa = np.maximum.accumulate(np.maximum(omega, 1.0) / lam)
        delta = m * Delta * factor
    return PenaltyScales(delta, Delta, kappa, log_delta, log_Delta, log_kappa)


def bound_M(spec: SequenceSpec, scales: PenaltyScales, n: int) -> int:
    """Largest M in 1..n with delta_M <= delta_1 * n * min(omega_M, 1).

    Scans upward and keeps the last index satisfying the condition; the floor
    M = 1 always qualifies.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(scales) < n:
        raise ValueError(f"scales of length {len(scales)} cover less than n = {n}")
    log_omega = spec.log_risk_weights(n)
    bound = scales.log_delta[0] + np.log(n) + np.minimum(log_omega, 0.0)
    ok = np.nonzero(scales.log_delta[:n] <= bound)[0]
    return int(ok[-1]) + 1 if ok.size else 1


def weight_cap(weights: np.ndarray, n: int) -> int:
    """Largest N <= len(weights) with max_{j<=N} w_j <= n (at least 1)."""
    ok = np.nonzero(np.maximum.accumulate(weights) <= n)[0]
    return int(ok[-1]) + 1 if ok.size else 1


def bound_N(spec: SequenceSpec, n: int) -> int:
    """Largest N in 1..n with max_{j<=N} omega_j <= n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return weight_cap(spec.risk_weights(n), n)


def balance_m_star(spec: SequenceSpec, n: int) -> int:
    """Dimension balancing bias and variance orders.

    Minimizes |log( (gamma_m / (n omega_m)) * sum_{j<=m} omega_j/lambda_j )|
    over m = 1..n, ties broken toward the smallest m.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_omega = spec.log_risk_weights(n)
    log_gamma = spec.log_smoothness_weights(n)
    log_lam = spec.log_eigenvalues(n)
    log_cumsum = np.logaddexp.accumulate(log_omega - log_lam)
    crit = np.abs(log_gamma - np.log(n) - log_omega + log_cumsum)
    return int(np.argmin(crit)) + 1


def balance_m_dagger(spec: SequenceSpec, scales: PenaltyScales, n: int) -> int:
    """Dimension balancing the penalty against the bias order.

    Minimizes |log( gamma_m * delta_m / (n omega_m) )| over m = 1..n,
    ties broken toward the smallest m.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(scales) < n:
        raise ValueError(f"scales of length {len(scales)} cover less than n = {n}")
    log_omega = spec.log_risk_weights(n)
    log_gamma = spec.log_smoothness_weights(n)
    crit = np.abs(log_gamma + scales.log_delta[:n] - np.log(n) - log_omega)
    return int(np.argmin(crit)) + 1


def theoretical_rate(spec: SequenceSpec, n: int) -> float:
    """Closed-form minimax rate value at sample size n (reference lines)."""
    if n < 3:
        raise ValueError(f"n must be >= 3 so that log n > 1, got {n}")
    a, p, s = spec.a, spec.p, spec.s
    if spec.regime == "PP":
        if 2.0 * s + 2.0 * a + 1.0 == 0.0:
            return float(np.log(n) / n)
        return float(max(n ** (-(2.0 * p - 2.0 * s) / (2.0 * a + 2.0 * p + 1.0)), 1.0 / n))
    if spec.regime == "EP":
        with np.errstate(over="ignore"):
            rate = float(np.log(n) ** ((2.0 * a + 1.0 + 2.0 * s) / (2.0 * p)) / n)
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
    partial sums plateau.  Computed from the log-scale fields so regimes with
    overflowing linear entries still return finite values.
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
