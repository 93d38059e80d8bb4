"""Risk evaluation, oracle benchmarking and the replicated rate experiment.

The experiment simulates the model over a grid of sample sizes, runs the
selection rule(s) on every replicate, aggregates weighted-norm risks and fits
the log-log slope of the median risk against n.  Replicates are keyed by
(seed, n, r) and run one after another in one process: at well under a
millisecond each, spreading them over worker processes costs more in start-up
and pickling than it saves.

Sufficient-statistic replicate engine.  The estimator reads a sample only
through ghat_j, lhat_j and sigma_y2, and zeroes every coordinate with
lhat_j < 1/n, so a replicate draws those statistics directly instead of the
n x (n_coef + 1) per-unit Gaussians of :func:`circfreg.datagen.simulate`.
It simulates every coordinate of the model, or 1..j_max where j_max is set:

* Alive window.  J is the smallest index with
  sum_{j > J} P(lhat_j >= 1/n) <= ALIVE_EPS by the Chernoff bound
  P(chi2_n >= n t) <= exp(-n (t - 1 - log t) / 2) at t = 1/(n lambda_j).
  Coordinates beyond J fold into the noise: tau^2 = sigma^2
  + sum_{j > J} lambda_j beta_j^2.
* Bartlett factor.  With c = (sqrt(lambda_j) beta_j for j <= J, tau), the
  statistics are functions of W = V'V for an n x (J+1) standard Gaussian V
  (coordinates 1..J, then the noise).  W = B B' for a lower-trapezoidal B of
  shape (J+1) x min(n, J+1) with chi_{n-i+1} on the diagonal and N(0, 1)
  below it (Bartlett; for n <= J, B is the transposed R factor of a QR
  factorization of V).  Then lhat_j = lambda_j |B_j|^2 / n,
  ghat_j = sqrt(lambda_j) (B B'c)_j / n and sigma_y2 = |B'c|^2 / n, for
  j = 1..J only.

The outputs have the per-unit law except on the error event {lhat_j >= 1/n
for some j > J}, of probability at most ALIVE_EPS.  Outside it every
coordinate beyond J is thresholded away, and it also lies beyond M_hat,
whose condition implies lhat_M >= M log(n)/n > 1/n, and beyond M_n, whose
condition implies lambda_M >= M/(delta_1 n).  So the moments stop at J, and
the risk curve and the oracle run over m <= J: past J the fixed-m estimator
equals the one at J.

Layout, fixed for reproducibility: the generator is substream(seed, n, r),
the key of the per-unit path, but the realized draws differ from it.  Rows
of B are coordinates 1..J in index order, then the noise.  One ``chisquare``
call draws the squared diagonal, top to bottom; one ``standard_normal``
call then fills the entries below the diagonal in row-major order.  Cost
per replicate is about J^2/2 normals whatever n is.

Every reported risk counts the whole slope: the risk curve adds the bias of
the window past m and the tail past J, so a finite window never flatters.

Plans (:func:`experiment_plans`) are built from (config, slope, n) alone,
so no plan depends on the rest of the grid.  A plan holds J and builds the
rest when first read: tau and the tail past J, the slope's own sums
:meth:`SlopeSpec.folded` and :meth:`SlopeSpec.tail`, its O(J) arrays, and
the scales over 1..min(M_n, J), whose length is the known-degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import _coef_array, _weighted
from .config import RunConfig, write_csv
# default_truncation, make_slope and slope_tail_bias: for perfbench/traced_cli.py
from .datagen import SlopeSpec, default_truncation, make_slope, slope_tail_bias, substream
from .estimator import SampleMoments, select_data_driven, select_known
from .sequences import (
    BLOCK,
    INDEX_MAX,
    PenaltyScales,
    SequenceSpec,
    accumulate,
    bound_M,
    first_false,
    intrinsic_scales,
    theoretical_rate_or_nan,
)

__all__ = [
    "NumericError",
    "RiskReport",
    "fixed_dim_risk_curve",
    "fit_slope",
    "run_experiment",
    "write_risk_csv",
]

# Log-fit floor substituted for exactly-zero median risks (degenerate runs).
_RISK_FLOOR = np.finfo(float).tiny

# Probability budget of the engine's error event (see the module docstring).
ALIVE_EPS = 1e-30

# log t beyond which the Chernoff exponent is evaluated at this value instead:
# the rate t - 1 - log t grows with t, so capping keeps the bound valid while
# n t stays finite for any representable n.
_LOG_T_CAP = 600.0


class NumericError(RuntimeError):
    """A numeric contract failed (e.g. nonpositive risks in a log-log fit)."""


def fixed_dim_risk_curve(mom: SampleMoments, beta, w, tail: float = 0.0) -> np.ndarray:
    """Risk of the fixed-dimension estimator against beta for m = 1..mom.n_coef.

    Entry m-1 holds sum_{j<=m} w_j (bhat_j - beta_j)^2
    + sum_{m<j<=len(beta)} w_j beta_j^2 + tail, where bhat is the thresholded
    coefficient ratio.  beta and w have one length, at least mom.n_coef;
    coordinates past that length enter only through ``tail``.
    """
    b, weights, m = _coef_array(beta), np.asarray(w, dtype=float), mom.n_coef
    if b.size != weights.size or b.size < m:
        raise ValueError(f"beta (length {b.size}) and w (length {weights.size}) must have "
                         f"one length, at least the {m} moments")
    return _risk_curve(mom, b, weights, _bias_beyond(weights, b, m), tail)


def _bias_beyond(weights: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<j<=len(b)} w_j b_j^2 for k = 1..m: the squared bias of the fixed-k
    estimator, which does not depend on the replicate.  A reversed running sum,
    so a sum past float range is inf, never inf - inf; a zero coefficient adds
    zero even where its weight overflowed to inf (EP at large s)."""
    with np.errstate(over="ignore"):
        beyond = np.cumsum((_weighted(weights, b) * b)[::-1])[::-1]
    return np.append(beyond[1:], 0.0)[:m]


def _risk_curve(mom: SampleMoments, b, weights, bias, tail) -> np.ndarray:
    """fixed_dim_risk_curve from its replicate-free part ``bias`` (length mom.n_coef)."""
    m = mom.n_coef
    return np.cumsum(_weighted(weights[:m], (mom.bhat - b[:m]) ** 2)) + bias + tail


def fit_slope(pairs) -> float:
    """Exact OLS slope of log(risk) on log(n)."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
        raise ValueError("need at least two (n, risk) pairs")
    if np.all(arr[:, 0] == arr[0, 0]):
        raise ValueError("need at least two distinct n values")
    if not np.all(arr[:, 1] > 0.0):
        raise NumericError("risks must be strictly positive for a log-log fit")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    xc = x - np.mean(x)
    return float(np.sum(xc * y) / np.sum(xc * xc))


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte Carlo risk summaries for one selection variant over an n-grid."""

    variant: str
    n_grid: tuple
    mean_risk: np.ndarray
    median_risk: np.ndarray
    median_m_hat: np.ndarray
    median_M_hat: np.ndarray
    oracle_m: np.ndarray
    oracle_risk: np.ndarray
    theoretical: np.ndarray
    slope: float


def log_chi2_tail_bound(n: int, log_t) -> np.ndarray:
    """Chernoff bound on log P(chi2_n >= n t): -n (t - 1 - log t) / 2 for
    t > 1, else 0.  Takes log t, so t = inf (an underflowed eigenvalue in
    1/(n lambda)) stays finite."""
    log_t = np.minimum(np.asarray(log_t, dtype=float), _LOG_T_CAP)
    rate = np.exp(log_t) - 1.0 - log_t
    return np.where(log_t > 0.0, -0.5 * n * rate, 0.0)


def alive_window(seq: SequenceSpec, n: int, j_max: int | None = None) -> int:
    """Smallest J whose tail j > J (up to j_max, or 2^53 - 1 without it)
    holds a coordinate with lhat_j >= 1/n with probability at most ALIVE_EPS
    (Chernoff union bound).  The bound does not increase with j (lambda_j does
    not), and stays exactly 0 once it reaches 0.  So the tail sums start at the
    last nonzero bound, found by :func:`first_false`, and run down in blocks,
    as the reversed np.cumsum over all bounds adds them, until a block holds a
    tail over ALIVE_EPS.  J >= 1: the bound at j = 1 is 1 where lambda_1 = 1
    (PP, EP) and over 0.69 where lambda_1 = exp(-1) (PE), for every n >= 1."""
    def bound(lo, hi):
        return np.exp(log_chi2_tail_bound(n, -np.log(n) - seq.log_eigenvalues(hi - 1, lo)))

    stop = INDEX_MAX if j_max is None else j_max + 1
    hi, tail = first_false(lambda lo, hi: bound(lo, hi) > 0.0, 1, stop), None
    while True:
        lo = max(1, hi - BLOCK)
        tail = accumulate(np.add, bound(lo, hi)[::-1], tail)  # j = hi-1 down to lo
        alive = int(np.count_nonzero(tail > ALIVE_EPS))  # the tail grows as j falls
        if alive:
            return lo - 1 + alive
        hi, tail = lo, tail[-1]


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """Everything the replicates at one grid size n need; immutable.  All but
    J is built when first read, so a plan the draw check refuses holds nothing
    more, and a data-driven run never scans for M_n."""

    config: RunConfig
    slope: SlopeSpec  # the run's slope, normalized over its whole profile
    n: int
    window: int   # alive window J: the length of every replicate's moments

    @property
    def seq(self) -> SequenceSpec:
        return self.slope.seq

    @cached_property
    def tau(self) -> float:  # noise sd, SlopeSpec.folded past J (to j_max) folded in
        stop = self.config.j_max and self.config.j_max + 1
        return float(np.sqrt(self.config.noise_var + self.slope.folded(self.window + 1, stop)))

    @cached_property
    def tail(self) -> float:  # sum_{j > J} omega_j beta_j^2
        return self.slope.tail(self.window + 1)

    @cached_property
    def scales(self) -> PenaltyScales:  # intrinsic scales over 1..min(M_n, J)
        return intrinsic_scales(self.seq, min(bound_M(self.seq, self.n), self.window))

    @cached_property
    def beta_window(self) -> np.ndarray:  # slope coefficients 1..J
        return self.slope.coefficients(1, self.window + 1)

    @cached_property
    def weights_window(self) -> np.ndarray:  # risk weights 1..J
        return self.seq.risk_weights(self.window)

    @cached_property
    def lam(self) -> np.ndarray:  # eigenvalues 1..J
        return self.seq.eigenvalues(self.window)

    @cached_property
    def bias(self) -> np.ndarray:  # squared bias beyond m = 1..J, through J
        return _bias_beyond(self.weights_window, self.beta_window, self.window)

    @property
    def factor_shape(self) -> tuple[int, int]:
        """Shape of a replicate's Bartlett factor: J + 1 rows, min(n, J + 1) columns."""
        return self.window + 1, min(self.n, self.window + 1)


def replicate_moments(plan: _GridPlan, r: int) -> SampleMoments:
    """Sample moments of replicate r, drawn from a Bartlett factor over the
    alive window (module docstring: law, error event and draw layout)."""
    n, window, lam = plan.n, plan.window, plan.lam
    rng = substream(plan.config.seed, n, r)
    rows, cols = plan.factor_shape
    factor = np.zeros((rows, cols))
    np.fill_diagonal(factor, np.sqrt(rng.chisquare(n - np.arange(cols))))
    below = np.tri(rows, cols, -1, dtype=bool)  # boolean indexing runs in row-major order
    factor[below] = rng.standard_normal(np.count_nonzero(below))

    root = np.sqrt(lam)
    # a moment past float range is inf; replicate_traces then ends the run at exit 3
    with np.errstate(over="ignore"):
        u = np.append(root * plan.beta_window, plan.tau) @ factor  # B'c
        ghat = root * (factor[:window] @ u) / n
        sigma_y2 = float(u @ u) / n
    lhat = lam * np.einsum("ij,ij->i", factor[:window], factor[:window]) / n
    return SampleMoments(ghat=ghat, lhat=lhat, sigma_y2=sigma_y2, n=n)


def replicate_traces(plan: _GridPlan, r: int):
    """Moments of replicate r and the SelectionTrace of each variant of the
    plan's config, each checked finite."""
    cfg, mom = plan.config, replicate_moments(plan, r)
    traces = []
    for variant in cfg.variant_names():
        if variant == "known_degree":
            trace = select_known(mom, plan.weights_window, plan.scales,
                                 pen_const=cfg.pen_const_known)
        else:
            trace = select_data_driven(mom, plan.weights_window, pen_const=cfg.pen_const_unknown)
        _require_finite(lambda _: f"n = {plan.n}, r = {r}, variant = {variant}",
                        contrast=trace.contrast, penalty=trace.penalty,
                        delta_used=trace.delta_used)
        traces.append(trace)
    return mom, traces


def _run_replicate(plan: _GridPlan, r: int):
    """Risk curve of replicate r and, per variant, (risk, m_hat, M_hat)."""
    mom, traces = replicate_traces(plan, r)
    curve = _risk_curve(mom, plan.beta_window, plan.weights_window, plan.bias, plan.tail)
    return curve, [(float(curve[t.m_hat - 1]), t.m_hat, t.admissible_max) for t in traces]


def experiment_plans(config):
    """Per-n task plans for a RunConfig: one slope, normalized over its whole
    profile, and one plan per n holding its alive window J, found in about
    2 log2 J evaluations of the bound and a block of tail sums."""
    config.noise_var  # every tau reads it: an overflow fails before any replicate
    slope = SlopeSpec(config.sequence_spec(), config.rho)
    return [_GridPlan(config, slope, n, alive_window(slope.seq, n, config.j_max))
            for n in config.n_grid]


def _require_finite(where, **fields) -> None:
    """Raise NumericError naming the first field with a non-finite entry and
    ``where(i)``, the place of its first such entry i."""
    for name, values in fields.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericError(f"{name} is not finite at {where(bad[0])}")


def run_experiment(config, plans=None):
    """Run the replicated Monte Carlo experiment described by a RunConfig.

    Returns one :class:`RiskReport` per selection variant.  Deterministic for
    a fixed config: every replicate is a pure function of (seed, n, r) and
    aggregation order is fixed.  ``plans``, if given, are the config's
    :func:`experiment_plans`, built by a caller that also read them.
    """
    seq = config.sequence_spec()
    grid = tuple(config.n_grid)

    # picks[n, variant, field, r]: per variant, replicate r's risk at m_hat, m_hat
    # and M_hat; C-contiguous with r last, so a mean along r sums as np.mean does
    picks = np.empty((len(grid), len(config.variant_names()), 3, config.replications))
    # per n: the variant-independent best fixed m and its mean risk
    oracle_m, oracle_val = np.empty(len(grid), dtype=int), np.empty(len(grid))

    if plans is None:
        plans = experiment_plans(config)
    for gi, (plan, per_n) in enumerate(zip(plans, picks)):
        # a running sum adds the curves as np.mean over the stacked curves does
        # (0.0 + curve is curve: every entry is >= +0), and keeps no curve
        total = 0.0
        for r in range(config.replications):
            curve, per_n[:, :, r] = _run_replicate(plan, r)
            total = total + curve
        mean = total / config.replications
        best = np.argmin(mean)  # the first minimum: ties go to the smallest m
        oracle_m[gi], oracle_val[gi] = best + 1, mean[best]
    at_n = lambda gi: f"n = {grid[gi]}"
    _require_finite(at_n, oracle_risk=oracle_val)
    theoretical = np.array([theoretical_rate_or_nan(seq, n) for n in grid])

    # np.median bit for bit without its NaN check, which imports numpy.ma (a NaN
    # risk makes the mean NaN too, checked first); two near-max values sum to inf
    ordered, mid = np.sort(picks, axis=-1), config.replications // 2
    with np.errstate(over="ignore"):
        medians = (ordered[..., mid] if config.replications % 2
                   else (ordered[..., mid - 1] + ordered[..., mid]) / 2)

    reports = []
    for vi, variant in enumerate(config.variant_names()):
        mean_risk = picks[:, vi, 0].mean(axis=-1)
        median_risk, median_m_hat, median_M_hat = medians[:, vi].T
        _require_finite(at_n, mean_risk=mean_risk, median_risk=median_risk,
                        median_m_hat=median_m_hat, median_M_hat=median_M_hat)
        if len(grid) >= 2:
            floored = np.maximum(median_risk, _RISK_FLOOR)
            slope = fit_slope(list(zip(grid, floored)))
        else:
            slope = float("nan")
        reports.append(
            RiskReport(
                variant=variant, n_grid=grid, mean_risk=mean_risk, median_risk=median_risk,
                median_m_hat=median_m_hat, median_M_hat=median_M_hat, oracle_m=oracle_m,
                oracle_risk=oracle_val, theoretical=theoretical, slope=slope,
            )
        )
    return reports


def write_risk_csv(reports, path, echo: str = "") -> None:
    """Serialize RiskReports to CSV with one row per (variant, n)."""
    fmt = lambda x: repr(float(x))  # shortest round-trip decimal
    slopes = " ".join(f"slope_{rep.variant}={fmt(rep.slope)}" for rep in reports)
    header = ("n,variant,mean_risk,median_risk,median_m_hat,median_M_hat,"
              "oracle_m,oracle_risk,theoretical_rate")
    rows = (
        f"{n},{rep.variant},{fmt(rep.mean_risk[gi])},{fmt(rep.median_risk[gi])},"
        f"{fmt(rep.median_m_hat[gi])},{fmt(rep.median_M_hat[gi])},"
        f"{int(rep.oracle_m[gi])},{fmt(rep.oracle_risk[gi])},{fmt(rep.theoretical[gi])}"
        for rep in reports
        for gi, n in enumerate(rep.n_grid)
    )
    write_csv(path, echo, slopes, header, rows)
