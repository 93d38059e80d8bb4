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
n x (n_coef + 1) per-unit Gaussians of :func:`circfreg.datagen.simulate`:

* Alive window.  J is the smallest index with
  sum_{J < j <= n_coef} P(lhat_j >= 1/n) <= ALIVE_EPS by the Chernoff bound
  P(chi2_n >= n t) <= exp(-n (t - 1 - log t) / 2) at t = 1/(n lambda_j).
  Coordinates beyond J fold into the noise: tau^2 = sigma^2
  + sum_{J < j <= n_coef} lambda_j beta_j^2.
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

Truncation-tail bias of the simulated slope is added analytically to every
reported risk, so the finite simulation never flatters the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _coef_array, _weight_array, weighted_norm_sq
from .config import RunConfig, write_csv
from .datagen import SlopeSpec, default_truncation, make_slope, slope_tail_bias, substream
from .estimator import (
    SampleMoments,
    _thresholded_ratio,
    moments,
    select_data_driven,
    select_known,
)
from .sequences import (
    PenaltyScales,
    SequenceSpec,
    bound_M,
    intrinsic_scales,
    theoretical_rate_or_nan,
)

__all__ = [
    "NumericError",
    "RiskReport",
    "risk",
    "fixed_dim_risk_curve",
    "oracle_risk",
    "fit_slope",
    "log_chi2_tail_bound",
    "alive_window",
    "experiment_plans",
    "replicate_moments",
    "replicate_traces",
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


def risk(beta_hat, beta, w) -> float:
    """Weighted squared-norm loss of beta_hat against beta (zero-padding)."""
    fc = _coef_array(beta_hat)
    gc = _coef_array(beta)
    diff = np.zeros(max(fc.size, gc.size))
    diff[: fc.size] = fc
    diff[: gc.size] -= gc
    return weighted_norm_sq(diff, w)


def fixed_dim_risk_curve(mom: SampleMoments, beta, w, tail: float = 0.0) -> np.ndarray:
    """Risk of the fixed-dimension estimator against beta for m = 1..mom.n_coef.

    Entry m-1 holds sum_{j<=m} w_j (bhat_j - beta_j)^2
    + sum_{m<j<=len(beta)} w_j beta_j^2 + tail, where bhat is the thresholded
    coefficient ratio.  beta and w have one length, at least mom.n_coef;
    coordinates past that length enter only through ``tail``.
    """
    b, weights, m = _coef_array(beta), _weight_array(w), mom.n_coef
    if b.size != weights.size or b.size < m:
        raise ValueError(f"beta (length {b.size}) and w (length {weights.size}) must have "
                         f"one length, at least the {m} moments")
    sq_err = weights[:m] * (_thresholded_ratio(mom, mom.ghat) - b[:m]) ** 2
    cum_bias = np.cumsum(weights * b * b)
    return np.cumsum(sq_err) + (cum_bias[-1] - cum_bias[:m]) + tail


def oracle_risk(samples, beta, w):
    """Best fixed dimension in hindsight: (best_m, mean risk at best_m).

    ``samples`` is an iterable of Sample or SampleMoments of one length; their
    mean risk is minimized over fixed m with smallest-m tie-break.
    """
    curves = []
    for s in samples:
        mom = s if isinstance(s, SampleMoments) else moments(s)
        curves.append(fixed_dim_risk_curve(mom, beta, w))
    if not curves:
        raise ValueError("need at least one replicate")
    return _best_fixed_dim(curves)


def _best_fixed_dim(curves) -> tuple:
    """Smallest m minimizing the mean of the risk curves, and that mean."""
    mean_curve = np.mean(np.vstack(curves), axis=0)
    best = int(np.argmin(mean_curve)) + 1
    return best, float(mean_curve[best - 1])


def fit_slope(pairs) -> float:
    """Exact OLS slope of log(risk) on log(n)."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
        raise ValueError("need at least two (n, risk) pairs")
    if np.unique(arr[:, 0]).size < 2:
        raise ValueError("need at least two distinct n values")
    if not np.all(arr[:, 1] > 0.0):
        raise NumericError("risks must be strictly positive for a log-log fit")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    xc = x - np.mean(x)
    return float(np.sum(xc * y) / np.sum(xc * xc))


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo risk summaries for one selection variant over an n-grid."""

    variant: str
    n_grid: tuple
    mean_risk: np.ndarray
    median_risk: np.ndarray
    median_m_hat: np.ndarray
    median_m_bound: np.ndarray
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


def alive_window(seq: SequenceSpec, n: int, n_coef: int) -> int:
    """Smallest J <= n_coef whose tail j = J+1..n_coef holds a coordinate with
    lhat_j >= 1/n with probability at most ALIVE_EPS (Chernoff union bound)."""
    log_t = -np.log(n) - seq.log_eigenvalues(n_coef)
    bound = np.exp(log_chi2_tail_bound(n, log_t))
    tail = np.cumsum(bound[::-1])[::-1]  # tail[j-1] bounds P(any alive i >= j)
    return int(np.count_nonzero(tail > ALIVE_EPS))


@dataclass(frozen=True)
class _GridPlan:
    """Everything the replicates at one grid size n need; immutable."""

    config: RunConfig
    seq: SequenceSpec
    n: int
    n_coef: int
    window: int   # alive window J <= n_coef: the length of every replicate's moments
    tau: float    # noise sd with the coordinates beyond J folded in
    beta: np.ndarray  # slope coefficients 1..n_coef
    weights: np.ndarray
    tail: float
    scales: PenaltyScales | None  # known-degree scales up to the admissible bound


def replicate_moments(plan: _GridPlan, r: int) -> SampleMoments:
    """Sample moments of replicate r, drawn from a Bartlett factor over the
    alive window (module docstring: law, error event and draw layout)."""
    n, window = plan.n, plan.window
    rng = substream(plan.config.seed, n, r)
    width = min(n, window + 1)
    factor = np.zeros((window + 1, width))
    diag = np.arange(width)
    factor[diag, diag] = np.sqrt(rng.chisquare(n - diag))
    rows, cols = np.tril_indices(window + 1, -1, width)
    factor[rows, cols] = rng.standard_normal(rows.size)

    lam = plan.seq.eigenvalues(window)
    root = np.sqrt(lam)
    u = np.append(root * plan.beta[:window], plan.tau) @ factor  # B'c
    ghat = root * (factor[:window] @ u) / n
    lhat = lam * np.einsum("ij,ij->i", factor[:window], factor[:window]) / n
    return SampleMoments(ghat=ghat, lhat=lhat, sigma_y2=float(u @ u) / n, n=n)


def replicate_traces(plan: _GridPlan, r: int):
    """Moments of replicate r and the SelectionTrace of each variant of the
    plan's config, each checked finite."""
    cfg, mom = plan.config, replicate_moments(plan, r)
    traces = []
    for variant in cfg.variant_names():
        if variant == "known_degree":
            trace = select_known(mom, plan.weights, plan.scales, len(plan.scales), cfg.eta,
                                 cfg.pen_const_known)
        else:
            trace = select_data_driven(mom, plan.weights, cfg.eta, cfg.pen_const_unknown)
        _require_finite(lambda _: f"n = {plan.n}, r = {r}, variant = {variant}",
                        contrast=trace.contrast, penalty=trace.penalty,
                        delta_used=trace.delta_used)
        traces.append(trace)
    return mom, traces


def _run_replicate(plan: _GridPlan, r: int):
    """Risk curve of replicate r and, per variant, (risk, m_hat, M_hat)."""
    mom, traces = replicate_traces(plan, r)
    curve = fixed_dim_risk_curve(mom, plan.beta, plan.weights, plan.tail)
    return curve, [(float(curve[t.m_hat - 1]), t.m_hat, t.admissible_max) for t in traces]


def experiment_plans(config):
    """Per-n task plans for a RunConfig (one slope, normalized at the largest
    truncation, shared by the whole grid)."""
    seq = config.sequence_spec()
    grid = tuple(config.n_grid)

    trunc = {n: config.j_max or default_truncation(seq, n) for n in grid}
    ref = max(trunc.values())
    slope_spec = SlopeSpec(seq, config.rho, ref)
    beta = make_slope(slope_spec).coefs
    tail_ref = slope_tail_bias(slope_spec)
    omega = seq.risk_weights(ref)
    try:
        noise_var = config.sigma**2
    except OverflowError:
        raise NumericError(f"sigma**2 overflows at sigma = {config.sigma!r}") from None

    plans = []
    for n in grid:
        n_coef = trunc[n]
        window = alive_window(seq, n, n_coef)
        folded = seq.eigenvalues(n_coef)[window:] * beta[window:n_coef] ** 2
        tau = float(np.sqrt(noise_var + np.sum(folded)))
        band = float(np.sum(omega[n_coef:] * beta[n_coef:] ** 2))  # n_coef < j <= ref
        scales = None
        if "known_degree" in config.variant_names():
            m_bound = min(bound_M(seq, intrinsic_scales(seq, n), n), n_coef)
            scales = intrinsic_scales(seq, m_bound)  # = prefix of the length-n scales
        plans.append(
            _GridPlan(
                config=config, seq=seq, n=n, n_coef=n_coef, window=window, tau=tau,
                beta=beta[:n_coef], weights=omega[:n_coef], tail=band + tail_ref, scales=scales,
            )
        )
    return plans


def _require_finite(where, **fields) -> None:
    """Raise NumericError naming the first field with a non-finite entry and
    ``where(i)``, the place of its first such entry i."""
    for name, values in fields.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericError(f"{name} is not finite at {where(bad[0])}")


def run_experiment(config):
    """Run the replicated Monte Carlo experiment described by a RunConfig.

    Returns one :class:`RiskReport` per selection variant.  Deterministic for
    a fixed config: every replicate is a pure function of (seed, n, r) and
    aggregation order is fixed.
    """
    seq = config.sequence_spec()
    grid = tuple(config.n_grid)

    # per n: the oracle, and per variant the R-vectors of (risk, m_hat, M_hat)
    oracle, stats = [], []
    for plan in experiment_plans(config):
        curves, picks = zip(*(_run_replicate(plan, r) for r in range(config.replications)))
        oracle.append(_best_fixed_dim(curves))
        stats.append([[np.array(col) for col in zip(*per_variant)]
                      for per_variant in zip(*picks)])
    # the oracle benchmark is variant-independent: best fixed m per grid point
    oracle_m, oracle_val = (np.array(col) for col in zip(*oracle))
    at_n = lambda gi: f"n = {grid[gi]}"
    _require_finite(at_n, oracle_risk=oracle_val)
    theoretical = np.array([theoretical_rate_or_nan(seq, n) for n in grid])

    reports = []
    for vi, variant in enumerate(config.variant_names()):
        mean_risk = np.array([np.mean(per_n[vi][0]) for per_n in stats])
        median_risk, median_m_hat, median_m_bound = (
            np.array([np.median(per_n[vi][k]) for per_n in stats]) for k in range(3)
        )
        _require_finite(at_n, mean_risk=mean_risk, median_risk=median_risk,
                        median_m_hat=median_m_hat, median_M_hat=median_m_bound)
        if len(grid) >= 2:
            floored = np.maximum(median_risk, _RISK_FLOOR)
            slope = fit_slope(list(zip(grid, floored)))
        else:
            slope = float("nan")
        reports.append(
            RiskReport(
                variant=variant,
                n_grid=grid,
                mean_risk=mean_risk,
                median_risk=median_risk,
                median_m_hat=median_m_hat,
                median_m_bound=median_m_bound,
                oracle_m=oracle_m,
                oracle_risk=oracle_val,
                theoretical=theoretical,
                slope=slope,
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
        f"{fmt(rep.median_m_hat[gi])},{fmt(rep.median_m_bound[gi])},"
        f"{int(rep.oracle_m[gi])},{fmt(rep.oracle_risk[gi])},{fmt(rep.theoretical[gi])}"
        for rep in reports
        for gi, n in enumerate(rep.n_grid)
    )
    write_csv(path, echo, slopes, header, rows)
