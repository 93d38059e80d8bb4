"""Thresholded series estimator, contrast, penalties and model selection.

The orthogonal-series estimator replaces each ratio [g]_j / lambda_j by
ghat_j / lhat_j, zeroing every coordinate whose estimated eigenvalue falls
below 1/n.  Model dimensions are selected by minimizing the computable
contrast plus a penalty proportional to an effective dimension: delta_m/n
with known eigenvalue decay, or its plug-in estimate dhat_m/n computed from
the lhat_j alone.  The data-driven selector deliberately takes nothing but
the sample moments and the risk weights, so it cannot peek at the true
degree of ill-posedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import CoefVector, _weighted
from .config import RunConfig, write_csv
from .sequences import PenaltyScales, delta_factor, weight_cap

__all__ = [
    "SampleMoments",
    "SelectionTrace",
    "moments",
    "estimate_beta",
    "contrast",
    "contrast_curve",
    "penalty_known",
    "estimated_scale_curves",
    "bound_M_hat",
    "select_known",
    "select_data_driven",
    "write_trace_csv",
]

# the fourth moment of a standard normal, that of the normalized regressor
# coordinates under the Gaussian design (circfreg.datagen)
ETA = 3.0

@dataclass(frozen=True, eq=False)
class SampleMoments:
    """Empirical cross-moments of a sample.

    ghat_j = (1/n) sum_i Y_i [X_i]_j, lhat_j = (1/n) sum_i [X_i]_j^2 and
    sigma_y2 is the empirical second moment of Y (uncentered, matching the
    mean-zero model).
    """

    ghat: np.ndarray
    lhat: np.ndarray
    sigma_y2: float
    n: int

    @property
    def n_coef(self) -> int:
        return int(self.ghat.size)

    @cached_property
    def bhat(self) -> np.ndarray:
        """The thresholded estimate ghat_j / lhat_j 1{lhat_j >= 1/n} of every
        coordinate, formed on first read; read-only."""
        bhat = _thresholded_ratio(self, self.ghat)
        bhat.flags.writeable = False
        return bhat


def moments(sample) -> SampleMoments:
    """Empirical moments of a Sample."""
    n = sample.n
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    y, x = sample.y, sample.xcoef
    g = np.einsum("i,ij->j", y, x)
    l = np.einsum("ij,ij->j", x, x)
    sigma_y2 = float(np.einsum("i,i->", y, y)) / n
    return SampleMoments(ghat=g / n, lhat=l / n, sigma_y2=sigma_y2, n=n)


def _check_dim(mom: SampleMoments, m: int):
    if not 1 <= m <= mom.n_coef:
        raise ValueError(f"model dimension {m} outside 1..{mom.n_coef}")


def _thresholded_ratio(mom: SampleMoments, numer: np.ndarray) -> np.ndarray:
    """numer_j / lhat_j 1{lhat_j >= 1/n} for j = 1..len(numer)."""
    m = numer.size
    alive = mom.lhat[:m] >= 1.0 / mom.n
    ratio = np.zeros(m)
    ratio[alive] = numer[alive] / mom.lhat[:m][alive]
    return ratio


def estimate_beta(mom: SampleMoments, m: int) -> CoefVector:
    """Series estimator coefficients for model dimension m (length m)."""
    _check_dim(mom, m)
    return CoefVector(mom.bhat[:m])


def contrast_curve(mom: SampleMoments, w, m_max: int) -> np.ndarray:
    """Contrast values for every m = 1..m_max (non-increasing in m)."""
    _check_dim(mom, m_max)
    weights = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):  # a contrast past float range makes replicate_traces exit 3
        return -np.cumsum(_weighted(weights[:m_max], mom.bhat[:m_max] ** 2))


def contrast(mom: SampleMoments, w, m: int) -> float:
    """Computable contrast -sum_{j<=m} w_j ghat_j^2/lhat_j^2 1{lhat_j >= 1/n}."""
    return float(contrast_curve(mom, w, m)[m - 1])


def _penalty(const, sigma_y2, delta, n):
    """The penalty const * sigma_Y^2 * ETA * delta_m / n (elementwise in delta)."""
    with np.errstate(over="ignore"):  # an inf penalty makes replicate_traces exit 3
        return const * sigma_y2 * ETA * delta / n


def penalty_known(
    scales: PenaltyScales, sigma_y2: float, n: int, m: int,
    const: float = RunConfig.pen_const_known,
) -> float:
    """Penalty const * sigma_Y^2 * ETA * delta_m / n with known scales."""
    if not 1 <= m <= len(scales):
        raise ValueError(f"dimension m = {m} must lie in 1..{len(scales)}, the scales' length")
    with np.errstate(over="ignore"):  # delta_m past float range is inf
        return float(_penalty(const, sigma_y2, np.exp(scales.log_delta[m - 1]), n))


def estimated_scale_curves(mom: SampleMoments, w, m_max: int):
    """Plug-in scale sequences (Delta_hat, kappa_hat, delta_hat) for m = 1..m_max.

    Thresholded coordinates contribute 0 to the running maxima; if every
    coordinate is dead all three values are 0.
    """
    _check_dim(mom, m_max)
    weights = np.asarray(w, dtype=float)[:m_max]
    Delta_hat = np.maximum.accumulate(_thresholded_ratio(mom, weights))
    kappa_hat = np.maximum.accumulate(_thresholded_ratio(mom, np.maximum(weights, 1.0)))
    with np.errstate(divide="ignore"):
        factor = delta_factor(np.log(kappa_hat))
    delta_hat = np.arange(1, m_max + 1, dtype=float) * Delta_hat * factor
    return Delta_hat, kappa_hat, delta_hat


def bound_M_hat(mom: SampleMoments, w) -> int:
    """Random admissible-model bound.

    Largest M below the weight cap N with lhat_M / (M max(w_M, 1)) >= log(n)/n;
    falls back to 1 when no index qualifies.  Uses only quantities computable
    from the sample and the risk weights.
    """
    n = mom.n
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    weights = np.asarray(w, dtype=float)
    cap = weight_cap(weights[: min(n, mom.n_coef)], n)
    m = np.arange(1, cap + 1, dtype=float)
    cond = mom.lhat[:cap] / (m * np.maximum(weights[:cap], 1.0)) >= np.log(n) / n
    ok = np.nonzero(cond)[0]
    return int(ok[-1]) + 1 if ok.size else 1


@dataclass(frozen=True, eq=False)
class SelectionTrace:
    """Per-dimension audit record of one model-selection run; its penalty is
    pen_const * sigma_y2 * ETA * delta_used / n, ETA fixed by the Gaussian design."""

    variant: str
    admissible_max: int
    contrast: np.ndarray
    penalty: np.ndarray
    delta_used: np.ndarray
    m_hat: int
    pen_const: float


def _select(variant: str, mom: SampleMoments, w, m_max: int, delta: np.ndarray,
            pen_const: float) -> SelectionTrace:
    """Minimize contrast + pen_const sigma_y2 ETA delta_m / n over m = 1..m_max."""
    crv = contrast_curve(mom, w, m_max)
    pen = _penalty(pen_const, mom.sigma_y2, delta, mom.n)
    with np.errstate(invalid="ignore"):  # -inf + inf, which makes replicate_traces exit 3
        m_hat = int(np.argmin(crv + pen)) + 1  # first minimum = smallest m
    return SelectionTrace(
        variant=variant, admissible_max=m_max, contrast=crv, penalty=pen,
        delta_used=delta, m_hat=m_hat, pen_const=float(pen_const),
    )


def select_known(mom: SampleMoments, w, scales: PenaltyScales, *,
                 pen_const: float = RunConfig.pen_const_known) -> SelectionTrace:
    """Penalized-contrast selection over m = 1..len(scales) with known scales:
    the scales carry the admissible bound."""
    with np.errstate(over="ignore"):  # an inf delta_m makes replicate_traces exit 3
        delta = np.exp(scales.log_delta)
    return _select("known_degree", mom, w, len(scales), delta, pen_const)


def select_data_driven(mom: SampleMoments, w,
                       pen_const: float = RunConfig.pen_const_unknown) -> SelectionTrace:
    """Fully data-driven selection: random bound, random penalty.

    Takes only the sample moments and the risk weights; neither the eigenvalue
    nor the smoothness sequence enters.
    """
    m_max = bound_M_hat(mom, w)
    _, _, delta_hat = estimated_scale_curves(mom, w, m_max)
    return _select("data_driven", mom, w, m_max, delta_hat, pen_const)


def write_trace_csv(trace: SelectionTrace, path, echo: str = "") -> None:
    """Serialize a SelectionTrace, one row per candidate dimension."""
    meta = (
        f"variant={trace.variant} admissible_max={trace.admissible_max} "
        f"m_hat={trace.m_hat} pen_const={trace.pen_const!r}"
    )
    rows = (
        f"{i + 1},{float(trace.contrast[i])!r},{float(trace.penalty[i])!r},"
        f"{float(trace.delta_used[i])!r},1,{int(i + 1 == trace.m_hat)}"
        for i in range(trace.admissible_max)
    )
    write_csv(path, echo, meta, "m,contrast,penalty,delta_used,admissible,chosen", rows)
