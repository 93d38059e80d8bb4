"""Seeded simulation of the circular functional linear model in coefficient space.

The regressor is never materialized as a function of t: for a Gaussian
stationary circular process the coefficient representation [X]_j =
sqrt(lambda_j) * xi_j with iid standard normal xi_j is exact, so responses

    Y_i = sum_j [slope]_j [X_i]_j + sigma * eps_i

carry no discretization bias.  Because the normalized coefficients are
standard Gaussian, every moment of [X]_j / sqrt(lambda_j) exists; in
particular the fourth moment equals 3, the moment constant eta of the
selection penalty (``circfreg.estimator.ETA``).

All draws come from a counter-based Philox generator keyed by
(seed, replicate); within a sample the counter space is laid out row-major,
so each unit i owns one contiguous block of draws (its regressor
coefficients followed by its noise variable).  Two calls with identical
arguments therefore produce bit-identical samples.

:func:`simulate` is the per-unit reference.  The experiment harness
(:func:`circfreg.risk.replicate_moments`) draws the sample moments directly,
with the same law and the same (seed, n, r) key but other realized draws.

:func:`write_sample_csv` writes a sample with every value exactly as
``repr`` prints it.  The formatting is a vectorized kernel,
:mod:`circfreg.floatfmt`, which only that writer imports; it formats and
writes in the calling process and starts no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import CoefVector
from .config import write_csv
from .sequences import (  # intrinsic_scales: for perfbench/traced_cli.py
    INDEX_MAX,
    SequenceSpec,
    balance_m_dagger,
    bound_N,
    first_false,
    intrinsic_scales,
    series_sum,
)

__all__ = [
    "SlopeSpec",
    "Sample",
    "make_slope",
    "slope_tail_bias",
    "default_truncation",
    "substream",
    "simulate",
    "write_sample_csv",
]


# smallest normal float: subnormal profile values carry too much quantization
# error for the exact ellipsoid normalization, so they are zeroed instead
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SlopeSpec:
    """Recipe for a slope function lying exactly on the smoothness ellipsoid.

    The coefficient profile decays like j^-(p + 3/2) under PP and PE
    (exp(-j^(2p)/2)/j under EP), scaled so the gamma-weighted squared norm
    over its whole support equals ``radius``: gamma_j shape_j^2 is j^-3 (PP,
    PE) or e^-1 j^-2 (EP), one power series.  The slope has no length: it is
    read through :meth:`coefficients`, :meth:`tail` and :meth:`folded`, and
    truncated by the caller's n_coef.  Its scale and support are cached on
    the instance; ``==`` and ``hash`` still compare the fields only.  Nothing
    here holds more than one block of coefficients unless a caller asks.
    """

    seq: SequenceSpec
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    def _shape(self, start: int, stop: int) -> np.ndarray:
        return np.exp(_log_slope_shape(self, np.arange(start, stop, dtype=float)))

    @cached_property
    def support(self) -> int:
        """Number of nonzero coefficients, at most 2^53 - 1: the profile
        decreases, so the values below the smallest normal float, which are
        zeroed, form its tail (an EP profile underflows there)."""
        return first_false(lambda lo, hi: self._shape(lo, hi) >= _TINY, 1, INDEX_MAX) - 1

    @cached_property
    def scale(self) -> float:
        """The constant c scaling the profile onto the ellipsoid boundary:
        radius over the norm summed over the whole support."""
        x, const = (2.0, np.exp(-1.0)) if self.seq.regime == "EP" else (3.0, 1.0)
        norm = series_sum(lambda lo, hi: const * np.arange(lo, hi, dtype=float) ** -x,
                          1, self.support + 1, x)
        scale = float(np.sqrt(self.radius / norm))
        if scale == np.inf:
            raise OverflowError(f"slope scale overflows at rho = {self.radius!r}")
        return scale

    def coefficients(self, start: int, stop: int) -> np.ndarray:
        """Slope coefficients [slope]_j for j = start..stop-1 (0 past the support)."""
        shape = self._shape(start, stop)
        return self.scale * np.where(shape >= _TINY, shape, 0.0)

    def _series(self, log_weights, k, start: int, stop=None, paired=False) -> float:
        """sum_{start <= j < stop} (to infinity if stop is None) of w_j [slope]_j^2,
        0 past the support, from terms in log space, log_weights(hi, lo) giving
        log w_j for j = lo..hi.  Under PP and PE, where w_j = j^k, the terms are
        j^-x with x = 2(p + 3/2) - k, one power series, whose remainder is paired
        (y = 2(p + 3/2)) for ``paired`` eigenvalues with no stop; else the sum
        runs to its early stop, within 2^24 terms."""
        def terms(lo, hi):
            log_shape = _log_slope_shape(self, np.arange(lo, hi, dtype=float))
            # a term past float range: the sum is inf; inf - inf where the shape is 0
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.exp(log_weights(hi - 1, lo) + 2.0 * log_shape)
            return np.where(np.exp(log_shape) >= _TINY, values, 0.0)

        seq = self.seq
        power = seq.regime != "EP" and k is not None and not (paired and stop)
        x = 2.0 * (seq.p + 1.5) - k if power else None
        y = 2.0 * (seq.p + 1.5) if power and paired else None
        try:
            total = series_sum(terms, start, stop, x, y)
        except FloatingPointError:  # the tail and the folded noise are both tails past J
            message = f"EP slope tail needs over 2^24 terms at p = {seq.p!r}"
            raise FloatingPointError(message) from None
        return float(self.scale ** 2 * total)

    def tail(self, start: int) -> float:
        """sum_{j >= start} omega_j [slope]_j^2, omega_j = j^(2s)."""
        return self._series(self.seq.log_risk_weights, 2.0 * self.seq.s, start)

    def folded(self, start: int, stop: int | None = None) -> float:
        """sum_{start <= j < stop} lambda_j [slope]_j^2: the noise a plan folds into tau."""
        k = None if self.seq.regime == "PE" else -2.0 * self.seq.a  # PP, EP: lambda_j = j^-2a
        return self._series(self.seq.log_eigenvalues, k, start, stop, self.seq.enforce_pair)


def _log_slope_shape(spec: SlopeSpec, j: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # j^(2p) or (p + 3/2) log j = inf: the shape is 0
        if spec.seq.regime == "EP":
            return -0.5 * j ** (2.0 * spec.seq.p) - np.log(j)
        return -(spec.seq.p + 0.5 + 1.0) * np.log(j)


def make_slope(spec: SlopeSpec, n_coef: int) -> CoefVector:
    """Slope coefficients 1..n_coef of a slope on the ellipsoid boundary."""
    return CoefVector(spec.coefficients(1, n_coef + 1))


def slope_tail_bias(spec: SlopeSpec, n_coef: int) -> float:
    """Tail sum_{j > n_coef} omega_j [slope]_j^2 with omega_j = j^(2s): the risk
    of the coefficients beyond the simulated truncation (:meth:`SlopeSpec.tail`)."""
    return spec.tail(n_coef + 1)


@dataclass(frozen=True, eq=False)
class Sample:
    """n observations of the model in coefficient space."""

    y: np.ndarray        # responses, shape (n,)
    xcoef: np.ndarray    # regressor coefficients [X_i]_j, shape (n, n_coef)
    sigma: float
    seed: int
    replicate: int | tuple = 0

    @property
    def n(self) -> int:
        return int(self.y.size)

    @property
    def n_coef(self) -> int:
        return int(self.xcoef.shape[1])


def default_truncation(spec: SequenceSpec, n: int) -> int:
    """Truncation of the ``simulate`` command without j_max, max(N_n, 2 m_dagger_n):
    every admissible model dimension sees genuinely simulated coefficients."""
    return max(bound_N(spec, n), 2 * balance_m_dagger(spec, n))


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, *keys)."""
    entropy = (int(seed),) + tuple(int(k) for k in keys)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def simulate(
    spec: SequenceSpec,
    slope: CoefVector,
    n: int,
    sigma: float,
    seed: int,
    replicate: int = 0,
    *, n_coef: int,
) -> Sample:
    """Draw a sample of the circular functional linear model.

    Parameters
    ----------
    spec : SequenceSpec
        Supplies the eigenvalue sequence of the regressor covariance.
    slope : CoefVector
        True slope coefficients; must not exceed the simulated truncation.
    n : int
        Sample size, at least 2.
    sigma : float
        Noise level, sigma >= 0 (0 enables noiseless checks).
    seed, replicate : int
        Key of the Philox substream; identical keys give bit-identical output.
        ``replicate`` may also be a tuple of ints (e.g. the (n, r) key used by
        the experiment harness).
    n_coef : int
        Number of simulated coefficients per unit (keyword only); the
        ``simulate`` command passes ``j_max`` or :func:`default_truncation`.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if len(slope) > n_coef:
        raise ValueError(
            f"slope has {len(slope)} coefficients but only {n_coef} are simulated"
        )
    rep_keys = tuple(replicate) if isinstance(replicate, (tuple, list)) else (replicate,)
    rng = substream(seed, *rep_keys)
    scale = np.sqrt(spec.eigenvalues(n_coef))
    draws = rng.standard_normal((n, n_coef + 1))
    x = draws[:, :n_coef]
    x *= scale
    noise = draws[:, n_coef]
    y = np.einsum("ij,j->i", x[:, : len(slope)], slope.coefs) + sigma * noise
    replicate_key = rep_keys[0] if len(rep_keys) == 1 else rep_keys
    return Sample(y=y, xcoef=x, sigma=float(sigma), seed=int(seed), replicate=replicate_key)


# values formatted at a time.  A chunk of 2^13 makes vectors of 64 KB and
# two gathered tables of about 0.5 MB.  Until a larger array is freed, which
# raises glibc's mmap threshold, such tables are mapped afresh: a simulate run
# of golden PP at n = 500, 1000 took 5,100 minor page faults, 3,250 of them on
# the n = 500 sample's 32 chunks and 530 on n = 1000's 125.  Chunks of 2^12
# or 2^14 values were no faster (2 vCPUs, numpy 2.4.6)
_CHUNK_VALUES = 2**13


def write_sample_csv(sample: Sample, path, echo: str = "") -> None:
    """Write one row per unit: Y, X_1..X_J, after a single comment line.

    Every value is written as ``repr`` writes it, by the vectorized kernel
    :func:`circfreg.floatfmt.format_rows`, in this process: rows are formatted
    a chunk of about 2^13 values at a time and each chunk is written before
    the next is formatted.
    """
    # imported here, so that mc-risk, estimate and rates never load it
    from .floatfmt import format_rows

    meta = (
        f"n={sample.n} n_coef={sample.n_coef} sigma={sample.sigma!r} "
        f"seed={sample.seed} replicate={sample.replicate}"
    )
    header = "y," + ",".join(f"x_{j}" for j in range(1, sample.n_coef + 1))
    y, xcoef = sample.y, sample.xcoef
    step = max(1, _CHUNK_VALUES // (sample.n_coef + 1))
    chunks = (format_rows(np.column_stack((y[a:a + step], xcoef[a:a + step])))
              for a in range(0, sample.n, step))
    write_csv(path, echo, meta, header, chunks)
