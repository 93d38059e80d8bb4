"""Seeded simulation of the circular functional linear model in coefficient space.

The regressor is never materialized as a function of t: for a Gaussian
stationary circular process the coefficient representation [X]_j =
sqrt(lambda_j) * xi_j with iid standard normal xi_j is exact, so responses

    Y_i = sum_j [slope]_j [X_i]_j + sigma * eps_i

carry no discretization bias.  Because the normalized coefficients are
standard Gaussian, every moment of [X]_j / sqrt(lambda_j) exists; in
particular the fourth moment equals 3, which is why the selection penalty
defaults to the moment constant eta = 3.

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
    SequenceSpec,
    balance_m_dagger,
    blocked_sum,
    bound_N,
    first_false,
    intrinsic_scales,
)

__all__ = [
    "SlopeSpec",
    "Sample",
    "make_slope",
    "slope_tail_bias",
    "default_truncation",
    "substream",
    "simulate",
    "covariance_kernel",
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
    over the first n_coef coefficients equals ``radius`` exactly.  The scale
    and the support are cached on the instance; ``==`` and ``hash`` still
    compare the fields only.  Nothing here holds more than one block of
    coefficients unless a caller asks for more.
    """

    seq: SequenceSpec
    radius: float
    n_coef: int

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.n_coef < 1:
            raise ValueError(f"n_coef must be >= 1, got {self.n_coef}")

    def _shape(self, start: int, stop: int) -> np.ndarray:
        return np.exp(_log_slope_shape(self, np.arange(start, stop, dtype=float)))

    @cached_property
    def support(self) -> int:
        """Number of nonzero coefficients: the profile decreases, so the values
        below the smallest normal float, which are zeroed, form its tail (an
        EP profile underflows there)."""
        return first_false(lambda lo, hi: self._shape(lo, hi) >= _TINY, 1, self.n_coef + 1) - 1

    @cached_property
    def scale(self) -> float:
        """The constant c scaling the profile onto the ellipsoid boundary: the
        norm over the support is summed in blocks as np.sum sums it."""
        def terms(lo, hi):
            log_shape = _log_slope_shape(self, np.arange(lo, hi, dtype=float))
            # gamma_j * shape_j^2 <= 1 for every regime, so the plain sum is safe
            return np.exp(self.seq.log_smoothness_weights(hi - 1, lo) + 2.0 * log_shape)

        return float(np.sqrt(self.radius / blocked_sum(terms, 1, self.support + 1)))

    def coefficients(self, start: int, stop: int) -> np.ndarray:
        """Slope coefficients [slope]_j for j = start..stop-1 (0 past the support)."""
        shape = self._shape(start, stop)
        return self.scale * np.where(shape >= _TINY, shape, 0.0)


def _log_slope_shape(spec: SlopeSpec, j: np.ndarray) -> np.ndarray:
    if spec.seq.regime == "EP":
        with np.errstate(over="ignore"):  # j^(2p) = inf is the exact limit: shape 0
            return -0.5 * j ** (2.0 * spec.seq.p) - np.log(j)
    return -(spec.seq.p + 0.5 + 1.0) * np.log(j)


def make_slope(spec: SlopeSpec) -> CoefVector:
    """Slope coefficients with gamma-weighted norm exactly radius."""
    return CoefVector(spec.coefficients(1, spec.n_coef + 1))


def slope_tail_bias(spec: SlopeSpec) -> float:
    """Tail sum_{j > n_coef} omega_j [slope]_j^2 with omega_j = j^(2s): the risk
    of the coefficients beyond the simulated truncation.

    The profile is summed in runs of 2^16 indices, each added in blocks as
    np.sum adds it.  Under PP and PE its terms are j^-x, so the first run is
    followed by the Euler-Maclaurin remainder (integral, f/2, B2 and B4 terms).
    Under EP runs are added until the last term is below 1e-19 of the total
    (relative error about 2e-13 at p = 0.1); a tail still running after 2^24
    terms raises FloatingPointError.
    """
    s, total = spec.seq.s, 0.0

    def terms(lo, hi):
        with np.errstate(over="ignore"):  # a term past float range: the tail is inf
            return np.exp(spec.seq.log_risk_weights(hi - 1, lo)
                          + 2.0 * _log_slope_shape(spec, np.arange(lo, hi, dtype=float)))

    for start in range(spec.n_coef + 1, spec.n_coef + 1 + 2**24, 2**16):
        total += blocked_sum(terms, start, start + 2**16)
        if spec.seq.regime != "EP":
            a, x = float(start + 2**16), 2.0 * (spec.seq.p + 0.5 + 1.0) - 2.0 * s
            if a**-x:  # 0 where x^3 may overflow: the remainder is 0, not inf * 0
                total += (a / (x - 1.0) + 0.5 + x / (12.0 * a)
                          - x * (x + 1.0) * (x + 2.0) / (720.0 * a**3)) * a**-x
            break
        if terms(start + 2**16 - 1, start + 2**16)[0] <= 1e-19 * total:
            break
    else:
        raise FloatingPointError(f"EP slope tail needs over 2^24 terms at p = {spec.seq.p!r}")
    return float(spec.scale ** 2 * total)


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
    """Default coefficient truncation max(N_n, 2 m_dagger_n).

    Guarantees every admissible model dimension sees genuinely simulated
    coefficients.
    """
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
    n_coef: int | None = None,
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
    n_coef : int, optional
        Number of simulated coefficients per unit; defaults to
        :func:`default_truncation`.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n_coef is None:
        n_coef = default_truncation(spec, n)
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


def covariance_kernel(spec: SequenceSpec, n_coef: int, u) -> float:
    """Stationary covariance kernel c(u) implied by the first n_coef eigenvalues.

    c(u) = lambda_1 + sum over complete cosine/sine pairs of
    2 lambda_{2k} cos(2 pi k u); defined only under enforced pairing.
    """
    if not spec.enforce_pair:
        raise ValueError("covariance kernel requires enforce_pair=True")
    u_arr = np.asarray(u, dtype=float)
    if np.any((u_arr < -1.0) | (u_arr > 1.0)):
        raise ValueError("lag u must lie in [-1, 1]")
    lam = spec.eigenvalues(n_coef)
    out = np.full_like(u_arr, lam[0], dtype=float)
    k_max = (n_coef - 1) // 2  # pairs (2k, 2k+1) fully inside 1..n_coef
    for k in range(1, k_max + 1):
        out = out + 2.0 * lam[2 * k - 1] * np.cos(2.0 * np.pi * k * u_arr)
    return float(out) if out.ndim == 0 else out


# values formatted at a time.  A chunk of 2^13 makes vectors of 64 KB and
# two gathered tables of about 0.5 MB; simulate frees larger arrays first,
# which raises glibc's mmap threshold, so all of them reuse heap memory: a
# simulate run of golden PP at n = 500, 1000 takes about 3,000 page faults.
# Chunks of 2^12 or 2^14 values were no faster (2 vCPUs, numpy 2.4.6)
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
