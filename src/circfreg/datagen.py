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
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .basis import CoefVector
from .config import write_csv
from .sequences import SequenceSpec, balance_m_dagger, bound_N, intrinsic_scales

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


@dataclass(frozen=True)
class SlopeSpec:
    """Recipe for a slope function lying exactly on the smoothness ellipsoid.

    The coefficient profile decays like j^-(p + 3/2) under PP and PE
    (exp(-j^(2p)/2)/j under EP), scaled so the gamma-weighted squared norm
    over the first n_coef coefficients equals ``radius`` exactly.
    """

    seq: SequenceSpec
    radius: float
    n_coef: int

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.n_coef < 1:
            raise ValueError(f"n_coef must be >= 1, got {self.n_coef}")


def _log_slope_shape(spec: SlopeSpec, j: np.ndarray) -> np.ndarray:
    if spec.seq.regime == "EP":
        with np.errstate(over="ignore"):  # j^(2p) = inf is the exact limit: shape 0
            return -0.5 * j ** (2.0 * spec.seq.p) - np.log(j)
    return -(spec.seq.p + 0.5 + 1.0) * np.log(j)


def _slope_support(log_shape: np.ndarray) -> np.ndarray:
    # normal floats only: subnormal tail values carry too much quantization
    # error for the exact ellipsoid normalization, so they are zeroed instead
    return np.exp(log_shape) >= np.finfo(float).tiny


def slope_scale(spec: SlopeSpec) -> float:
    """Normalization constant c putting the slope on the ellipsoid boundary.

    Normalizes over the float-representable support; an EP profile underflows
    in the far tail and those coordinates are excluded from the realized norm.
    """
    log_shape = _log_slope_shape(spec, np.arange(1, spec.n_coef + 1, dtype=float))
    mask = _slope_support(log_shape)
    log_gamma = spec.seq.log_smoothness_weights(spec.n_coef)
    # gamma_j * shape_j^2 <= 1 for every regime, so the plain sum is safe
    norm = float(np.sum(np.exp(log_gamma[mask] + 2.0 * log_shape[mask])))
    return float(np.sqrt(spec.radius / norm))


def make_slope(spec: SlopeSpec) -> CoefVector:
    """Construct slope coefficients with gamma-weighted norm exactly radius."""
    log_shape = _log_slope_shape(spec, np.arange(1, spec.n_coef + 1, dtype=float))
    coefs = np.where(_slope_support(log_shape), np.exp(log_shape), 0.0)
    return CoefVector(slope_scale(spec) * coefs)


def slope_tail_bias(spec: SlopeSpec) -> float:
    """Tail sum_{j > n_coef} omega_j [slope]_j^2 with omega_j = j^(2s): the risk
    of the coefficients beyond the simulated truncation.

    The profile is summed in blocks of 2^16 indices.  Under PP and PE its terms
    are j^-x, so the first block is followed by the Euler-Maclaurin remainder
    (integral, f/2, B2 and B4 terms).  Under EP blocks are added until the last
    term is below 1e-19 of the total (relative error about 2e-13 at p = 0.1); a
    tail still running after 2^24 terms raises FloatingPointError.
    """
    s, total = spec.seq.s, 0.0
    for start in range(spec.n_coef + 1, spec.n_coef + 1 + 2**24, 2**16):
        j = np.arange(start, start + 2**16, dtype=float)
        terms = np.exp(2.0 * s * np.log(j) + 2.0 * _log_slope_shape(spec, j))
        total += float(np.sum(terms))
        if spec.seq.regime != "EP":
            a, x = float(start + 2**16), 2.0 * (spec.seq.p + 0.5 + 1.0) - 2.0 * s
            total += (a / (x - 1.0) + 0.5 + x / (12.0 * a)
                      - x * (x + 1.0) * (x + 2.0) / (720.0 * a**3)) * a**-x
            break
        if terms[-1] <= 1e-19 * total:
            break
    else:
        raise FloatingPointError(f"EP slope tail needs over 2^24 terms at p = {spec.seq.p!r}")
    return float(slope_scale(spec) ** 2 * total)


@dataclass(frozen=True)
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
    """Default coefficient truncation: max(N_n, 2 m_dagger).

    Guarantees every admissible model dimension sees genuinely simulated
    coefficients.
    """
    scales = intrinsic_scales(spec, n)
    return max(bound_N(spec, n), 2 * balance_m_dagger(spec, scales, n))


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


# (y, xcoef) of the sample being written, held under _rows_lock; pool workers
# read it from the memory they inherit through fork, so no array is pickled
_rows = None
_rows_lock = threading.Lock()

# values formatted per block: large enough to amortize a pool round trip, small
# enough that the blocks in flight stay a few MB
_BLOCK_VALUES = 2**16


def _format_rows(bounds) -> str:
    """Rows a..b-1 of the sample being written, newline-separated."""
    a, b = bounds
    y, xcoef = _rows
    block = np.column_stack((y[a:b], xcoef[a:b])).tolist()
    return "\n".join(",".join(map(repr, row)) for row in block)


def write_sample_csv(sample: Sample, path, echo: str = "") -> None:
    """Write one row per unit: Y, X_1..X_J, after a single comment line.

    Blocks of rows are formatted on every CPU the process may run on and
    written in order, so the bytes do not depend on the CPU count.
    """
    global _rows
    meta = (
        f"n={sample.n} n_coef={sample.n_coef} sigma={sample.sigma!r} "
        f"seed={sample.seed} replicate={sample.replicate}"
    )
    header = "y," + ",".join(f"x_{j}" for j in range(1, sample.n_coef + 1))
    step = max(1, _BLOCK_VALUES // (sample.n_coef + 1))
    blocks = [(a, min(a + step, sample.n)) for a in range(0, sample.n, step)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(blocks))
    with _rows_lock:
        _rows = (sample.y, sample.xcoef)
        try:
            if workers < 2:
                write_csv(path, echo, meta, header, map(_format_rows, blocks))
            else:
                # imported here, so that mc-risk and estimate never load it; fork,
                # not spawn, since workers only format inherited arrays, and spawn
                # would import numpy again in each of them and pickle the sample
                import multiprocessing

                with multiprocessing.get_context("fork").Pool(workers) as pool:
                    write_csv(path, echo, meta, header, pool.imap(_format_rows, blocks))
        finally:
            _rows = None
