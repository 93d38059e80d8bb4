"""Adaptive orthogonal-series estimation for circular functional linear
regression, with a seeded Monte Carlo harness verifying its convergence-rate
behavior.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

__version__ = "0.9.0"

from . import basis, config, datagen, estimator, risk, sequences

_MODULES = (basis, sequences, config, datagen, estimator, risk)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
globals().update((name, getattr(module, name)) for module in _MODULES for name in module.__all__)
del _MODULES
