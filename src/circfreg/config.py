"""Flat key-value run configuration: parsing, validation, config echo.

The configuration format is one ``key = value`` assignment per line, ``#``
comments allowed, no nesting.  Unknown keys are errors (never silently
ignored), and every violated constraint is reported with its field name and
bound.  The echo that heads every output CSV, ``config_echo(cfg)``, holds
every key as ``key=value``; one such pair per line parses back to ``cfg``
exactly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .sequences import SequenceSpec, regime_violations

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_echo"]

_VARIANTS = ("known", "data_driven", "both")

# grid defaults keep desk-scale runtimes of minutes
_DEFAULT_GRID = {
    "PP": (250, 500, 1000, 2000, 4000),
    "EP": (250, 500, 1000, 2000, 4000),
    "PE": (500, 2000, 8000),
}
_N_MAX = 10**8  # largest n and j_max; ROADMAP item 19 raises it for n
# No plan is sized by n: a plan holds its window J, which cli._check_draws bounds.
# The bound keeps n within the sizes whose draws are tested, and the noise sum to j_max short.


class ConfigError(ValueError):
    """Invalid configuration; ``messages`` lists every violation."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration: every key that changes a result, no other."""

    regime: str
    a: float
    p: float
    s: float
    sigma: float
    rho: float
    seed: int
    n_grid: tuple | None = None
    replications: int = 200
    variant: str = "data_driven"
    pen_const_known: float = 192.0
    pen_const_unknown: float = 1920.0
    j_max: int | None = None

    def __post_init__(self):
        if self.n_grid is None:
            object.__setattr__(self, "n_grid", _DEFAULT_GRID.get(self.regime, ()))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        errors = [
            f"{key}: must be finite, got {getattr(self, key)}"
            for key in _FLOAT_FIELDS
            if not math.isfinite(getattr(self, key))
        ]
        errors += regime_violations(self.regime, self.a, self.p, self.s)
        if self.sigma < 0.0:
            errors.append(f"sigma: must satisfy sigma >= 0, got {self.sigma}")
        if not self.rho > 0.0:
            errors.append(f"rho: must satisfy rho > 0, got {self.rho}")
        if len(self.n_grid) < 1:
            errors.append("n_grid: must contain at least one sample size")
        if any(not 2 <= n <= _N_MAX for n in self.n_grid):
            errors.append(f"n_grid: every entry must satisfy n >= 2 and n <= {_N_MAX}, "
                          f"got {self.n_grid}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            errors.append(f"n_grid: entries must be strictly increasing, got {self.n_grid}")
        if self.replications < 1:
            errors.append(f"replications: must satisfy replications >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            errors.append(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if self.variant not in _VARIANTS:
            errors.append(f"variant: must be one of {', '.join(_VARIANTS)}, got {self.variant!r}")
        if not self.pen_const_known > 0.0:
            errors.append(f"pen_const_known: must be > 0, got {self.pen_const_known}")
        if not self.pen_const_unknown > 0.0:
            errors.append(f"pen_const_unknown: must be > 0, got {self.pen_const_unknown}")
        if self.j_max is not None and not 1 <= self.j_max <= _N_MAX:
            errors.append(f"j_max: must satisfy 1 <= j_max <= {_N_MAX} if given, got {self.j_max}")
        if errors:
            raise ConfigError(errors)

    @property
    def noise_var(self) -> float:  # sigma^2, an OverflowError naming sigma past float range
        try:
            return self.sigma**2
        except OverflowError:
            raise OverflowError(f"sigma**2 overflows at sigma = {self.sigma!r}") from None

    def sequence_spec(self) -> SequenceSpec:
        return SequenceSpec(self.regime, a=self.a, p=self.p, s=self.s, enforce_pair=True)

    def variant_names(self) -> tuple:
        if self.variant == "both":
            return ("known_degree", "data_driven")
        return ("known_degree",) if self.variant == "known" else ("data_driven",)


# every key in document order, with its annotation as a string ("float",
# "int | None", ...), since this module defers annotations
_TYPES = {field.name: field.type for field in fields(RunConfig)}
_REQUIRED = tuple(field.name for field in fields(RunConfig) if field.default is MISSING)
_FLOAT_FIELDS = tuple(key for key, kind in _TYPES.items() if kind == "float")


def _parse_raw(text: str) -> dict:
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _TYPES:
            errors.append(f"line {lineno}: unknown key {key!r}")
        elif key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        else:
            raw[key] = value
    if errors:
        raise ConfigError(errors)
    return raw


_PARSERS = {"str": str, "int": int, "float": float}


def _convert(key: str, value: str):
    if key == "n_grid":
        return tuple(int(part.strip()) for part in value.split(",") if part.strip())
    # only j_max takes none: n_grid is None only until its regime default fills it in
    if key == "j_max" and value.lower() == "none":
        return None
    return _PARSERS[_TYPES[key].removesuffix(" | None")](value)


def build_config(raw: dict) -> RunConfig:
    """Build and validate a RunConfig from a raw string map."""
    errors = [f"{key}: missing required key" for key in _REQUIRED if key not in raw]
    kwargs = {}
    for key, value in raw.items():
        if key not in _TYPES:
            errors.append(f"unknown key {key!r}")
            continue
        try:
            kwargs[key] = _convert(key, value)
        except ValueError as exc:
            errors.append(f"{key}: cannot parse {value!r} ({exc})")
    if errors:
        raise ConfigError(errors)
    return RunConfig(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; raises ConfigError listing violations."""
    return build_config(_parse_raw(text))


def _format(key: str, value) -> str:
    if key == "n_grid":
        return ",".join(str(n) for n in value)
    if key == "j_max" and value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def config_echo(cfg: RunConfig) -> str:
    """One-line config echo embedded in every output CSV."""
    return " ".join(f"{key}={_format(key, getattr(cfg, key))}" for key in _TYPES)


def write_csv(path, echo: str, meta: str, header: str, rows) -> None:
    """Write the '# echo | meta' comment line, the header and one line per row
    string; the separator appears only when both echo and meta are nonempty."""
    comment = " | ".join(part for part in (echo, meta) if part)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n{header}\n")
        fh.writelines(row + "\n" for row in rows)
