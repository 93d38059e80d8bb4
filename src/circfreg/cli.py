"""Command-line harness: simulate / estimate / mc-risk / rates.

Exit codes: 0 on success, 2 on configuration errors (including unwritable
output directories) and on running out of memory, 3 on numeric failures
(overflow, non-finite results).
Every output CSV starts with a single comment line echoing the full
configuration and artifact version.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, build_config, config_echo, write_csv, _parse_raw
from .datagen import SlopeSpec, default_truncation, make_slope, simulate, write_sample_csv
# replicate_moments, select_data_driven and select_known: for perfbench/traced_cli.py
from .estimator import estimate_beta, select_data_driven, select_known, write_trace_csv
from .risk import (
    NumericError,
    experiment_plans,
    replicate_moments,
    replicate_traces,
    run_experiment,
    write_risk_csv,
)
from .sequences import (
    balance_m_dagger,
    balance_m_star,
    bound_M,
    bound_N,
    scale_blocks,
    theoretical_rate_or_nan,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circfreg",
        description="Adaptive series estimation for circular functional regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "write one simulated sample CSV per grid size",
        "estimate": "write selection traces and estimated coefficients",
        "mc-risk": "run the replicated Monte Carlo risk experiment",
        "rates": "tabulate deterministic bounds, balancing indices and rates",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--out", default=".", type=Path,
                         help="output directory, made if missing (default: the current one)")
        if name == "mc-risk":
            cmd.add_argument("--workers", type=int, default=1,
                             help="ignored: replicates always run in one process")
        cmd.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="config override applied after the file is parsed (repeatable)",
        )
    return parser


def _load_config(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file: {exc}"])
    raw = _parse_raw(text)
    for item in args.override:
        if "=" not in item:
            raise ConfigError([f"override must look like KEY=VALUE, got {item!r}"])
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    return build_config(raw)


def _prepare_out_dir(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory is not writable: {out}")


# largest CSV a command writes, and mc-risk's replicate array, in values: a
# 2^24-value sample is about 350 MB, the array 128 MiB
_MAX_VALUES = 2**24
# most CSV files estimate writes, a trace and a betahat per (n, variant, replicate)
_MAX_FILES = 2**16
# most normals mc-risk or estimate draws, about (J+1)^2/2 per replicate at
# alive window J: about 30 s of draws on one core (numpy 2.4, 2 vCPUs)
_MAX_NORMALS = 2**30
# most values of one replicate's Bartlett factor: 1 GiB, about 1.6 GiB with the
# mask and the normals that fill it
_MAX_FACTOR = 2**27


def _check_size(tables) -> None:
    """Refuse every (values, name) table over the budget, before any output is made."""
    too_large = [f"{name} is {values} values, over the 2^24 budget"
                 for values, name in tables if values > _MAX_VALUES]
    if too_large:
        raise ConfigError(too_large)


def _check_draws(command: str, cfg, plans) -> None:
    """Refuse a replicate factor over the factor budget at any n, and a run's
    draws over the normals budget, before any replicate runs or output is made."""
    messages = []
    for plan in plans:
        rows, cols = plan.factor_shape
        if rows * cols > _MAX_FACTOR:
            messages.append(f"{command}: n = {plan.n} draws a {rows} x {cols} Bartlett factor "
                            f"of {rows * cols} values, over the 2^27 budget")
    # a replicate draws the entries below the diagonal of its factor
    normals = cfg.replications * sum(plan.factor_shape[0] ** 2 // 2 for plan in plans)
    if normals > _MAX_NORMALS:
        messages.append(f"{command}: replications = {cfg.replications} draws about {normals} "
                        "normals over the n_grid, over the 2^30 budget")
    if messages:
        raise ConfigError(messages)


def _cmd_simulate(cfg, echo: str, out: Path) -> None:
    cfg.noise_var  # an overflowing sigma**2 exits 3 here, as in mc-risk and estimate
    seq = cfg.sequence_spec()
    truncations = [(n, cfg.j_max or default_truncation(seq, n)) for n in cfg.n_grid]
    _check_size((n * (n_coef + 1), f"simulate: n = {n} with n_coef = {n_coef}")
                for n, n_coef in truncations)
    _prepare_out_dir(out)
    slope = SlopeSpec(seq, cfg.rho)
    for n, n_coef in truncations:
        sample = simulate(seq, make_slope(slope, n_coef), n, cfg.sigma, cfg.seed,
                          replicate=(n, 0), n_coef=n_coef)
        write_sample_csv(sample, out / f"sample_n{n}.csv", echo)


def _cmd_estimate(cfg, echo: str, out: Path) -> None:
    files = 2 * len(cfg.n_grid) * len(cfg.variant_names()) * cfg.replications
    if files > _MAX_FILES:
        raise ConfigError([f"estimate: replications = {cfg.replications} writes {files} "
                           "files, over the 2^16 budget"])
    plans = experiment_plans(cfg)
    _check_draws("estimate", cfg, plans)
    _prepare_out_dir(out)
    for plan in plans:
        for r in range(cfg.replications):
            mom, traces = replicate_traces(plan, r)
            for trace in traces:
                coefs = estimate_beta(mom, trace.m_hat).coefs
                stem = f"{trace.variant}_n{plan.n}_r{r}"
                write_trace_csv(trace, out / f"trace_{stem}.csv", echo)
                rows = (f"{j},{float(v)!r}" for j, v in enumerate(coefs, start=1))
                meta = f"variant={trace.variant} n={plan.n} r={r}"
                write_csv(out / f"betahat_{stem}.csv", echo, meta, "j,coef", rows)


def _cmd_mc_risk(cfg, echo: str, out: Path) -> None:
    # run_experiment holds a risk, m_hat and M_hat per (n, variant, replicate)
    pairs = len(cfg.n_grid) * len(cfg.variant_names())
    _check_size([(3 * pairs * cfg.replications, f"mc-risk: replications = {cfg.replications} "
                  f"over {pairs} (n, variant) pairs: the replicate array")])
    plans = experiment_plans(cfg)
    _check_draws("mc-risk", cfg, plans)
    _prepare_out_dir(out)
    reports = run_experiment(cfg, plans=plans)
    write_risk_csv(reports, out / "risk_report.csv", echo)


def _exp_scales(block) -> np.ndarray:
    """Rows (delta_m, Delta_m, kappa_m) of a block of log scales, inf past float range."""
    with np.errstate(over="ignore"):
        return np.exp(np.column_stack((block.log_delta, block.log_Delta, block.log_kappa)))


def _cmd_rates(cfg, echo: str, out: Path) -> None:
    seq = cfg.sequence_spec()
    n_max = max(cfg.n_grid)
    # the table ends before the first m whose scales overflow (golden PE: m = 700);
    # its scan stops one row past the budget
    m_last = cap = min(n_max, _MAX_VALUES // 4 + 1)
    for start, _, block in scale_blocks(seq, cap):
        finite = np.isfinite(_exp_scales(block)).all(axis=1)
        if not finite.all():
            m_last = start - 1 + int(np.argmin(finite))
            break
    over = "at least " if m_last == cap < n_max else ""
    _check_size([(4 * m_last, f"rates: scales.csv of {over}{m_last} rows for n_grid up to {n_max}")])
    _prepare_out_dir(out)
    rows = []
    for n in cfg.n_grid:
        rows.append(f"{n},{bound_M(seq, n)},{bound_N(seq, n)},{balance_m_star(seq, n)},"
                    f"{balance_m_dagger(seq, n)},{theoretical_rate_or_nan(seq, n)!r}")
    write_csv(out / "rates.csv", echo, "", "n,M_n,N_n,m_star,m_dagger,theoretical_rate", rows)
    write_csv(out / "scales.csv", echo, "", "m,delta,Delta,kappa", (
        f"{m},{delta!r},{Delta!r},{kappa!r}"
        for start, _, block in scale_blocks(seq, m_last)
        for m, (delta, Delta, kappa) in enumerate(_exp_scales(block).tolist(), start)
    ))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"simulate": _cmd_simulate, "estimate": _cmd_estimate,
                "mc-risk": _cmd_mc_risk, "rates": _cmd_rates}
    try:
        cfg = _load_config(args)
        commands[args.command](cfg, f"circfreg v{__version__} | {config_echo(cfg)}", args.out)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry_point() -> int:
    """``python -m circfreg.cli`` and the ``circfreg`` script: :func:`main`
    after freezing the heap the imports built.  It lives until exit anyway, so
    no later collection, the one at exit included, need scan it.  In-process
    callers of :func:`main` keep their collector as it is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry_point())
