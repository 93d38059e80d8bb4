"""Command-line harness: simulate / estimate / mc-risk / rates.

Exit codes: 0 on success, 2 on configuration errors (including unwritable
output directories), 3 on numeric failures (overflow, non-finite results).
Every output CSV starts with a single comment line echoing the full
configuration and artifact version.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import CoefVector
from .config import ConfigError, build_config, config_echo, write_csv, _parse_raw
from .datagen import simulate, write_sample_csv
# replicate_moments, select_data_driven and select_known: for perfbench/traced_cli.py
from .estimator import estimate_beta, select_data_driven, select_known, write_trace_csv
from .risk import (
    NumericError,
    _require_finite,
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
    intrinsic_scales,
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
        cmd.add_argument("--out", default=None, help="output directory (overrides out_dir)")
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
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"])
    raw = _parse_raw(text)
    for item in args.override:
        if "=" not in item:
            raise ConfigError([f"override must look like KEY=VALUE, got {item!r}"])
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    if args.out is not None:
        raw["out_dir"] = args.out
    return build_config(raw)


def _prepare_out_dir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory is not writable: {out}")
    return out


# largest sample simulate writes, in values: 2^24 floats make a CSV of about 350 MB
_SIMULATE_VALUES = 2**24


def _cmd_simulate(cfg, echo: str) -> None:
    plans = experiment_plans(cfg)
    too_large = [
        f"simulate: n = {plan.n} with n_coef = {plan.n_coef} is "
        f"{plan.n * (plan.n_coef + 1)} values, over the 2^24 budget"
        for plan in plans if plan.n * (plan.n_coef + 1) > _SIMULATE_VALUES
    ]
    if too_large:
        raise ConfigError(too_large)
    out = _prepare_out_dir(cfg)
    for plan in plans:
        sample = simulate(
            plan.seq, CoefVector(plan.beta), plan.n, cfg.sigma, cfg.seed,
            replicate=(plan.n, 0), n_coef=plan.n_coef,
        )
        write_sample_csv(sample, out / f"sample_n{plan.n}.csv", echo)


def _cmd_estimate(cfg, echo: str) -> None:
    out = _prepare_out_dir(cfg)
    for plan in experiment_plans(cfg):
        for r in range(cfg.replications):
            mom, traces = replicate_traces(plan, r)
            for trace in traces:
                coefs = estimate_beta(mom, trace.m_hat).coefs
                stem = f"{trace.variant}_n{plan.n}_r{r}"
                _require_finite(lambda _: f"n = {plan.n}, r = {r}, variant = {trace.variant}",
                                coef=coefs)
                write_trace_csv(trace, out / f"trace_{stem}.csv", echo)
                rows = (f"{j},{float(v)!r}" for j, v in enumerate(coefs, start=1))
                meta = f"variant={trace.variant} n={plan.n} r={r}"
                write_csv(out / f"betahat_{stem}.csv", echo, meta, "j,coef", rows)


def _cmd_mc_risk(cfg, echo: str) -> None:
    out = _prepare_out_dir(cfg)
    reports = run_experiment(cfg)
    write_risk_csv(reports, out / "risk_report.csv", echo)


def _cmd_rates(cfg, echo: str) -> None:
    out = _prepare_out_dir(cfg)
    seq = cfg.sequence_spec()
    n_max = max(cfg.n_grid)
    scales = intrinsic_scales(seq, n_max)
    rows = []
    for n in cfg.n_grid:
        rows.append(f"{n},{bound_M(seq, scales, n)},{bound_N(seq, n)},{balance_m_star(seq, n)},"
                    f"{balance_m_dagger(seq, scales, n)},{theoretical_rate_or_nan(seq, n)!r}")
    write_csv(out / "rates.csv", echo, "", "n,M_n,N_n,m_star,m_dagger,theoretical_rate", rows)
    # the table ends before the first m whose linear scales overflow (golden PE: m = 700)
    finite = np.isfinite(scales.delta) & np.isfinite(scales.Delta) & np.isfinite(scales.kappa)
    m_last = int(np.argmin(np.append(finite, False)))
    write_csv(out / "scales.csv", echo, "", "m,delta,Delta,kappa", (
        f"{i + 1},{float(scales.delta[i])!r},{float(scales.Delta[i])!r},{float(scales.kappa[i])!r}"
        for i in range(m_last)
    ))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"simulate": _cmd_simulate, "estimate": _cmd_estimate,
                "mc-risk": _cmd_mc_risk, "rates": _cmd_rates}
    try:
        cfg = _load_config(args)
        commands[args.command](cfg, f"circfreg v{__version__} | {config_echo(cfg)}")
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
