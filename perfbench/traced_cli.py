"""Run the circfreg CLI with spans recorded around its modules' public functions.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json mc-risk --config ...

The wrappers are installed from outside the package, at the module globals
where the callers look the functions up (``cli._cmd_*`` reads ``cli.*``,
``risk._run_replicate``, ``run_experiment`` and ``experiment_plans`` read
``risk.*``, ``datagen.simulate`` and ``default_truncation`` read
``datagen.*``), so ``src/`` is never edited.  Draws are timed by making
``substream`` return a generator whose ``standard_normal`` is wrapped.
Spans and counts stay in memory and are written to SPANS.json when the CLI
returns; the process exits with the CLI's exit code.  Run with
``--workers 1``: spans in pool workers would be lost.

Wrapping changes no argument and no result, so the CLI's outputs are
byte-identical to an untraced run's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from functools import wraps

# (module whose global is replaced, global name, span name).  The span name
# is the function's home module and name, whatever module looks it up.
WRAPPED = (
    ("cli", "build_config", "config.build_config"),
    ("cli", "config_echo", "config.config_echo"),
    ("cli", "experiment_plans", "risk.experiment_plans"),
    ("cli", "simulate", "datagen.simulate"),
    ("cli", "write_sample_csv", "datagen.write_sample_csv"),
    ("cli", "replicate_moments", "risk.replicate_moments"),
    ("cli", "select_known", "estimator.select_known"),
    ("cli", "select_data_driven", "estimator.select_data_driven"),
    ("cli", "estimate_beta", "estimator.estimate_beta"),
    ("cli", "write_trace_csv", "estimator.write_trace_csv"),
    ("cli", "run_experiment", "risk.run_experiment"),
    ("cli", "write_risk_csv", "risk.write_risk_csv"),
    ("risk", "experiment_plans", "risk.experiment_plans"),
    ("risk", "default_truncation", "datagen.default_truncation"),
    ("risk", "intrinsic_scales", "sequences.intrinsic_scales"),
    ("risk", "bound_M", "sequences.bound_M"),
    ("risk", "make_slope", "datagen.make_slope"),
    ("risk", "slope_tail_bias", "datagen.slope_tail_bias"),
    ("risk", "_run_replicate", "risk._run_replicate"),
    ("risk", "replicate_moments", "risk.replicate_moments"),
    ("risk", "substream", "datagen.substream"),
    ("risk", "fixed_dim_risk_curve", "risk.fixed_dim_risk_curve"),
    ("risk", "select_known", "estimator.select_known"),
    ("risk", "select_data_driven", "estimator.select_data_driven"),
    ("datagen", "intrinsic_scales", "sequences.intrinsic_scales"),
    ("datagen", "default_truncation", "datagen.default_truncation"),
    ("datagen", "substream", "datagen.substream"),
)

# The per-layer metric each span's self time is added to.  The self time of
# ``_run_replicate`` (building the per-replicate record) counts as
# aggregation; CSV writers count as output whichever module owns them.
LAYER_OF = {
    "config.build_config": "config.load_s",
    "config.config_echo": "config.load_s",
    "sequences.intrinsic_scales": "sequences.scales_s",
    "sequences.bound_M": "sequences.scales_s",
    "datagen.default_truncation": "sequences.scales_s",
    "datagen.make_slope": "datagen.slope_s",
    "datagen.slope_tail_bias": "datagen.slope_s",
    "risk.experiment_plans": "risk.plans_s",
    "datagen.substream": "datagen.draw_s",
    "datagen.standard_normal": "datagen.draw_s",
    "datagen.simulate": "datagen.draw_s",
    "risk.replicate_moments": "risk.moments_s",
    "risk.fixed_dim_risk_curve": "risk.curve_s",
    "risk.run_experiment": "risk.aggregate_s",
    "risk._run_replicate": "risk.aggregate_s",
    "estimator.select_known": "estimator.select_s",
    "estimator.select_data_driven": "estimator.select_s",
    "estimator.estimate_beta": "estimator.estimate_beta_s",
    "risk.write_risk_csv": "cli.csv_s",
    "estimator.write_trace_csv": "cli.csv_s",
    "datagen.write_sample_csv": "cli.csv_s",
}

COUNTS = (
    "datagen.normals",
    "risk.alive_coords",
    "risk.sim_coords",
    "risk.alive_max",
    "risk.curve_len",
    "estimator.select_calls",
    "estimator.admissible_sum",
    "cli.csv_files",
    "cli.csv_bytes",
)


class Tracer:
    """Nested spans (id, parent id, name, start ns, end ns) and counters.

    Span id 0 is the CLI's ``main`` call; every other span has the innermost
    span open at its start as parent.  Single-threaded by design.
    """

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = [0]
        self._next_id = 0

    def wrap(self, name, fn):
        observe = getattr(self, "_after_" + name.split(".")[1], None)

        @wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._open[-1]
            self._open.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end))
            return observe(result, args, kwargs) if observe else result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(f"circfreg.{module_name}")
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    # Observers see a wrapped call's result after its span has closed.

    def _after_substream(self, gen, args, kwargs):
        return _TimedGenerator(gen, self)

    def _after_replicate_moments(self, mom, args, kwargs):
        alive = (mom.lhat >= 1.0 / mom.n).nonzero()[0]
        self.counts["risk.alive_coords"] += int(alive.size)
        self.counts["risk.sim_coords"] += mom.n_coef
        if alive.size:
            last = int(alive[-1]) + 1
            self.counts["risk.alive_max"] = max(self.counts["risk.alive_max"], last)
        return mom

    def _after_fixed_dim_risk_curve(self, curve, args, kwargs):
        self.counts["risk.curve_len"] += int(curve.size)
        return curve

    def _after_select_known(self, trace, args, kwargs):
        self.counts["estimator.select_calls"] += 1
        self.counts["estimator.admissible_sum"] += trace.admissible_max
        return trace

    _after_select_data_driven = _after_select_known

    def _after_write_csv(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["cli.csv_files"] += 1
        self.counts["cli.csv_bytes"] += os.path.getsize(path)
        return result

    _after_write_risk_csv = _after_write_csv
    _after_write_trace_csv = _after_write_csv
    _after_write_sample_csv = _after_write_csv

    def dump(self, path, main_ns: int) -> None:
        with open(path, "w") as fh:
            json.dump({"main_ns": main_ns, "spans": self.spans, "counts": self.counts}, fh)


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting standard normals."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        self.standard_normal = tracer.wrap("datagen.standard_normal", self._standard_normal)

    def _standard_normal(self, *args, **kwargs):
        draws = self._gen.standard_normal(*args, **kwargs)
        self._tracer.counts["datagen.normals"] += int(draws.size)
        return draws

    def __getattr__(self, name):
        return getattr(self._gen, name)


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py SPANS.json CIRCFREG-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("circfreg.cli")
    start = time.perf_counter_ns()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, time.perf_counter_ns() - start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
