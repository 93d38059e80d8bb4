"""Layered benchmark of the circfreg CLI.

    python3 perfbench/run.py --workload mc_pp --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is run from ``src/`` as
``python3 -m circfreg.cli``, one fresh process per CLI call and one call at
a time (a closed loop with no other load).  Every run's outputs are checked.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` the same timed
runs are followed by one traced run (``traced_cli.py``, ``--workers 1``)
and the JSON holds every per-layer metric instead.  The lines before it
give each metric by name and unit, the failure fraction, the fitted slope
(information only, never gated) and an environment stamp.  The benchmark
exits with code 2, printing no result, when it cannot start, for example
outside a checkout holding ``src/`` and ``configs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from traced_cli import LAYER_OF

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

MIN_RUNS = 3           # timed runs per benchmark run, whatever --seconds says
SETUP_PROBES = 5       # fewest fresh interpreters timed for setup_s, after one warm-up
LOOP_BUDGET_S = 110.0  # no timed run starts later than this into a benchmark run
DEADLINE_S = 170.0     # any process still running this long into a run is killed


@dataclass(frozen=True)
class Workload:
    base_config: str  # golden config the generated one starts from
    settings: tuple   # (key, value) pairs replaced in the generated config
    commands: tuple   # CLI arguments of each process of one run, in order
    workers: int


# Replications are sized so that one run of each workload takes 4-6 s on two
# cores at the seed commit; perfbench/README.md gives the reason for each.
WORKLOADS = {
    "mc_pp": Workload(
        "configs/golden_pp.cfg", (("replications", "5"),),
        (("mc-risk", "--workers", "1"),), 1,
    ),
    "mc_pe_w2": Workload(
        "configs/golden_pe.cfg", (("replications", "4"),),
        (("mc-risk", "--workers", "2"),), 2,
    ),
    "artifacts": Workload(
        "configs/golden_pp.cfg", (("replications", "40"), ("n_grid", "500,1000")),
        (("simulate",), ("estimate", "--override", "variant=both")), 1,
    ),
}

VARIANTS = {
    "data_driven": ("data_driven",),
    "known": ("known_degree",),
    "both": ("known_degree", "data_driven"),
}

# Counts that must repeat exactly across runs at one seed of one source tree.
EXACT_COUNTS = (
    "output_bytes", "datagen.normals", "risk.alive_max", "risk.curve_len",
    "cli.csv_files", "cli.csv_bytes",
)

# Imports circfreg, parses the generated config and builds the experiment
# plans: the work every CLI call does before its first replicate.
SETUP_PROBE = """
import dataclasses, importlib, sys
config = importlib.import_module("circfreg.config")
risk = importlib.import_module("circfreg.risk")
with open(sys.argv[1]) as fh:
    cfg = config.parse_config(fh.read())
cfg = dataclasses.replace(cfg, seed=int(sys.argv[2]), variant=sys.argv[3])
risk.experiment_plans(cfg)
"""


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mib: float


@dataclass
class RunResult:
    """One run of a workload: its CLI processes, back to back."""

    code: int
    wall: float
    cpu: float
    rss_mib: float
    out: Path
    traces: list = field(default_factory=list)  # traced_cli.py dumps, one per process


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, cwd: Path, env: dict, log: Path, timeout: float) -> Proc:
    """Run one process to completion, killing its process group after
    ``timeout`` seconds.  Wall time runs from spawn to reap; CPU time and
    max RSS cover the process and every child it waited for."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 0.1), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _config_values(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _single_worker(args) -> list:
    args = list(args)
    if "--workers" in args:
        args[args.index("--workers") + 1] = "1"
    return args


def env_stamp() -> dict:
    stamp = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy"):
        try:
            stamp[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            stamp[package] = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        stamp["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        stamp["caches"][f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return stamp


def layer_metrics(traced: RunResult, workers: int, untraced_wall: float,
                  setup_s: float, same_workers_wall: float):
    """Per-layer self times and counts of one traced run, and the names of
    spans with negative self time (a bookkeeping error).

    A span's self time is its duration minus its child spans' durations;
    ``cli.self_s`` is time inside ``cli.main`` outside every span, and
    ``trace.interp_s`` the traced wall time outside ``cli.main``.
    """
    metrics = dict.fromkeys(LAYER_OF.values(), 0.0)
    counts = {}
    main_ns = top_ns = busy_ns = 0
    negative = []
    for trace in traced.traces:
        children = {}
        for span_id, parent, name, start, end in trace["spans"]:
            children[parent] = children.get(parent, 0) + end - start
        for span_id, parent, name, start, end in trace["spans"]:
            own = end - start - children.get(span_id, 0)
            if own < 0:
                negative.append(name)
            metrics[LAYER_OF[name]] += own / 1e9
            if name == "risk._run_replicate":
                busy_ns += end - start
        main_ns += trace["main_ns"]
        top_ns += children.get(0, 0)
        for key, value in trace["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key == "risk.alive_max" \
                else counts.get(key, 0) + value
    selections = counts["estimator.select_calls"]
    metrics.update({
        "datagen.normals": counts["datagen.normals"],
        "datagen.draw_bytes": 8 * counts["datagen.normals"],
        "risk.alive_frac": (
            counts["risk.alive_coords"] / counts["risk.sim_coords"]
            if counts["risk.sim_coords"] else 0.0
        ),
        "risk.alive_max": counts["risk.alive_max"],
        "risk.curve_len": counts["risk.curve_len"],
        "risk.pool_efficiency": busy_ns / 1e9 / (workers * (untraced_wall - setup_s)),
        "estimator.select_calls": selections,
        "estimator.admissible_mean": (
            counts["estimator.admissible_sum"] / selections if selections else 0.0
        ),
        "cli.csv_files": counts["cli.csv_files"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "cli.self_s": (main_ns - top_ns) / 1e9,
        "trace.wall_s": traced.wall,
        "trace.interp_s": traced.wall - main_ns / 1e9,
        "trace.overhead_s": traced.wall - same_workers_wall,
    })
    return metrics, negative


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.log = self.dir / "cli.log"
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.slopes = {}  # fitted slope per variant, reported but never gated
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        base = (ROOT / self.workload.base_config).read_text()
        replaced = {key for key, _ in self.workload.settings}
        lines = [
            line for line in base.splitlines()
            if _config_values(line).keys().isdisjoint(replaced)
        ]
        lines += [f"{key} = {value}" for key, value in self.workload.settings]
        self.config_text = "\n".join(lines) + "\n"
        self.config = self.dir / f"{name}.cfg"

        values = _config_values(self.config_text)
        last = self.workload.commands[-1]
        values.update(
            last[i + 1].split("=", 1) for i, arg in enumerate(last) if arg == "--override"
        )
        self.grid = tuple(int(n) for n in values["n_grid"].split(","))
        self.replications = int(values["replications"])
        self.variant = values["variant"]
        self.tasks = sum(
            len(self.grid) * (1 if cmd[0] == "simulate" else self.replications)
            for cmd in self.workload.commands
        )

    def _run(self, argv, cwd: Path) -> Proc:
        timeout = self.started + DEADLINE_S - time.perf_counter()
        return run_process(argv, cwd, self.env, self.log, timeout)

    def run_cli(self, tag: str, single_worker: bool = False, traced: bool = False) -> RunResult:
        """Every CLI process of one run, in a fresh directory, writing to
        ``out`` so that the config echo in each CSV is the same across runs."""
        cwd = self.dir / tag
        cwd.mkdir()
        procs, traces = [], []
        for i, args in enumerate(self.workload.commands):
            if single_worker or traced:
                args = _single_worker(args)
            if traced:
                spans = cwd / f"spans{i}.json"
                head = [sys.executable, str(TRACED_CLI), str(spans)]
            else:
                head = [sys.executable, "-m", "circfreg.cli"]
            argv = head + [
                args[0], "--config", str(self.config), "--out", "out",
                "--override", f"seed={self.seed}", *args[1:],
            ]
            procs.append(self._run(argv, cwd))
            if procs[-1].code != 0:
                break
            if traced:
                traces.append(json.loads(spans.read_text()))
        return RunResult(
            code=next((p.code for p in procs if p.code != 0), 0),
            wall=sum(p.wall for p in procs),
            cpu=sum(p.cpu for p in procs),
            rss_mib=max(p.rss_mib for p in procs),
            out=cwd / "out",
            traces=traces,
        )

    def check(self, result: RunResult, reference: str | None, what: str):
        """Count one attempted run and check its outputs: exit code 0, then
        byte identity with an already-checked reference, or else the full
        structural check.  Returns (digest, output bytes), or None on failure."""
        self.attempted += 1
        errors = []
        if result.code != 0:
            errors.append(f"CLI exited with code {result.code}")
        else:
            digest, total, _ = checks.tree_digest(result.out)
            if digest != reference:
                variants = VARIANTS[self.variant]
                try:
                    if self.workload.commands[0][0] == "mc-risk":
                        errors = checks.check_risk_report(result.out, self.grid, variants)
                    else:
                        errors = checks.check_artifacts(
                            result.out, self.grid, self.replications, variants
                        )
                except (ValueError, IndexError, OSError) as exc:
                    errors = [f"malformed output: {exc!r}"]
                if reference is not None:
                    errors.insert(0, "outputs differ from the checked run at the same seed")
        if errors:
            self.failed += 1
            self.errors += [f"{what}: {error}" for error in errors]
            return None
        return digest, total

    def setup_probe(self) -> float:
        """Wall time of one fresh interpreter running SETUP_PROBE."""
        argv = [sys.executable, "-c", SETUP_PROBE, str(self.config), str(self.seed), self.variant]
        proc = self._run(argv, self.dir)
        if proc.code != 0:
            self.errors.append(f"setup probe exited with code {proc.code}")
        return proc.wall

    def timed_runs(self, seconds: float, reference: str | None):
        """Closed loop: one run after another until ``seconds`` have passed,
        and at least MIN_RUNS.  Outputs are checked between runs, untimed.
        A setup probe precedes each run, so that set-up times are sampled
        across the whole loop, as the run walls are, rather than in a burst."""
        runs, sizes, setup = [], [], []
        begin = time.perf_counter()
        while not runs or (
            (len(runs) < MIN_RUNS or time.perf_counter() - begin < seconds)
            and time.perf_counter() - self.started < LOOP_BUDGET_S
        ):
            setup.append(self.setup_probe())
            result = self.run_cli(f"run{len(runs)}")
            checked = self.check(result, reference, f"run {len(runs)}")
            if checked is not None:
                reference = reference or checked[0]
                sizes.append(checked[1])
                report = result.out / "risk_report.csv"
                if not self.slopes and report.is_file():
                    self.slopes = checks.risk_report_slopes(report)
            # deleted at once, untimed, so that no run's outputs are still
            # being written back to disk while a later run is timed
            shutil.rmtree(result.out.parent)
            runs.append(result)
        while len(setup) < SETUP_PROBES:
            setup.append(self.setup_probe())
        return runs, sizes, setup, reference

    def check_exact_counts(self, counts: dict) -> None:
        """Fail when a count differs from an earlier run at this seed with the
        same source tree and generated config (remembered in the work directory)."""
        digest = hashlib.sha256(f"{self.config_text}{self.workload.commands}".encode())
        for source in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(source.relative_to(ROOT)).encode() + b"\0" + source.read_bytes())
        path = WORK / "exact_counts.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        key = f"{self.name} seed={self.seed} inputs={digest.hexdigest()[:16]}"
        before = known.setdefault(key, {})
        for name, value in counts.items():
            if before.setdefault(name, value) != value:
                self.errors.append(f"{name} = {value} here but {before[name]} in an earlier run")
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def measure(bench: Bench, seconds: int, trace: bool):
    """Run the workload; returns (end-to-end metrics, per-layer metrics or
    None, run details for the summary lines)."""
    bench.dir.mkdir(parents=True)
    bench.config.write_text(bench.config_text)
    bench.setup_probe()  # warms the page and bytecode caches, untimed

    reference = single_worker_wall = None
    if bench.workload.workers > 1:
        # the pool's outputs must match a single-worker run byte for byte
        ref = bench.run_cli("reference", single_worker=True)
        checked = bench.check(ref, None, "single-worker reference")
        reference = checked and checked[0]
        single_worker_wall = ref.wall
        shutil.rmtree(ref.out.parent)

    runs, sizes, setup, reference = bench.timed_runs(seconds, reference)
    setup_s = statistics.median(setup)
    walls = [r.wall for r in runs]
    wall_s = statistics.median(walls)
    end_to_end = {
        "wall_s": wall_s,
        "replicates_per_s": statistics.median(bench.tasks / w for w in walls),
        "setup_s": setup_s,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mib for r in runs),
        "output_bytes": statistics.median(sizes) if sizes else 0,
    }
    if len(set(sizes)) > 1:
        bench.errors.append(f"output_bytes differ across runs at one seed: {sorted(set(sizes))}")
    exact = {"output_bytes": sizes[0]} if sizes else {}
    info = {"runs": len(runs), "walls": walls, "setup_probes": setup}

    layers = None
    if trace:
        traced = bench.run_cli("traced", traced=True)
        checked = bench.check(traced, reference, "traced run")
        if checked is not None:
            layers, negative = layer_metrics(
                traced, bench.workload.workers, wall_s, setup_s,
                single_worker_wall or wall_s,
            )
            if negative:
                bench.errors.append(f"negative self time in spans {sorted(set(negative))}")
            files, size = checks.csv_writer_files(traced.out)
            if (files, size) != (layers["cli.csv_files"], layers["cli.csv_bytes"]):
                bench.errors.append(
                    f"traced CSV writes ({layers['cli.csv_files']} files, "
                    f"{layers['cli.csv_bytes']} B) != outputs ({files} files, {size} B)"
                )
            exact.update((k, layers[k]) for k in EXACT_COUNTS if k in layers)
        shutil.rmtree(traced.out.parent)
    bench.check_exact_counts(exact)
    return end_to_end, layers, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    workload = WORKLOADS[args.workload]
    needed = ("BENCHMARK.json", "src/circfreg/cli.py", workload.base_config)
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a circfreg checkout; missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed)
    try:
        end_to_end, layers, info = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    values = layers if args.trace else end_to_end
    if values is None:  # the traced run failed: report zeros, marked incorrect
        values = dict.fromkeys((m["name"] for m in declared), 0)
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{bench.attempted} runs attempted, {bench.failed} failed, "
        f"failed_frac {bench.failed / bench.attempted} ratio; "
        f"{info['runs']} timed runs, {len(info['setup_probes'])} setup probes"
    )
    for error in bench.errors:
        print(f"  ERROR {error}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r} {metric['unit']}")
    for variant, slope in bench.slopes.items():
        print(f"  slope_{variant} {slope} (information only, not gated)")
    print(f"  timed walls (s): {' '.join(f'{w:.4f}' for w in info['walls'])}")
    print("env " + json.dumps(env_stamp(), sort_keys=True))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
