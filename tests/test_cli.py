import contextlib
import io
import multiprocessing.process
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfreg.cli import main

ROOT = Path(__file__).resolve().parents[1]

BASE = """
regime = PP
a = 1.0
p = 2.0
s = 0.0
sigma = 0.5
rho = 1.0
n_grid = 40,80
replications = 3
seed = 11
variant = data_driven
pen_const_unknown = 0.3
j_max = 50
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    return path


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["rates", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("a = 1.0", "a = 0.2"))
    code = main(["rates", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "a > 1/2" in capsys.readouterr().err


def test_unknown_override_exits_2(config_file, tmp_path, capsys):
    code = main(["rates", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", "turbo=yes"])
    assert code == 2


def test_unwritable_out_dir_exits_2(config_file, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a regular file where a directory should go")
    code = main(["rates", "--config", str(config_file), "--out", str(blocker)])
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "estimate", "rates"])
def test_workers_flag_only_on_mc_risk(config_file, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
              "--workers", "2"])
    assert exc.value.code == 2


def test_rates_table(config_file, tmp_path):
    out = tmp_path / "rates_out"
    code = main(["rates", "--config", str(config_file), "--out", str(out),
                 "--override", "n_grid=100,200"])
    assert code == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0].startswith("# circfreg v")
    assert lines[1] == "n,M_n,N_n,m_star,m_dagger,theoretical_rate"
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["n"] == "100" and row["M_n"] == "4" and row["N_n"] == "100"
    scales_lines = (out / "scales.csv").read_text().splitlines()
    assert scales_lines[1] == "m,delta,Delta,kappa"
    first = scales_lines[2].split(",")
    assert first[0] == "1" and float(first[1]) == 1.0


def test_rates_scales_finite_on_golden_pe(tmp_path):
    # exp(m) overflows the linear scales from m = 700 on; the table stops there
    out = tmp_path / "pe_rates"
    code = main(["rates", "--config", str(ROOT / "configs" / "golden_pe.cfg"), "--out", str(out)])
    assert code == 0
    lines = (out / "scales.csv").read_text().splitlines()
    assert lines[1] == "m,delta,Delta,kappa"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.all(np.isfinite(rows))
    assert rows.shape == (699, 4) and np.array_equal(rows[:, 0], np.arange(1, 700))


def test_simulate_writes_samples(config_file, tmp_path):
    out = tmp_path / "sim_out"
    code = main(["simulate", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    for n in (40, 80):
        lines = (out / f"sample_n{n}.csv").read_text().splitlines()
        assert lines[0].startswith("# circfreg v")
        assert lines[1].startswith("y,x_1")
        assert len(lines) == 2 + n


def test_simulate_noiseless_column_structure(tmp_path):
    path = tmp_path / "noiseless.cfg"
    path.write_text(BASE.replace("sigma = 0.5", "sigma = 0.0"))
    out = tmp_path / "noiseless_out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "sample_n40.csv").read_text().splitlines()[2:]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    # sigma = 0: the response is an exact linear functional of the regressors
    assert rows.shape == (40, 51)


def test_estimate_writes_traces_and_coefs(config_file, tmp_path):
    out = tmp_path / "est_out"
    code = main(["estimate", "--config", str(config_file), "--out", str(out),
                 "--override", "replications=2", "--override", "n_grid=40"])
    assert code == 0
    trace = (out / "trace_data_driven_n40_r0.csv").read_text().splitlines()
    assert trace[1] == "m,contrast,penalty,delta_used,admissible,chosen"
    chosen = [line.split(",") for line in trace[2:] if line.split(",")[5] == "1"]
    assert len(chosen) == 1
    beta = (out / "betahat_data_driven_n40_r0.csv").read_text().splitlines()
    assert beta[1] == "j,coef"
    assert len(beta) - 2 == int(chosen[0][0])  # one row per kept coefficient


def test_estimate_both_variants(config_file, tmp_path):
    out = tmp_path / "both_out"
    code = main(["estimate", "--config", str(config_file), "--out", str(out),
                 "--override", "replications=1", "--override", "n_grid=40",
                 "--override", "variant=both", "--override", "pen_const_known=0.5"])
    assert code == 0
    for variant in ("known_degree", "data_driven"):
        assert (out / f"trace_{variant}_n40_r0.csv").exists()
        assert (out / f"betahat_{variant}_n40_r0.csv").exists()


def test_mc_risk_byte_identical_and_worker_invariant(config_file, tmp_path, monkeypatch):
    # identical config (same out_dir) rerun at several worker counts; --workers
    # is accepted but every replicate runs in this process
    out = tmp_path / "rep"
    runs = []
    for workers in ("1", "1", "2"):
        if workers == "2":
            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                                lambda self: pytest.fail("mc-risk started a worker process"))
        code = main(["mc-risk", "--config", str(config_file), "--out", str(out),
                     "--workers", workers])
        assert code == 0
        runs.append((out / "risk_report.csv").read_bytes())
    assert runs[0] == runs[1] == runs[2]


def test_echo_line_carries_full_config(config_file, tmp_path):
    out = tmp_path / "echo_out"
    main(["mc-risk", "--config", str(config_file), "--out", str(out)])
    first = (out / "risk_report.csv").read_text().splitlines()[0]
    for token in ("regime=PP", "seed=11", "pen_const_unknown=0.3", "n_grid=40,80"):
        assert token in first


def test_numeric_failure_exits_3(config_file, tmp_path, monkeypatch, capsys):
    import circfreg.cli as cli_module
    from circfreg import NumericError

    def explode(cfg):
        raise NumericError("synthetic numeric breakdown")

    monkeypatch.setattr(cli_module, "run_experiment", explode)
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("simulate", "sigma=1e200"), ("estimate", "sigma=1e200"), ("mc-risk", "sigma=1e200"),
    ("mc-risk", "p=1e300"), ("mc-risk", "s=-1e300"),
])
def test_overflow_or_nonfinite_result_exits_3(config_file, tmp_path, capsys, command,
                                               override):
    # sigma**2 overflows; a huge p or -s makes the slope's tail bias NaN
    code = main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure" in err and "Traceback" not in err
    if override.startswith("sigma="):
        assert "sigma" in err.split("numeric failure", 1)[1]


@pytest.mark.parametrize("command", ["estimate", "mc-risk"])
def test_estimate_nonfinite_penalty_exits_3(config_file, tmp_path, capsys, command):
    # sigma**2 = 1e308 is finite, but sigma_y2 and with it the penalty overflow
    code = main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", "sigma=1e154"])
    err = capsys.readouterr().err
    assert code == 3
    assert ("numeric failure: penalty is not finite at n = 40, r = 0, "
            "variant = data_driven") in err
    assert "Traceback" not in err


def test_ep_rate_overflow_exits_3(config_file, tmp_path, capsys):
    # (log n)^((2a + 1 + 2s) / (2p)) overflows at a = 1e300
    code = main(["rates", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", "regime=EP", "--override", "a=1e300"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure: theoretical_rate overflows at n = 40" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override, key", [("sigma=nan", "sigma"), ("a=inf", "a"),
                                           ("rho=inf", "rho")])
def test_nonfinite_override_exits_2(config_file, tmp_path, capsys, override, key):
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    assert f"config error: {key}: must be finite" in capsys.readouterr().err


def test_nonconvergent_ep_tail_exits_3_promptly(config_file, tmp_path, capsys):
    start = time.perf_counter()
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", "regime=EP", "--override", "p=0.05"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure" in err and "p = 0.05" in err
    assert elapsed < 20.0


def _fresh_run(*args, flags=(), report="[]"):
    # a fresh interpreter: the test process itself has scipy and multiprocessing loaded
    script = ("import sys\nfrom circfreg.cli import main\ncode = main(sys.argv[1:])\n"
              f"print(code, {report})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def _loaded(prefix: str) -> str:
    return f"sorted(m for m in sys.modules if m.startswith({prefix!r}))"


def test_mc_risk_imports_no_scipy(config_file, tmp_path):
    result = _fresh_run("mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o"),
                        report=_loaded("scipy"))
    assert result.stdout.split() == ["0", "[]"], result.stderr


@pytest.mark.parametrize("command", ["mc-risk", "estimate"])
def test_mc_risk_and_estimate_import_no_multiprocessing(config_file, tmp_path, command):
    # only simulate's sample writer starts worker processes
    result = _fresh_run(command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                        report=_loaded("multiprocessing"))
    assert result.stdout.split() == ["0", "[]"], result.stderr


def test_ep_power_overflow_raises_no_warning(config_file, tmp_path):
    # gamma_j = j^(2p) = inf at p = 1e300 and omega_j = j^(2s) = inf at
    # s = 300 are exact limits; they must not warn
    cases = [("mc-risk", "regime=EP", "p=1e300")]
    cases += [(command, "s=300", "p=400") for command in ("rates", "estimate", "simulate")]
    for command, *overrides in cases:
        extra = [arg for item in overrides for arg in ("--override", item)]
        result = _fresh_run(command, "--config", str(config_file), "--out",
                            str(tmp_path / command), *extra,
                            flags=("-W", "error::RuntimeWarning"))
        assert result.stdout.split()[:1] in (["0"], ["2"], ["3"]), (command, result.stderr)
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr, command


def test_simulate_over_size_budget_exits_2_before_writing(tmp_path, capsys):
    # golden PE at n = 8000 simulates 8000 x 8001 values, a CSV of about 1.4 GB
    out = tmp_path / "pe_sim"
    code = main(["simulate", "--config", str(ROOT / "configs" / "golden_pe.cfg"),
                 "--out", str(out), "--override", "n_grid=500,8000"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: simulate: n = 8000 with n_coef = 8000" in err
    assert "n = 500 " not in err
    assert not out.exists()


def test_simulate_golden_pp_within_size_budget(tmp_path, monkeypatch):
    # the largest golden PP sample, 4000 x 4001 values, fits the 2^24 budget;
    # the draws and the 360 MB write are replaced by a record of the calls
    import circfreg.cli as cli_module

    sizes = []
    monkeypatch.setattr(cli_module, "simulate",
                        lambda seq, slope, n, *args, n_coef, **kwargs: (n, n_coef))
    monkeypatch.setattr(cli_module, "write_sample_csv",
                        lambda sample, path, echo: sizes.append(sample))
    code = main(["simulate", "--config", str(ROOT / "configs" / "golden_pp.cfg"),
                 "--out", str(tmp_path / "pp_sim"), "--override", "n_grid=250,4000"])
    assert code == 0
    assert sizes == [(250, 250), (4000, 4000)]


def _nonfinite_outputs(out: Path, one_point_grid: bool) -> list:
    """(file, field) of every non-finite float in the CSVs under out, apart
    from the documented NaNs: theoretical_rate at n < 3 and the slope of a
    one-point n_grid."""
    bad = []
    for path in sorted(out.glob("*.csv")):
        comment, header, *rows = path.read_text().splitlines()
        for token in comment.partition(" | ")[2].split():
            key, _, value = token.partition("=")
            allowed = key.startswith("slope_") and one_point_grid
            if _is_nonfinite(value) and not allowed:
                bad.append((path.name, key))
        names = header.split(",")
        for row in rows:
            cells = dict(zip(names, row.split(",")))
            for key, value in cells.items():
                allowed = key == "theoretical_rate" and int(cells["n"]) < 3
                if _is_nonfinite(value) and not allowed:
                    bad.append((path.name, key))
    return bad


def _is_nonfinite(text: str) -> bool:
    try:
        return not np.isfinite(float(text))
    except ValueError:  # a variant name or another non-numeric token
        return False


# plain ranges, and edge values that a run may take for at most two keys;
# p stays off (0, 0.3): an EP slope tail that slow takes seconds to reject
# (test_nonconvergent_ep_tail_exits_3_promptly covers it)
_PLAIN = {"a": (0.55, 4.0), "p": (1.0, 6.0), "s": (-1.0, 1.0), "sigma": (0.0, 3.0),
          "rho": (0.01, 10.0), "eta": (1.0, 10.0), "pen_const_known": (1e-3, 10.0),
          "pen_const_unknown": (1e-3, 10.0)}
_EDGES = {"a": (0.3, 1e-300, 50.0, 1e300), "p": (0.3, 300.0, 400.0, 1e300),
          "s": (2.0, 300.0, -1e300), "sigma": (0.0, 1e-300, 1e154, 1e200),
          "rho": (1e-300, 1e154, 1e300), "eta": (0.5, 1e300),
          "pen_const_known": (1e-300, 1e300), "pen_const_unknown": (1e-300, 1e300)}


@st.composite
def _values(draw):
    values = {key: draw(st.floats(low, high)) for key, (low, high) in _PLAIN.items()}
    for key in draw(st.lists(st.sampled_from(sorted(_EDGES)), max_size=2)):
        values[key] = draw(st.sampled_from(_EDGES[key]))
    return values


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(["rates", "estimate", "mc-risk", "simulate"]),
    regime=st.sampled_from(["PP", "EP", "PE"]),
    values=_values(),
    n_grid=st.lists(st.integers(2, 60), min_size=1, max_size=3, unique=True).map(sorted),
    replications=st.integers(1, 2),
    j_max=st.one_of(st.just("none"), st.integers(1, 40).map(str)),
    enforce_pair=st.booleans(),
)
def test_any_override_exits_0_2_or_3_and_writes_only_finite_floats(
        command, regime, values, n_grid, replications, j_max, enforce_pair):
    overrides = {"regime": regime, **{k: repr(v) for k, v in values.items()},
                 "n_grid": ",".join(map(str, n_grid)), "replications": str(replications),
                 "j_max": j_max, "enforce_pair": str(enforce_pair).lower(), "variant": "both"}
    with tempfile.TemporaryDirectory() as work:
        config, out = Path(work) / "run.cfg", Path(work) / "out"
        config.write_text(BASE)
        argv = [command, "--config", str(config), "--out", str(out)]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert _nonfinite_outputs(out, len(n_grid) == 1) == []
