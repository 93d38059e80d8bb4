import contextlib
import gc
import importlib.util
import io
import multiprocessing.process
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfreg import SequenceSpec, intrinsic_scales
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


def test_config_file_not_utf8_exits_2_without_output(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"regime = PP\xff\n")
    out = tmp_path / "o"
    code = main(["rates", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: cannot read config file: ") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_with_utf8_bom_reads_as_plain(tmp_path):
    # many editors save UTF-8 with a byte-order mark; it is not part of line 1
    golden = ROOT / "configs" / "golden_pp.cfg"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
    outputs = []
    for path in (golden, bom):
        out = tmp_path / path.stem
        assert main(["rates", "--config", str(path), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("rates.csv", "scales.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("override, message", [
    ("n_grid=", "n_grid: must contain at least one sample size"),
    ("seed=18446744073709551616", "seed: must be a 64-bit unsigned integer, got "),
    ("n_grid", "override must look like KEY=VALUE, got 'n_grid'"),
])
def test_bad_override_exits_2_with_one_line(config_file, tmp_path, capsys, override, message):
    code = main(["rates", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["mc-risk", "simulate"])
def test_out_dir_without_write_access_exits_2(config_file, tmp_path, monkeypatch, capsys,
                                              command):
    # root may write to any directory, so the access check is denied directly
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module.os, "access", lambda path, mode: False)
    out = tmp_path / "o"
    code = main([command, "--config", str(config_file), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: output directory is not writable: {out}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, override", [("rates", "n_grid=100000000000"),
                                               ("mc-risk", "n_grid=100000000000"),
                                               ("mc-risk", "j_max=1000000000")])
def test_size_above_bound_exits_2_at_config_time(config_file, tmp_path, capsys, command,
                                                 override):
    # far above the bound, so nothing of this size is ever allocated
    code = main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    err = capsys.readouterr().err
    key = override.split("=")[0]
    assert err.startswith(f"config error: {key}: ") and re.search(r"<= 100000000\b", err)
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_memory_error_exits_2(config_file, tmp_path, monkeypatch, capsys):
    import circfreg.cli as cli_module

    def exhaust(cfg, echo, out):
        raise MemoryError("synthetic allocation failure")

    monkeypatch.setattr(cli_module, "_cmd_rates", exhaust)
    code = main(["rates", "--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: out of memory: synthetic allocation failure\n"


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
    # each row, the last included, is the exponentials of the log scales
    sc = intrinsic_scales(SequenceSpec("PE", a=0.5, p=1.0, enforce_pair=True), 699)
    columns = (np.exp(sc.log_delta), np.exp(sc.log_Delta), np.exp(sc.log_kappa))
    assert lines[2:] == [f"{m},{delta!r},{Delta!r},{kappa!r}" for m, delta, Delta, kappa
                         in zip(range(1, 700), *(c.tolist() for c in columns))]


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
    # identical config rerun at several worker counts; --workers is accepted
    # but every replicate runs in this process
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


def test_mc_risk_rows_do_not_depend_on_the_rest_of_the_grid(tmp_path):
    # the slope is normalized over its whole profile and each plan sums its own
    # series, so adding n = 10^5 to golden PE leaves the n = 500, 8000 rows
    # byte-identical (it used to move the n = 500 median risk in its 10th digit)
    rows = []
    for grid in ("500,8000", "500,8000,100000"):
        out = tmp_path / grid
        code = main(["mc-risk", "--config", str(ROOT / "configs" / "golden_pe.cfg"),
                     "--out", str(out), "--override", f"n_grid={grid}", "--override",
                     "replications=4", "--override", "variant=both"])
        assert code == 0
        lines = (out / "risk_report.csv").read_text().splitlines()[2:]
        rows.append([line for line in lines if line.split(",")[0] in ("500", "8000")])
    assert len(rows[0]) == 4 and rows[0] == rows[1]


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc-risk", "rates"])
def test_outputs_do_not_depend_on_the_output_directory(config_file, tmp_path, monkeypatch,
                                                      command):
    # the echo line holds the config and the version, never the --out path;
    # the third run takes the default --out, the working directory
    trees = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "b", tmp_path / "c"):
        argv = [command, "--config", str(config_file), "--override", "variant=both",
                "--override", "pen_const_known=0.5"]
        if out.name == "c":
            out.mkdir()
            monkeypatch.chdir(out)
        else:
            argv += ["--out", str(out)]
        assert main(argv) == 0
        trees.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert trees[0] and trees[0] == trees[1] == trees[2]


def test_echo_line_carries_full_config(config_file, tmp_path):
    out = tmp_path / "echo_out"
    main(["mc-risk", "--config", str(config_file), "--out", str(out)])
    first = (out / "risk_report.csv").read_text().splitlines()[0]
    for token in ("regime=PP", "seed=11", "pen_const_unknown=0.3", "n_grid=40,80"):
        assert token in first


def test_numeric_failure_exits_3(config_file, tmp_path, monkeypatch, capsys):
    import circfreg.cli as cli_module
    from circfreg import NumericError

    def explode(cfg, plans=None):
        raise NumericError("synthetic numeric breakdown")

    monkeypatch.setattr(cli_module, "run_experiment", explode)
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_nan_risk_exits_3_naming_mean_risk(config_file, tmp_path, monkeypatch, capsys):
    import circfreg.risk as risk_module

    run_replicate = risk_module._run_replicate

    def nan_at_r1(plan, r):
        curve, picks = run_replicate(plan, r)
        return curve, [(np.nan if r == 1 else risk, *rest) for risk, *rest in picks]

    monkeypatch.setattr(risk_module, "_run_replicate", nan_at_r1)
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure: mean_risk is not finite at n = 40" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("simulate", "sigma=1e200"), ("estimate", "sigma=1e200"), ("mc-risk", "sigma=1e200"),
])
def test_overflow_or_nonfinite_result_exits_3(config_file, tmp_path, capsys, command,
                                               override):
    # sigma**2 overflows
    code = main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure" in err and "Traceback" not in err
    assert "sigma" in err.split("numeric failure", 1)[1]


@pytest.mark.parametrize("override", ["p=1e300", "s=-1e300", "p=1e103"])
def test_huge_p_or_negative_s_exits_0_with_finite_outputs(config_file, tmp_path, override):
    # the slope's tail bias is 0: its remainder's x^3 overflows where a^-x is 0
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["mc-risk", "--config", str(config_file), "--out", str(out),
                     "--override", override])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert _nonfinite_outputs(out, one_point_grid=False) == []


@pytest.mark.parametrize("override", [
    "a=1e308", f"a={sys.float_info.max!r}", "p=1e308", f"p={sys.float_info.max!r}", "s=-1e308",
    "rho=1e308", "s=1e308",
    *(pair for v in ("1e308", repr(sys.float_info.max))
      for pair in (f"a={v} s=-{v}", f"a={v} p={v}", f"p={v} s=-{v}")),
    f"s=1e308 p={sys.float_info.max!r}", "a=1e308 s=1e308", "sigma=1e154 a=1e-300",
])
@pytest.mark.parametrize("regime", ["PP", "EP", "PE"])
@pytest.mark.parametrize("command", ["rates", "estimate", "mc-risk", "simulate"])
def test_huge_finite_input_exits_0_2_or_3_without_warning(config_file, tmp_path, command,
                                                          regime, override):
    # 2a, 2p, -2s or the slope's scale past float range: log powers are 2 (c log j),
    # 0 at j = 1, and a scale past float range names rho.  A pair, or a huge
    # positive s, runs both selectors, and simulate without j_max, so that the
    # scales and every scan read it: where log omega_j and log lambda_j are both
    # -inf, their ratio is one log power, a finite difference of them past float
    # range is +inf, the scans' criteria may reach +inf, and a running aggregate
    # less c_m may be inf - inf, which the balancing criterion takes as 0.  A
    # contrast past float range (sigma = 1e154 with every PE coordinate alive at
    # a = 1e-300) exits 3 with its one line
    overrides = [f"regime={regime}", *override.split()]
    if len(overrides) > 2 or override == "s=1e308":
        overrides += ["variant=both", *(["j_max=none"] if command == "simulate" else [])]
    out = tmp_path / "o"
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stderr(io.StringIO()) as err):
        warnings.simplefilter("always")
        code = main([command, "--config", str(config_file), "--out", str(out),
                     *(arg for item in overrides for arg in ("--override", item))])
    assert code in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert err.getvalue().count("\n") == (code != 0)
    if code == 0:
        assert _nonfinite_outputs(out, one_point_grid=False) == []


@pytest.mark.parametrize("override", ["sigma=1e154", "pen_const_unknown=1e308"])
@pytest.mark.parametrize("command", ["estimate", "mc-risk"])
def test_estimate_nonfinite_penalty_exits_3(config_file, tmp_path, capsys, command, override):
    # sigma**2 = 1e308 is finite, but sigma_y2 and with it the penalty overflow;
    # pen_const_unknown = 1e308 overflows the penalty's product itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                     "--override", override])
    err = capsys.readouterr().err
    assert code == 3
    assert [str(w.message) for w in caught] == []
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


# the tail past J; and, without j_max at s = -1, a = 0.6 and n = 1000, the
# noise folded into tau, which fails first: both are sums past J, named alike
@pytest.mark.parametrize("extra", [(), ("s=-1", "a=0.6", "j_max=none", "n_grid=1000")],
                         ids=["tail", "folded"])
def test_nonconvergent_ep_tail_exits_3_promptly(config_file, tmp_path, capsys, extra):
    overrides = [arg for item in ("regime=EP", "p=0.05", *extra) for arg in ("--override", item)]
    start = time.perf_counter()
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 *overrides])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numeric failure: EP slope tail needs over 2^24 terms at p = 0.05\n"
    assert elapsed < 20.0


def _fresh_run(*args, flags=(), report="[]"):
    # a fresh interpreter: the test process itself has scipy and multiprocessing loaded
    script = ("import sys\nfrom circfreg.cli import main\ncode = main(sys.argv[1:])\n"
              f"print(code, {report})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, variant", [
    ("mc-risk", "data_driven"), ("mc-risk", "known"), ("estimate", "both"), ("rates", "both"),
    ("simulate", "both"),
])
def test_fresh_process_imports_no_scipy_multiprocessing_or_numpy_ma(config_file, tmp_path,
                                                                   command, variant):
    # scipy is a test-only reference, no command starts a worker process (the
    # 1400 x 51 sample spans nine of the sample writer's chunks), numpy.ma comes
    # with np.median and np.unique, and only simulate formats floats with
    # circfreg.floatfmt; rates draws nothing, so it never imports numpy.random
    report = ("sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
              " or m.split('.')[:2] in (['numpy', 'ma'], ['circfreg', 'floatfmt'])),"
              " any(m.split('.')[:2] == ['numpy', 'random'] for m in sys.modules)")
    result = _fresh_run(command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                        "--override", f"variant={variant}", "--override", "n_grid=40,1400",
                        report=report)
    loaded = "['circfreg.floatfmt']" if command == "simulate" else "[]"
    assert result.stdout.split() == ["0", loaded, str(command != "rates")], result.stderr


def test_entry_point_freezes_the_import_time_heap(config_file, tmp_path):
    # python -m circfreg.cli, run as __main__ in a fresh interpreter
    script = ("import gc, runpy, sys\n"
              "try:\n    runpy.run_module('circfreg.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as done:\n    print(done.code, gc.get_freeze_count())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script, "rates", "--config", str(config_file),
                             "--out", str(tmp_path / "o")],
                            env=env, capture_output=True, text=True, timeout=120)
    out = result.stdout.split()
    assert out[:1] == ["0"] and int(out[1]) > 0, result.stderr
    # the console script runs the same function
    assert 'circfreg = "circfreg.cli:entry_point"' in (ROOT / "pyproject.toml").read_text()


def test_main_in_process_leaves_the_collector_unfrozen(config_file, tmp_path):
    before = gc.get_freeze_count()
    assert main(["rates", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == before


def test_ep_power_overflow_raises_no_warning(config_file, tmp_path):
    # gamma_j = j^(2p) = inf at p = 1e300 and omega_j = j^(2s) = inf at
    # s = 300 are exact limits; they must not warn.  So are lambda_j = 0 at
    # a = 1e300 under PE, an EP slope tail past float range at s = 300, and
    # omega_j / lambda_j = 0 where both underflow at s = -1e300
    golden_pe = str(ROOT / "configs" / "golden_pe.cfg")
    small_pe = ("n_grid=500", "replications=2")
    cases = [("mc-risk", str(config_file), "regime=EP", "p=1e300")]
    cases += [(command, str(config_file), "s=300", "p=400")
              for command in ("rates", "estimate", "simulate")]
    cases += [(command, golden_pe, "a=1e300", *small_pe)
              for command in ("simulate", "estimate", "mc-risk")]
    cases += [("estimate", str(config_file), "regime=EP", "s=300", "p=1", "j_max=none"),
              ("rates", golden_pe, "s=-1e300", "a=1.5", "p=3")]
    # omega_j = inf where make_slope zeroed the coefficient: zero loss, not NaN
    cases += [("mc-risk", str(config_file), "regime=EP", "s=300", "p=3")]
    for command, config, *overrides in cases:
        extra = [arg for item in overrides for arg in ("--override", item)]
        result = _fresh_run(command, "--config", config, "--out",
                            str(tmp_path / command), *extra,
                            flags=("-W", "error::RuntimeWarning"))
        assert result.stdout.split()[:1] in (["0"], ["2"], ["3"]), (command, result.stderr)
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr, command


def test_inf_weight_at_zero_coefficient_counts_as_zero_loss(config_file, tmp_path):
    # under EP at s = 300 and p = 3, omega_j = j^600 is inf from j = 4 on,
    # where make_slope has zeroed the slope: that loss is 0, not inf * 0 = NaN
    out = tmp_path / "ep"
    code = main(["mc-risk", "--config", str(config_file), "--out", str(out),
                 "--override", "regime=EP", "--override", "s=300", "--override", "p=3"])
    assert code == 0
    assert _nonfinite_outputs(out, one_point_grid=False) == []


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


def test_rates_refuses_scales_table_over_size_budget(tmp_path, monkeypatch, capsys):
    # the budget counts the 4 values of each row written, after the overflow
    # cut: golden PE's 699 rows fit 4000 values, golden PP's 4000 rows do not
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module, "_MAX_VALUES", 4000)
    pe, pp = tmp_path / "pe", tmp_path / "pp"
    assert main(["rates", "--config", str(ROOT / "configs" / "golden_pe.cfg"),
                 "--out", str(pe)]) == 0
    assert len((pe / "scales.csv").read_text().splitlines()) == 2 + 699
    capsys.readouterr()
    assert main(["rates", "--config", str(ROOT / "configs" / "golden_pp.cfg"),
                 "--out", str(pp)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: rates: ")
    assert "n_grid" in err[0] and "2^24" in err[0]
    assert not pp.exists()


def test_rates_sizes_scales_table_in_blocks(tmp_path, capsys):
    # golden PP's table to n = 10^7 is refused after a scan of one block of
    # scales at a time, to one row past the budget: a tracemalloc peak of
    # 0.8 MiB, where the 10^7 scales take 480 MB
    import tracemalloc

    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = main(["rates", "--config", str(ROOT / "configs" / "golden_pp.cfg"), "--out", str(out),
                     "--override", "n_grid=250,10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 * 2**20
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: rates: scales.csv of at least 4194305 rows for n_grid up to "
                   "10000000 is 16777220 values, over the 2^24 budget"]
    assert not out.exists()


def test_mc_risk_refuses_replicate_array_over_size_budget(config_file, tmp_path, monkeypatch,
                                                          capsys):
    # the fixture's 2 grid sizes x 1 variant x 3 replications hold 3 values each: 18
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module, "_MAX_VALUES", 18)
    fits, over = tmp_path / "fits", tmp_path / "over"
    assert main(["mc-risk", "--config", str(config_file), "--out", str(fits)]) == 0
    capsys.readouterr()
    assert main(["mc-risk", "--config", str(config_file), "--out", str(over),
                 "--override", "replications=4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: mc-risk: ")
    assert "replications = 4" in err[0] and "24 values" in err[0] and "2^24" in err[0]
    assert not over.exists()


@pytest.mark.parametrize("command", ["mc-risk", "estimate"])
def test_refuses_normals_over_work_budget(config_file, tmp_path, monkeypatch, capsys, command):
    # the fixture's alive windows J = 15 and 19 draw (J+1)^2 // 2 = 128 and 200
    # normals per replicate: 984 over 3 replications, 1312 over 4
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module, "_MAX_NORMALS", 984)
    fits, over = tmp_path / "fits", tmp_path / "over"
    assert main([command, "--config", str(config_file), "--out", str(fits)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(config_file), "--out", str(over),
                 "--override", "replications=4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {command}: ")
    assert "replications = 4" in err[0] and "1312 normals" in err[0] and "2^30" in err[0]
    assert not over.exists()


@pytest.mark.parametrize("command", ["mc-risk", "estimate"])
def test_refuses_replicate_factor_over_budget(config_file, tmp_path, monkeypatch, capsys,
                                              command):
    # the fixture's factors are 16 x 16 at n = 40 and 20 x 20 at n = 80: 400 values fit
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module, "_MAX_FACTOR", 400)
    fits, over = tmp_path / "fits", tmp_path / "over"
    assert main([command, "--config", str(config_file), "--out", str(fits)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_module, "_MAX_FACTOR", 399)
    assert main([command, "--config", str(config_file), "--out", str(over)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {command}: n = 80 draws a 20 x 20 Bartlett factor of "
                   "400 values, over the 2^27 budget"]
    assert not over.exists()


@pytest.mark.parametrize("command", ["mc-risk", "estimate"])
def test_pe_without_decay_refused_by_factor_budget_unless_truncated(tmp_path, capsys, command):
    # PE at a = 1e-300 has lambda_j = exp(-1) > 1/n at every index, so the
    # untruncated alive window is every index below 2^53: the factor budget
    # refuses it after a search of O(BLOCK) memory; j_max = 40 makes it a run
    import tracemalloc

    argv = [command, "--config", str(ROOT / "configs" / "golden_pe.cfg"), "--override", "a=1e-300",
            "--override", "n_grid=500", "--override", "replications=1"]
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "untruncated")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 * 2**20
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"config error: {command}: n = 500 draws a 9007199254740992 x 500 "
                      "Bartlett factor of 4503599627370496000 values, over the 2^27 budget")
    assert not (tmp_path / "untruncated").exists()
    assert main(argv + ["--out", str(tmp_path / "j_max"), "--override", "j_max=40"]) == 0


def test_simulate_builds_no_plan(tmp_path, monkeypatch):
    # simulate resolves its own truncation, j_max or max(N_n, 2 m_dagger_n)
    import circfreg.cli as cli_module
    import circfreg.risk as risk_module

    def refuse(cfg):
        raise AssertionError("simulate built experiment plans")

    monkeypatch.setattr(cli_module, "experiment_plans", refuse)
    monkeypatch.setattr(risk_module, "experiment_plans", refuse)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(ROOT / "configs" / "golden_pp.cfg"), "--out",
                 str(out), "--override", "n_grid=250,500"]) == 0
    widths = [len(path.read_text().splitlines()[1].split(",")) for path in sorted(out.iterdir())]
    assert widths == [1 + 250, 1 + 500]


def test_estimate_refuses_files_over_budget(config_file, tmp_path, monkeypatch, capsys):
    # the fixture's 2 grid sizes x 1 variant x 3 replications write 2 files each: 12
    import circfreg.cli as cli_module

    monkeypatch.setattr(cli_module, "_MAX_FILES", 12)
    fits, over = tmp_path / "fits", tmp_path / "over"
    assert main(["estimate", "--config", str(config_file), "--out", str(fits)]) == 0
    assert len(list(fits.iterdir())) == 12
    capsys.readouterr()
    assert main(["estimate", "--config", str(config_file), "--out", str(over),
                 "--override", "replications=4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: estimate: ")
    assert "replications = 4" in err[0] and "16 files" in err[0] and "2^16" in err[0]
    assert not over.exists()


def test_perfbench_tracer_wraps_existing_functions():
    # perfbench/traced_cli.py replaces these module globals; each must still
    # be a function the package defines or imports
    path = ROOT / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, name, _ in traced.WRAPPED:
        target = importlib.import_module(f"circfreg.{module}")
        assert callable(getattr(target, name, None)), (module, name)


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
          "rho": (0.01, 10.0), "pen_const_known": (1e-3, 10.0),
          "pen_const_unknown": (1e-3, 10.0)}
_EDGES = {"a": (0.3, 1e-300, 50.0, 1e300, 1e308), "p": (0.3, 300.0, 400.0, 1e300, 1e308),
          "s": (2.0, 300.0, -1e300, -1e308), "sigma": (0.0, 1e-300, 1e154, 1e200),
          "rho": (1e-300, 1e154, 1e300, 1e308), "pen_const_known": (1e-300, 1e300),
          "pen_const_unknown": (1e-300, 1e300)}


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
)
def test_any_override_exits_0_2_or_3_and_writes_only_finite_floats(
        command, regime, values, n_grid, replications, j_max):
    overrides = {"regime": regime, **{k: repr(v) for k, v in values.items()},
                 "n_grid": ",".join(map(str, n_grid)), "replications": str(replications),
                 "j_max": j_max, "variant": "both"}
    with tempfile.TemporaryDirectory() as work:
        config, out = Path(work) / "run.cfg", Path(work) / "out"
        config.write_text(BASE)
        argv = [command, "--config", str(config), "--out", str(out)]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(io.StringIO())):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3)
        # README: no run prints a numpy warning, whatever its exit code
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert _nonfinite_outputs(out, len(n_grid) == 1) == []
