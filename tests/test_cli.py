import multiprocessing.process

import numpy as np
import pytest

from circfreg.cli import main

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

    def explode(cfg, workers=1):
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


@pytest.mark.parametrize("override, key", [("sigma=nan", "sigma"), ("a=inf", "a"),
                                           ("rho=inf", "rho")])
def test_nonfinite_override_exits_2(config_file, tmp_path, capsys, override, key):
    code = main(["mc-risk", "--config", str(config_file), "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    assert f"config error: {key}: must be finite" in capsys.readouterr().err
