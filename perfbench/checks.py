"""Output checks for the benchmark's CLI runs.

Each check returns a list of error strings (empty when the output is
correct).  They read only what the CLI wrote and know nothing of how it
computed it, so they hold across refactors of the program.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

RISK_HEADER = (
    "n,variant,mean_risk,median_risk,median_m_hat,median_M_hat,"
    "oracle_m,oracle_risk,theoretical_rate"
)
TRACE_HEADER = "m,contrast,penalty,delta_used,admissible,chosen"
BETAHAT_HEADER = "j,coef"
_MAX_ERRORS = 5


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _meta(comment: str, key: str) -> str | None:
    match = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", comment)
    return match.group(1) if match else None


def tree_digest(out: Path):
    """(sha256 over names and contents, total bytes, file count) of a flat directory."""
    digest = hashlib.sha256()
    total = 0
    files = sorted(out.iterdir())
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
        total += len(data)
    return digest.hexdigest(), total, len(files)


def risk_report_slopes(path: Path) -> dict:
    """Fitted slopes from the risk report's comment line, as strings."""
    with open(path) as fh:
        return dict(re.findall(r"slope_(\w+)=(\S+)", fh.readline()))


def check_risk_report(out: Path, grid, variants) -> list:
    """mc-risk: expected header, one row per (variant, n), every float finite."""
    path = out / "risk_report.csv"
    if not path.is_file():
        return ["risk_report.csv missing"]
    lines = path.read_text().splitlines()
    errors = []
    slopes = risk_report_slopes(path)
    if sorted(slopes) != sorted(variants):
        errors.append(f"slope variants {sorted(slopes)} != {sorted(variants)}")
    errors += [f"slope_{v}={s} not finite" for v, s in slopes.items() if not _finite(s)]
    if len(lines) < 2 or lines[1] != RISK_HEADER:
        return errors + ["risk_report.csv header mismatch"]
    expected = [(str(n), v) for v in variants for n in grid]
    rows = [line.split(",") for line in lines[2:]]
    if [tuple(r[:2]) for r in rows] != expected:
        errors.append(f"rows {[tuple(r[:2]) for r in rows]} != {expected}")
    for row in rows:
        if len(row) != 9 or not all(_finite(x) for x in row[2:6] + row[7:]):
            errors.append(f"bad or non-finite row {','.join(row)}")
        elif not row[6].isdigit() or int(row[6]) < 1:
            errors.append(f"bad oracle_m in row {','.join(row)}")
    return errors[:_MAX_ERRORS]


def _check_sample(path: Path, n: int) -> list:
    lines = path.read_text().splitlines()
    n_coef = _meta(lines[0], "n_coef") if lines else None
    if n_coef is None or not n_coef.isdigit():
        return [f"{path.name}: no n_coef in comment"]
    width = int(n_coef) + 1
    header = "y," + ",".join(f"x_{j}" for j in range(1, width))
    if len(lines) != n + 2 or lines[1] != header:
        return [f"{path.name}: expected header and {n} rows of {width} columns"]
    for i, line in enumerate(lines[2:], start=1):
        fields = line.split(",")
        if len(fields) != width or not all(_finite(x) for x in fields):
            return [f"{path.name}: row {i} has bad shape or a non-finite value"]
    return []


def _check_trace(path: Path):
    """Return (errors, m_hat) for one selection-trace CSV."""
    lines = path.read_text().splitlines()
    if len(lines) < 3:
        return [f"{path.name}: too short"], None
    m_hat, adm = _meta(lines[0], "m_hat"), _meta(lines[0], "admissible_max")
    if m_hat is None or adm is None or lines[1] != TRACE_HEADER:
        return [f"{path.name}: bad comment or header"], None
    m_hat, adm = int(m_hat), int(adm)
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != adm or [r[0] for r in rows] != [str(m) for m in range(1, adm + 1)]:
        return [f"{path.name}: expected rows m = 1..{adm}"], None
    if any(len(r) != 6 or r[4] != "1" or not all(_finite(x) for x in r[1:4]) for r in rows):
        return [f"{path.name}: bad or non-finite row"], None
    chosen = [int(r[0]) for r in rows if r[5] == "1"]
    if chosen != [m_hat] or any(r[5] not in ("0", "1") for r in rows):
        return [f"{path.name}: chosen rows {chosen} != [m_hat={m_hat}]"], None
    return [], m_hat


def _check_betahat(path: Path, m_hat: int) -> list:
    lines = path.read_text().splitlines()
    if len(lines) != m_hat + 2 or lines[1] != BETAHAT_HEADER:
        return [f"{path.name}: expected {m_hat} coefficient rows"]
    for j, line in enumerate(lines[2:], start=1):
        fields = line.split(",")
        if len(fields) != 2 or fields[0] != str(j) or not _finite(fields[1]):
            return [f"{path.name}: bad row {j}"]
    return []


def check_artifacts(out: Path, grid, replications: int, variants) -> list:
    """simulate + estimate: one n x (n_coef+1) sample per n, exactly
    |grid|*R*|variants| traces and betahats, each trace with one chosen row at
    its m_hat, each betahat with m_hat rows."""
    stems = [f"{v}_n{n}_r{r}" for n in grid for r in range(replications) for v in variants]
    expected = {f"sample_n{n}.csv" for n in grid}
    expected |= {f"{kind}_{stem}.csv" for stem in stems for kind in ("trace", "betahat")}
    present = {p.name for p in out.iterdir()}
    errors = []
    if present != expected:
        errors.append(
            f"{len(expected - present)} expected files missing, "
            f"{len(present - expected)} unexpected files present"
        )
    for n in grid:
        if f"sample_n{n}.csv" in present:
            errors += _check_sample(out / f"sample_n{n}.csv", n)
    for stem in stems:
        if len(errors) >= _MAX_ERRORS:
            break
        if f"trace_{stem}.csv" not in present or f"betahat_{stem}.csv" not in present:
            continue
        trace_errors, m_hat = _check_trace(out / f"trace_{stem}.csv")
        errors += trace_errors
        if m_hat is not None:
            errors += _check_betahat(out / f"betahat_{stem}.csv", m_hat)
    return errors[:_MAX_ERRORS]


def csv_writer_files(out: Path):
    """(file count, bytes) of the files the CLI writes through its
    ``write_*_csv`` functions; betahat files are written inline by ``estimate``."""
    patterns = ("risk_report.csv", "trace_*.csv", "sample_*.csv")
    sizes = [p.stat().st_size for pattern in patterns for p in out.glob(pattern)]
    return len(sizes), sum(sizes)
