"""Print a SHA-256 digest of every CSV a fixed set of CLI runs writes.

    python3 scripts/golden_digests.py [CHECKOUT] > digests.txt

Runs ``python -m circfreg.cli`` from ``CHECKOUT/src`` (default: the checkout
holding this script) on the golden configs and a few overridden variants of
them, then prints one ``sha256  path`` line per CSV, sorted by path.  Each
run writes to a relative ``--out`` inside one temporary working directory,
so the ``out_dir`` echoed into every CSV is the same for any checkout, and
two checkouts can be compared with ``diff``.  A refactor that must keep the
outputs byte-identical passes when the two listings match.

The set never runs ``simulate`` on golden PE: its n = 8000 sample would be
an 8000 x 8001 CSV of about 1.4 GB.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _overrides(*items) -> tuple:
    return tuple(arg for item in items for arg in ("--override", item))


BOTH = _overrides("variant=both", "pen_const_known=0.3")

# (output directory, subcommand, config name, extra CLI arguments)
RUNS = (
    ("pp_rates", "rates", "golden_pp.cfg", ()),
    ("pp_mc", "mc-risk", "golden_pp.cfg", ()),
    ("pp_mc_both", "mc-risk", "golden_pp.cfg", BOTH),
    ("pp_est", "estimate", "golden_pp.cfg", BOTH + _overrides("replications=2")),
    ("pp_sim", "simulate", "golden_pp.cfg", _overrides("n_grid=250,500")),
    ("pp_jmax", "mc-risk", "golden_pp.cfg", BOTH + _overrides("j_max=60", "replications=50")),
    ("pp_jmax_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("j_max=60", "replications=1")),
    # s = 1 makes the weight cap N_n = floor(sqrt(n)) bind
    ("pp_s1_rates", "rates", "golden_pp.cfg", _overrides("s=1", "p=3")),
    ("pp_s1_mc", "mc-risk", "golden_pp.cfg", BOTH + _overrides("s=1", "p=3", "replications=50")),
    ("pp_s1_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("s=1", "p=3", "replications=1", "n_grid=250,1000")),
    ("pe_rates", "rates", "golden_pe.cfg", ()),
    ("pe_mc", "mc-risk", "golden_pe.cfg", ()),
    ("pe_mc_w2", "mc-risk", "golden_pe.cfg", ("--workers", "2")),
    ("pe_mc_both", "mc-risk", "golden_pe.cfg", BOTH),
    ("pe_est", "estimate", "golden_pe.cfg", BOTH + _overrides("replications=2")),
    # alive window J of 7..13 against n_coef up to 10^6
    ("pe_mc_wide", "mc-risk", "golden_pe.cfg",
     BOTH + _overrides("n_grid=500,8000,100000,1000000", "replications=20")),
    ("ep_rates", "rates", "golden_pp.cfg", _overrides("regime=EP", "p=1")),
    ("ep_mc", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "p=1", "replications=50")),
    ("ep_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "p=1", "replications=1", "n_grid=250,1000")),
)


def main(argv) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory(prefix="circfreg_digests_") as work:
        for out, command, config, extra in RUNS:
            cmd = [sys.executable, "-m", "circfreg.cli", command,
                   "--config", str(checkout / "configs" / config), "--out", out]
            done = subprocess.run(cmd + list(extra), cwd=work, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{out}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
        for path in sorted(Path(work).rglob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
