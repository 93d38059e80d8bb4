"""Print a SHA-256 digest of every CSV a fixed set of CLI runs writes, and of
the stderr of a fixed set of runs that must fail.

    python3 scripts/golden_digests.py > digests.txt
    python3 scripts/golden_digests.py --against REV

Runs ``python -m circfreg.cli`` from the ``src`` of the checkout holding this
script on the golden configs and a few overridden variants of them, then
prints one ``sha256  path`` line per CSV, sorted by path.  Each run writes
to its own ``--out`` directory inside one temporary working directory, and
the path listed is relative to it; no CSV quotes its directory, so the
listing is the same for any checkout.  A
refactor that must keep the outputs byte-identical passes when the listings
match.  Every run must exit 0 and write nothing to stderr (a numpy warning,
say); otherwise the script names the run, prints its stderr and exits 1.

Then it runs the documented error paths in ``FAILS`` and prints one
``exit N  sha256  name`` line per run, digesting its stderr; a run whose exit
code is not the expected 2 or 3 is named and the script exits 1.  None of
these messages quotes a path; only ``estimate_files``, ``mc_risk_normals``,
``estimate_normals`` and ``mc_risk_factor`` quote a size bound.

``--against REV`` extracts git revision REV with ``git archive REV | tar -x``
into a temporary directory (nothing is written under ``.git``), lists it with
its own copy of this script, lists this checkout as above, and prints the
lines found in only one listing, ``-`` for REV and ``+`` for this checkout.
It exits 1 on any such line, so a run added since REV shows as one ``+``
line.  An older tree is listed only by its own copy of this script: this run
set may hold runs that an older ``src`` cannot refuse cheaply.

The set runs ``simulate`` on golden PE at n = 500 only: its n = 8000 sample
would be an 8000 x 8001 CSV of about 1.4 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _overrides(*items) -> tuple:
    return tuple(arg for item in items for arg in ("--override", item))


BOTH = _overrides("variant=both", "pen_const_known=0.3")

# (output directory, subcommand, config name, extra CLI arguments)
RUNS = (
    ("pp_rates", "rates", "golden_pp.cfg", ()),
    ("pp_mc", "mc-risk", "golden_pp.cfg", ()),
    ("pp_mc_both", "mc-risk", "golden_pp.cfg", BOTH),
    # odd R takes the middle-element branch of the median; the others have even R
    ("pp_mc_odd", "mc-risk", "golden_pp.cfg", BOTH + _overrides("replications=5")),
    # sigma = 0: tau^2 is the noise folded past J alone
    ("pp_mc_noiseless", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("sigma=0", "replications=20")),
    ("pp_est", "estimate", "golden_pp.cfg", BOTH + _overrides("replications=2")),
    ("pp_sim", "simulate", "golden_pp.cfg", _overrides("n_grid=250,500")),
    ("pp_jmax", "mc-risk", "golden_pp.cfg", BOTH + _overrides("j_max=60", "replications=50")),
    ("pp_jmax_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("j_max=60", "replications=1")),
    # j_max = 8 clips the known-degree bound min(M_n, J) at n >= 1000 (M_n = 9..13)
    ("pp_jmax_clip", "mc-risk", "golden_pp.cfg", BOTH + _overrides("j_max=8", "replications=50")),
    ("pp_jmax_clip_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("j_max=8", "replications=1")),
    # s = 1 makes the weight cap N_n = floor(sqrt(n)) bind
    ("pp_s1_rates", "rates", "golden_pp.cfg", _overrides("s=1", "p=3")),
    ("pp_s1_mc", "mc-risk", "golden_pp.cfg", BOTH + _overrides("s=1", "p=3", "replications=50")),
    ("pp_s1_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("s=1", "p=3", "replications=1", "n_grid=250,1000")),
    # plans past one 2^12-index block: n up to 64000, alive windows to 261
    ("pp_mc_wide", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("n_grid=250,1000,4000,16000,64000", "replications=20")),
    # M_n = 79 at n = 10^6: the bound's upward scan reads one block of scales
    ("pp_mc_1e6", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("n_grid=250,1000000", "replications=2")),
    # perfect squares, where the closed-form N_n = sqrt(n) = 64, 256 set n_coef up to
    # version 0.3.0; the engine now simulates every coordinate (J = 73, 265)
    ("pp_s1_squares", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("s=1", "p=3", "n_grid=4096,65536", "replications=20")),
    # 10000 rows of scales.csv, written a block at a time
    ("pp_rates_wide", "rates", "golden_pp.cfg", _overrides("n_grid=250,10000")),
    # 2a past float range: lambda_j = 0 past j = 1, so scales.csv holds m = 1 alone
    # and the rate is 1.0
    ("pp_rates_a_huge", "rates", "golden_pp.cfg", _overrides("a=1e308")),
    # 2p past float range: the rate exponent -(p - s)/(a + p + 1/2) is -1, the rate 1/n
    ("pp_mc_p_huge", "mc-risk", "golden_pp.cfg", _overrides("p=1e308", "replications=2")),
    # 2a and -2s past float range: log omega_j and log lambda_j are both -inf from
    # j = 3 on, and their ratio, read by the scales and the m_star_n sum, is one log power
    ("pp_rates_a_s_huge", "rates", "golden_pp.cfg", _overrides("a=1e308", "s=-1e308")),
    ("pp_est_a_s_huge", "estimate", "golden_pp.cfg",
     BOTH + _overrides("a=1e308", "s=-1e308", "replications=1", "n_grid=250,1000")),
    # finite log terms whose sum, in the m_star_n and m_dagger_n criteria, is +inf
    ("pp_rates_a_p_huge", "rates", "golden_pp.cfg", _overrides("a=1e308", "p=1e308")),
    # 2s and 2p past float range: a running aggregate less c_m in the m_star_n and
    # m_dagger_n criteria is inf - inf, taken as 0, so both are 1, their limit
    ("pp_rates_s_p_huge", "rates", "golden_pp.cfg",
     _overrides("s=1e308", f"p={sys.float_info.max!r}")),
    ("pe_rates", "rates", "golden_pe.cfg", ()),
    ("pe_rates_p_s_huge", "rates", "golden_pe.cfg", _overrides("p=1e308", "s=-1e308")),
    ("pe_mc", "mc-risk", "golden_pe.cfg", ()),
    ("pe_mc_w2", "mc-risk", "golden_pe.cfg", ("--workers", "2")),
    ("pe_mc_both", "mc-risk", "golden_pe.cfg", BOTH),
    ("pe_mc_one", "mc-risk", "golden_pe.cfg", BOTH + _overrides("replications=1")),
    ("pe_est", "estimate", "golden_pe.cfg", BOTH + _overrides("replications=2")),
    # most of this sample prints in exponent form, many with 3-digit exponents
    ("pe_sim", "simulate", "golden_pe.cfg", _overrides("n_grid=500")),
    # alive window J of 7..13 at n up to 10^6
    ("pe_mc_wide", "mc-risk", "golden_pe.cfg",
     BOTH + _overrides("n_grid=500,8000,100000,1000000", "replications=20")),
    # n = 10^8, the largest n a plan takes, against an alive window of 19
    ("pe_mc_1e8", "mc-risk", "golden_pe.cfg",
     BOTH + _overrides("n_grid=500,100000000", "replications=20")),
    ("ep_rates", "rates", "golden_pp.cfg", _overrides("regime=EP", "p=1")),
    # 2s past float range: simulate's default truncation reads m_dagger_n at inf - inf
    ("ep_sim_s_huge", "simulate", "golden_pp.cfg",
     _overrides("regime=EP", "s=1e308", "n_grid=10,20")),
    # 2a and 2s past float range: log omega_2 - log lambda_2 overflows to its limit, +inf
    ("ep_est_a_s_huge", "estimate", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "a=1e308", "s=1e308", "replications=1")),
    ("ep_mc", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "p=1", "replications=50")),
    ("ep_est", "estimate", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "p=1", "replications=1", "n_grid=250,1000")),
    # an EP slope is 0 past j = 37, so most of each plan's sums are runs of zeros
    ("ep_mc_wide", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "p=1", "n_grid=250,4000,100000", "replications=10")),
)

# (name, subcommand, config name, extra CLI arguments, expected exit code)
FAILS = (
    ("replications_none", "mc-risk", "golden_pp.cfg", _overrides("replications=none"), 2),
    ("n_grid_none", "mc-risk", "golden_pp.cfg", _overrides("n_grid=none"), 2),
    ("seed_none", "mc-risk", "golden_pp.cfg", _overrides("seed=none"), 2),
    # pairing is fixed since 0.8.0: the key is unknown
    ("enforce_pair_key", "mc-risk", "golden_pp.cfg", _overrides("enforce_pair=true"), 2),
    ("replications_ten", "mc-risk", "golden_pp.cfg", _overrides("replications=ten"), 2),
    ("unknown_key", "mc-risk", "golden_pp.cfg", _overrides("turbo=yes"), 2),
    ("override_without_eq", "mc-risk", "golden_pp.cfg", _overrides("turbo"), 2),
    # three violations, reported together
    ("three_violations", "mc-risk", "golden_pp.cfg",
     _overrides("a=0.1", "rho=-1", "replications=0"), 2),
    ("a_nan", "mc-risk", "golden_pp.cfg", _overrides("a=nan"), 2),
    ("sigma_overflow", "mc-risk", "golden_pp.cfg", _overrides("sigma=1e200"), 3),
    # sigma_y2 is finite, but the data-driven penalty's product overflows
    ("pen_const_overflow", "estimate", "golden_pp.cfg", _overrides("pen_const_unknown=1e308"), 3),
    # 10^7 files, over the 2^16-file budget of estimate
    ("estimate_files", "estimate", "golden_pp.cfg", _overrides("replications=1000000"), 2),
    # 5.8 x 10^9 normals, over the 2^30-normal budget of mc-risk: about 40 minutes
    # of replicates, though its replicate array fits the 2^24-value budget
    ("mc_risk_normals", "mc-risk", "golden_pp.cfg", _overrides("replications=1000000"), 2),
    # 2^16 files, within the file budget of estimate, but 1.12 x 10^9 normals at
    # J = 261, over the normals budget it shares with mc-risk
    ("estimate_normals", "estimate", "golden_pp.cfg",
     _overrides("n_grid=64000", "replications=32768"), 2),
    # 1.18 x 10^8 normals, within the normals budget, but a 15338 x 15338 factor
    # (1.75 GiB) at n = 10^5, over the factor budget
    ("mc_risk_factor", "mc-risk", "golden_pp.cfg",
     _overrides("a=0.6", "n_grid=100000", "replications=1"), 2),
    # slope sums past J still running after 2^24 terms: the tail, and at s = -1,
    # a = 0.6 the noise folded into tau, which fails first; both name p
    ("ep_tail_slow", "mc-risk", "golden_pp.cfg", _overrides("regime=EP", "p=0.05"), 3),
    ("ep_folded_slow", "mc-risk", "golden_pp.cfg",
     _overrides("regime=EP", "p=0.05", "s=-1", "a=0.6"), 3),
    # the slope's scale sqrt(rho / norm) past float range names rho
    ("ep_rho_huge", "simulate", "golden_pp.cfg",
     _overrides("regime=EP", "rho=1e308", "n_grid=10,20"), 3),
    # omega_j = inf weighs a nonzero slope coefficient: the oracle risk is inf
    ("ep_mc_a_s_huge", "mc-risk", "golden_pp.cfg",
     BOTH + _overrides("regime=EP", "a=1e308", "s=1e308"), 3),
)


def listing():
    """The digest lines of every run from this checkout's ``src``, or None
    after naming a failed run on stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines = []
    with tempfile.TemporaryDirectory(prefix="circfreg_digests_") as work:
        def run(out, command, config, extra):
            cmd = [sys.executable, "-m", "circfreg.cli", command,
                   "--config", str(ROOT / "configs" / config), "--out", out]
            return subprocess.run(cmd + list(extra), cwd=work, env=env,
                                  capture_output=True, text=True)

        for out, *call in RUNS:
            done = run(out, *call)
            if done.returncode != 0 or done.stderr:
                print(f"{out}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return None
        for path in sorted(Path(work).rglob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(work)}")
        for name, *call, expected in FAILS:
            done = run(name, *call)
            if done.returncode != expected:
                print(f"{name}: exit {done.returncode}, expected {expected}\n{done.stderr}",
                      file=sys.stderr)
                return None
            digest = hashlib.sha256(done.stderr.encode()).hexdigest()
            lines.append(f"exit {done.returncode}  {digest}  {name}")
    return lines


def against(rev: str) -> int:
    """Print the lines of REV's listing and this one that differ; 1 if any do."""
    with tempfile.TemporaryDirectory(prefix="circfreg_rev_") as tree:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 1
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        # REV's own copy of this script lists its tree, beside this listing
        script = Path(tree) / "scripts" / Path(__file__).name
        before = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True)
        after = listing()
        old = before.communicate()[0].splitlines()
    if before.returncode or after is None:
        return 1
    diff = [f"- {line}" for line in old if line not in after]
    diff += [f"+ {line}" for line in after if line not in old]
    print("\n".join(diff) if diff else f"{len(after)} lines, identical to {rev}")
    return 1 if diff else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff against the listing of git revision REV")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    lines = listing()
    if lines is None:
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
