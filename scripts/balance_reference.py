"""Check the balancing indices m_star_n and m_dagger_n against an mpmath scan.

    python3 scripts/balance_reference.py

For each case, the huge-s EP cases and the ``rates`` runs of the huge-input
digests (``scripts/golden_digests.py``) at every n of their grid, with the
plain ``rates`` runs on golden PP, golden PE and EP as controls, it scans
both criteria over m = 1..n at 60 significant digits, straight from their
definitions:

* m_star_n minimizes |log gamma_m - log n + log sum_{j<=m} (omega_j / omega_m) / lambda_j|;
* m_dagger_n minimizes |log gamma_m - log n + log(delta_m / omega_m)|, with
  log(delta_m / omega_m) = log m + max_{j<=m} log((omega_j / omega_m) / lambda_j)
  + log |log(kappa_m v (m+2)) / log(m+2)| and kappa_m = max_{j<=m} (omega_j v 1) / lambda_j.

Every exponent is formed as one product, 2 s log(j/m) for omega_j / omega_m,
so nothing near 2 s log m cancels, and mpmath's exponent range holds every
value that overflows a float.  A criterion is at least log gamma_m - log
lambda_m - log n (plus log m for m_dagger_n), which never decreases with m,
so the scan stops once that bound exceeds the best value so far: no later m
can win.  Ties go to the smallest m, as in the library.

It prints the reference index beside circfreg's (from ``src`` next to this
script) and exits 1 on any mismatch.  Run ``pip install -e '.[scripts]'``
for mpmath.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import circfreg as cf  # noqa: E402

mp.mp.dps = 60
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def golden(name: str, **overrides) -> cf.RunConfig:
    return replace(cf.parse_config((CONFIG_DIR / f"golden_{name}.cfg").read_text()), **overrides)


def huge_s_cases():
    """EP at a = 1, p = 2, n = 40, paired, across s; and the EP sample run of
    the digests at s = 1e308, whose default truncation reads m_dagger_n."""
    for s in ("300", "1e300", "1e308"):
        yield f"EP a=1 p=2 s={s}", cf.SequenceSpec("EP", 1.0, 2.0, float(s), True), (40,)
    cfg = golden("pp", regime="EP", s=1e308, n_grid=(10, 20))
    yield "ep_sim_s_huge", cfg.sequence_spec(), cfg.n_grid


def rates_cases():
    """The huge-input ``rates`` digest runs, at their golden config's n_grid,
    after the plain ``rates`` runs, whose indices pass 1."""
    runs = (("pp_rates", golden("pp")), ("pe_rates", golden("pe")),
            ("ep_rates", golden("pp", regime="EP", p=1.0)),
            ("pp_rates_a_huge", golden("pp", a=1e308)),
            ("pp_rates_a_s_huge", golden("pp", a=1e308, s=-1e308)),
            ("pp_rates_a_p_huge", golden("pp", a=1e308, p=1e308)),
            ("pp_rates_s_p_huge", golden("pp", s=1e308, p=sys.float_info.max)),
            ("pe_rates_p_s_huge", golden("pe", p=1e308, s=-1e308)))
    for name, cfg in runs:
        yield name, cfg.sequence_spec(), cfg.n_grid


def log_gamma(spec, j):
    p = mp.mpf(spec.p)
    return mp.power(j, 2 * p) - 1 if spec.regime == "EP" else 2 * p * mp.log(j)


def log_lambda(spec, j):
    k = j - 1 if spec.enforce_pair and j >= 3 and j % 2 else j
    a = mp.mpf(spec.a)
    return -mp.power(k, 2 * a) if spec.regime == "PE" else -2 * a * mp.log(k)


def criteria(spec, n, m, log_lam):
    """(m_star_n criterion, m_dagger_n criterion) at m; log_lam[j - 1] = log lambda_j."""
    two_s = 2 * mp.mpf(spec.s)
    terms = [two_s * mp.log(mp.mpf(j) / m) - log_lam[j - 1] for j in range(1, m + 1)]
    log_kappa = max(max(two_s * mp.log(j), 0) - log_lam[j - 1] for j in range(1, m + 1))
    factor = abs(max(log_kappa, mp.log(m + 2)) / mp.log(m + 2))
    base = log_gamma(spec, m) - mp.log(n)
    star = abs(base + mp.log(mp.fsum(mp.exp(t) for t in terms)))
    dagger = abs(base + mp.log(m) + max(terms) + mp.log(factor))
    return star, dagger


def reference(spec, n):
    """(m_star_n, m_dagger_n, the last m scanned) at 60 digits."""
    log_lam, best, value, done = [], [1, 1], [mp.inf, mp.inf], [False, False]
    for m in range(1, n + 1):
        log_lam.append(log_lambda(spec, m))
        bound = log_gamma(spec, m) - log_lam[-1] - mp.log(n)
        lower = (bound, bound + mp.log(m))
        done = [d or lo > v for d, lo, v in zip(done, lower, value)]
        if all(done):
            return best[0], best[1], m
        for i, crit in enumerate(criteria(spec, n, m, log_lam)):
            if not done[i] and crit < value[i]:
                best[i], value[i] = m, crit
    return best[0], best[1], n


def main() -> int:
    failures = 0
    print(f"{'case':<22}{'n':>6}  m_star ref/lib  m_dagger ref/lib  scanned")
    for name, spec, grid in (*huge_s_cases(), *rates_cases()):
        for n in grid:
            star, dagger, scanned = reference(spec, n)
            lib = (cf.balance_m_star(spec, n), cf.balance_m_dagger(spec, n))
            ok = (star, dagger) == lib
            failures += not ok
            print(f"{name:<22}{n:>6}  {star:>6} / {lib[0]:<6}  {dagger:>8} / {lib[1]:<6}"
                  f"  {scanned:>7}{'' if ok else '  MISMATCH'}")
    print(f"{failures} mismatch(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
