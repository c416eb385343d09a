"""Write the reference masses that tests/test_data.py checks true_pmf against.

    python3 tests/true_pmf_reference.py

Needs mpmath (written with 1.3.0), which neither the package nor its tests
import.  For each law and each N in (1, 4, 32) on [-1, 1], and for the Beta
laws at N=64 too, it evaluates the tent moments m0 = int g and
m1 = int (x - x_i) g of every segment at 40 significant digits, from
mpmath's own erf, exp and regularized incomplete beta, and cross-checks
them against mpmath's quadrature of the same
integrals (split at the Gaussian's mean and at mu +- k sd; next to the
u^-0.7 singularity of Beta(0.3, 3) quadrature itself is off by about 2e-14).
The parameters are the float64 values the tests pass.  The masses and the
law's mean (its closed form) are rounded to float64 and written to
tests/golden/true_pmf_mpmath.json.  Laws: Gaussians at mu = 0.3 with sd in
(1e-4, 0.1, 10, 1e5), shifted exponentials with rate in (1, 6, 30), and
Beta (1, 1), (0.5, 0.5), (0.3, 3) and (7.5, 0.8).
"""

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "golden" / "true_pmf_mpmath.json"
N_BINS = (1, 4, 32)
# the Beta masses lose accuracy as N grows: the tent moments cancel down to
# about a segment's mass over 2N
BETA_N_BINS = (*N_BINS, 64)
LAWS = (
    *(("gaussian", {"mu": 0.3, "sd": sd}) for sd in (1e-4, 0.1, 10.0, 1e5)),
    *(("exponential", {"rate": rate}) for rate in (1.0, 6.0, 30.0)),
    *(("beta", {"a": a, "b": b}) for a, b in ((1.0, 1.0), (0.5, 0.5), (0.3, 3.0), (7.5, 0.8))),
)


def moments(kind, p, lo, hi):
    """(m0, m1) of the law's unnormalized density on [lo, hi], closed form."""
    if kind == "gaussian":
        mu, sd = p["mu"], p["sd"]
        y = lambda x: (x - mu) / (sd * mp.sqrt(2))  # noqa: E731
        m0 = sd * mp.sqrt(mp.pi / 2) * (mp.erf(y(hi)) - mp.erf(y(lo)))
        return m0, sd**2 * (mp.exp(-y(lo) ** 2) - mp.exp(-y(hi) ** 2)) + (mu - lo) * m0
    if kind == "exponential":
        rate = p["rate"]
        g, a = mp.exp(-rate * (lo + 1)), rate * (hi - lo)
        return g * -mp.expm1(-a) / rate, g * (1 - mp.exp(-a) * (1 + a)) / rate**2
    a, b = p["a"], p["b"]
    u_lo, u_hi = (lo + 1) / 2, (hi + 1) / 2
    m0 = mp.betainc(a, b, u_lo, u_hi, regularized=True)
    m1 = a / (a + b) * mp.betainc(a + 1, b, u_lo, u_hi, regularized=True) - u_lo * m0
    return m0, 2 * m1


def density(kind, p):
    """The unnormalized density that moments integrates, and where quad
    should split a segment."""
    if kind == "gaussian":
        mu, sd = p["mu"], p["sd"]
        return (lambda x: mp.exp(-((x - mu) / sd) ** 2 / 2)), [
            mu + k * sd for k in (-64, -16, -4, -1, 0, 1, 4, 16, 64)
        ]
    if kind == "exponential":
        return (lambda x: mp.exp(-p["rate"] * (x + 1))), []
    a, b = p["a"], p["b"]
    scale = 2 * mp.beta(a, b)  # the closed form's m0 is normalized
    return (lambda x: ((x + 1) / 2) ** (a - 1) * ((1 - x) / 2) ** (b - 1) / scale), []


def mean(kind, p):
    """E[X] of the law truncated to [-1, 1]."""
    if kind == "gaussian":
        m0, m1 = moments(kind, p, mp.mpf(-1), mp.mpf(1))
        return -1 + m1 / m0
    if kind == "exponential":
        rate = p["rate"]
        return -1 + 1 / rate - 2 / mp.expm1(2 * rate)
    return 2 * p["a"] / (p["a"] + p["b"]) - 1


def cell(kind, p, n):
    sigma = mp.mpf(2) / n
    edges = [-1 + i * sigma for i in range(n + 1)]
    g, splits = density(kind, p)
    raw, quad = [mp.mpf(0)] * (n + 1), [mp.mpf(0)] * (n + 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        points = [lo, *(t for t in splits if lo < t < hi), hi]
        for masses, (m0, m1) in (
            (raw, moments(kind, p, lo, hi)),
            (quad, (mp.quad(g, points), mp.quad(lambda x: (x - lo) * g(x), points))),
        ):
            masses[i] += m0 - m1 / sigma
            masses[i + 1] += m1 / sigma
    masses = [r / sum(raw) for r in raw]
    gap = max(abs(m - q / sum(quad)) for m, q in zip(masses, quad))
    drift = abs(sum(m * x for m, x in zip(masses, edges)) - mean(kind, p))
    return masses, gap, drift


def main():
    mp.mp.dps = 40
    cells = []
    for kind, spec in LAWS:
        p = {k: mp.mpf(v) for k, v in spec.items()}
        for n in BETA_N_BINS if kind == "beta" else N_BINS:
            masses, gap, drift = cell(kind, p, n)
            print(f"{kind} {spec} N={n}: quadrature within {mp.nstr(gap, 2)}, "
                  f"mean within {mp.nstr(drift, 2)}")
            cells.append({
                "law": kind, **spec, "n_bins": n,
                "masses": [float(m) for m in masses], "mean": float(mean(kind, p)),
            })
    OUT.write_text("[\n" + ",\n".join(json.dumps(c) for c in cells) + "\n]\n")
    print(f"wrote {len(cells)} cells to {OUT}")


if __name__ == "__main__":
    main()
