"""Fixed-seed outputs compared with files committed beside this module.

Criterion 10 checks that two runs of one version agree; these checks pin
the outputs across versions, so a change to the samplers' arithmetic or
to their order of draws fails here.  The phase-1 digest was written by the
plain full-array samplers that preceded the blocked ones.  The baseline
CSV and the adaptive digest were written when piecewise came to draw one
uniform per value, hybrid two and the adaptive noise one per client in
data order (see the stream contract in the README); Duchi's and Laplace's
rows are the same as before.  They assume numpy's Philox stream and its
random and integers methods; regenerate them
(``python3 tests/test_golden.py``) only for a change that declares new CLI
output.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
ESTIMATE_ARGS = [
    "estimate", "--mechanisms", "duchi,piecewise,hybrid,laplace",
    "--n", "40000", "--runs", "2", "--eps", "0.5,1,4", "--seed", "2024",
]
ESTIMATE_CSV = GOLDEN / "estimate_baselines.csv"
# SHA-256 of adaptive_perturb_sample(): the reports' float64 bytes, then
# the generator's next uniform
ADAPTIVE_SHA256 = "bfeb73f5bd11067fdf6e4355981f4666c47cfb1d84dde20278c4066409c3eeb5"
# SHA-256 of phase1_sample(): the pmf float64 bytes per eps, then the
# generator's next uniform
PHASE1_SHA256 = "5c718417df5d2cd258a70cbce427968def154952421eac92f7bf3aa50d9e8321"


def estimate_csv() -> bytes:
    """The estimate command's CSV bytes for ESTIMATE_ARGS."""
    import contextlib
    import io

    from ldpmean import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ESTIMATE_ARGS + ["--out", "-"]) == 0
    return out.getvalue().encode()


def adaptive_perturb_sample() -> bytes:
    """adaptive_perturb_array on a hand-built table.

    The masses are small binary fractions, so the table's bits do not
    depend on an LP solver; 3 * 2^14 + 7 clients cross several blocks.  The
    end columns are empty, as in tables whose optimum stays inside the
    window.
    """
    from ldpmean.adaptive import NoiseShape, NoiseTable, adaptive_perturb_array
    from ldpmean.domain import make_domain

    domain = make_domain(1.0, 4)
    i, j = np.meshgrid(np.arange(5), np.arange(13), indexing="ij")
    q = ((3 * i + 5 * j) % 7 + 1) / 64.0
    q[:, [0, -1]] = 0.0
    table = NoiseTable(domain=domain, shape=NoiseShape(m=6), q=q, eps=1.0)
    rng = np.random.Generator(np.random.Philox(2024))
    xs = rng.random(3 * 2**14 + 7) * 2.0 - 1.0
    xs[:5] = domain.edges
    reports = adaptive_perturb_array(table, xs, rng)
    return reports.tobytes() + np.float64(rng.random()).tobytes()


def phase1_sample() -> bytes:
    """collect_perturbed_histogram, then reconstruct_pmf, at N = 8 and
    eps 0.5 and 4, on one stream.

    3 * 2^14 + 7 clipped N(0.3, 0.25) clients, the first nine on the edges,
    cross several blocks; at eps = 0.5 the inversion sends two masses
    negative, so the clip and the renormalization are pinned too.
    """
    from ldpmean.domain import make_domain
    from ldpmean.freqest import collect_perturbed_histogram, reconstruct_pmf

    domain = make_domain(1.0, 8)
    rng = np.random.Generator(np.random.Philox(2024))
    xs = np.clip(rng.normal(0.3, 0.25, 3 * 2**14 + 7), -1.0, 1.0)
    xs[:9] = domain.edges
    out = b""
    for eps in (0.5, 4.0):
        counts = collect_perturbed_histogram(domain, xs, eps, rng)
        out += reconstruct_pmf(counts, eps).masses.tobytes()
    return out + np.float64(rng.random()).tobytes()


def test_estimate_baselines_csv():
    assert estimate_csv() == ESTIMATE_CSV.read_bytes()


def test_adaptive_perturb_digest():
    assert hashlib.sha256(adaptive_perturb_sample()).hexdigest() == ADAPTIVE_SHA256


def test_phase1_digest():
    assert hashlib.sha256(phase1_sample()).hexdigest() == PHASE1_SHA256


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    ESTIMATE_CSV.write_bytes(estimate_csv())
    print("adaptive sha256", hashlib.sha256(adaptive_perturb_sample()).hexdigest())
    print("phase-1 sha256", hashlib.sha256(phase1_sample()).hexdigest())
