"""The benchmark's workloads.

Each workload is a closed loop with a single caller: one pass of its timed
body is a fixed list of operations, run one after another from one process.
Inputs come only from the workload seed (and the pass index, so that a run
of several passes averages over several draws of the data); the package
receives only the generated inputs.  Every operation's output is checked
after its timed call.

- design-n16: the variance/optimize path, no client work.  15 noise tables
  solved directly from analytic pmfs at N=16, M=64, whose eps range spans
  window demand from offsets +-49 (eps 0.5) to +-18 (eps >= 4), plus the
  variance command at N=4 through the CLI.  Its programs (582 rows +
  variables) are the only ones the "auto" router sends to the embedded
  simplex; the N=16 programs go to HiGHS.
- clients-2m: the per-client path, the estimate command at scale.  2e6
  clipped-Gaussian clients at N=8, M=32; per (pass, eps) one run_protocol
  and the four baselines on the phase-2 clients.  Its small solves make it
  the workload a solver change should leave flat.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_objectives.json"

# a solved objective may differ from the committed reference by this much
OBJECTIVE_RTOL = 1e-9
# mean estimates must lie within this many standard errors of the truth
MAX_STANDARD_ERRORS = 6.0


class OpFailure(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    # None marks timed work that is not a counted operation
    check: Callable[[Any], None] | None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """ldpmean.cli.main in this process; returns its exit code and stdout."""
    from ldpmean import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _stream(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _check_within(label: str, estimate: float, truth: float, variance: float, n: int):
    se = math.sqrt(variance / n)
    if not abs(estimate - truth) <= MAX_STANDARD_ERRORS * se:
        raise OpFailure(
            f"{label}: estimate {estimate!r} is {abs(estimate - truth) / se:.1f} "
            f"standard errors from {truth!r}"
        )


def max_row_variance(table) -> float:
    """Largest conditional noise variance over the table's rows."""
    from ldpmean import analysis, domain

    rows = np.eye(table.domain.n_bins + 1)
    return max(analysis.expected_variance(table, domain.QuantizedPmf(r)) for r in rows)


class DesignN16:
    name = "design-n16"
    r = 0.5
    eps_grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    tiny_cells = (("uniform", 4.0), ("uniform", 8.0))
    # the variance command at N=4; eps 4 is left out because the embedded
    # simplex cannot solve these programs there (status iteration-limit)
    cli_pmf, cli_dataset, cli_bins = "gaussian", "gaussian:mu=0.0,sd=0.1", 4

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.cli_eps = (1.0,) if tiny else (1.0, 2.0)

    def setup(self) -> None:
        from ldpmean import adaptive, data, domain

        self.domain = domain.make_domain(1.0, 16)
        self.shape = adaptive.NoiseShape(m=64, r=self.r)
        dists = {
            "gaussian": data.TruncatedGaussian(mu=0.0, sd=0.1),
            "uniform": data.BetaDistribution(a=1.0, b=1.0),
            "exponential": data.ShiftedExponential(rate=6.0),
        }
        self.pmfs = {name: data.true_pmf(d, self.domain) for name, d in dists.items()}
        self.reference = {
            (c["pmf"], c["n_bins"], c["eps"]): c["lp_objective"]
            for c in json.loads(REFERENCE_PATH.read_text())["cells"]
        }
        cells = self.tiny_cells if self.tiny else tuple(
            (name, eps) for name in dists for eps in self.eps_grid
        )
        ops = [
            Op(f"{name}/n=16/eps={eps}", self._solver(name, eps), self._checker(name, eps))
            for name, eps in cells
        ]
        argv = [
            "variance", "--dataset", self.cli_dataset,
            "--bins", str(self.cli_bins), "--mechanisms", "adaptive",
            "--eps", ",".join(str(e) for e in self.cli_eps), "--out", "-",
        ]
        ops.append(Op(f"cli variance {self.cli_pmf}/n={self.cli_bins}",
                      lambda: run_cli(argv), self._check_variance_csv))
        # the seed fixes only the order of the operations
        order = np.random.default_rng(self.seed).permutation(len(ops))
        self._ops = [ops[i] for i in order]

    def ops(self, pass_index: int):
        return iter(self._ops)

    def _solver(self, pmf_name, eps):
        from ldpmean import adaptive

        pmf = self.pmfs[pmf_name]
        return lambda: adaptive.solve_noise_table(pmf, eps, self.shape, self.domain)

    def _check_objective(self, label, got, pmf_name, n_bins, eps):
        expected = self.reference[(pmf_name, n_bins, eps)]
        if not abs(got - expected) <= OBJECTIVE_RTOL * abs(expected):
            raise OpFailure(f"{label}: objective {got!r} != reference {expected!r}")

    def _checker(self, pmf_name, eps):
        from ldpmean import adaptive, analysis

        label = f"{pmf_name}/n=16/eps={eps}"

        def check(table):
            got = table.lp_objective
            self._check_objective(label, got, pmf_name, 16, eps)
            variance = analysis.expected_variance(table, self.pmfs[pmf_name])
            if not abs(variance - got) <= OBJECTIVE_RTOL * abs(got):
                raise OpFailure(f"{label}: expected_variance {variance!r} != objective {got!r}")
            if not adaptive.verify_privacy(table, eps).passed:
                raise OpFailure(f"{label}: privacy verification failed")

        return check

    def _check_variance_csv(self, outcome):
        code, text = outcome
        if code != 0:
            raise OpFailure(f"variance exited with code {code}")
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# ldpmean variance "):
            raise OpFailure("variance CSV lacks its configuration line")
        if lines[1] != "mechanism,eps,expected_variance":
            raise OpFailure(f"variance CSV header is {lines[1]!r}")
        rows = [line.split(",") for line in lines[2:]]
        if [len(r) for r in rows] != [3] * len(self.cli_eps) or \
                [float(r[1]) for r in rows] != sorted(self.cli_eps):
            raise OpFailure(f"variance CSV rows are {lines[2:]!r}")
        for mechanism, eps, value in rows:
            if mechanism != "adaptive":
                raise OpFailure(f"variance CSV row for mechanism {mechanism!r}")
            self._check_objective(f"cli variance eps={eps}", float(value),
                                  self.cli_pmf, self.cli_bins, float(eps))


class Clients2M:
    name = "clients-2m"
    n_bins, m, r = 8, 32, 0.5
    split = 0.1
    eps_grid = (1.0, 4.0)
    baselines = ("duchi", "piecewise", "hybrid", "laplace")
    _SPLIT, _MECH = 1, 10

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_clients = 20_000 if tiny else 2_000_000

    def setup(self) -> None:
        from ldpmean import adaptive, data, domain

        raw = data.gen_gaussian_clipped(
            self.n_clients, 0.0, 1.0, -5.0, 5.0, _stream(self.seed, 0)
        ).values
        self.xs, _ = domain.rescale_to(raw, 1.0)
        self.truth = float(self.xs.mean())
        self.data_variance = float(self.xs.var())
        self.domain = domain.make_domain(1.0, self.n_bins)
        self.shape = adaptive.NoiseShape(m=self.m, r=self.r)

    def ops(self, pass_index: int):
        state = {}

        def split():
            rng = _stream(self.seed, pass_index, 0, self._SPLIT)
            state["mask"] = rng.random(self.xs.size) < self.split
            state["phase2"] = self.xs[~state["mask"]]

        yield Op("split", split, None)
        for eps_idx, eps in enumerate(self.eps_grid):
            yield Op(
                f"adaptive/eps={eps}",
                self._protocol(state, pass_index, eps_idx, eps),
                self._protocol_check(state, eps),
            )
            for mech_idx, mechanism in enumerate(self.baselines, start=1):
                yield Op(
                    f"{mechanism}/eps={eps}",
                    self._baseline(state, mechanism, pass_index, eps_idx, mech_idx, eps),
                    self._baseline_check(state, mechanism, eps),
                )

    def _protocol(self, state, pass_index, eps_idx, eps):
        from ldpmean import adaptive

        def call():
            rng = _stream(self.seed, pass_index, eps_idx, self._MECH)
            return adaptive.run_protocol(
                self.xs, eps, self.split, self.shape, self.domain, rng,
                split_mask=state["mask"],
            )

        return call

    def _protocol_check(self, state, eps):
        from ldpmean import adaptive

        def check(result):
            table = result.noise_table
            if not adaptive.verify_privacy(table, eps).passed:
                raise OpFailure(f"adaptive/eps={eps}: privacy verification failed")
            rounding = self.domain.sigma ** 2 / 4.0
            variance = max_row_variance(table) + rounding + self.data_variance
            _check_within(
                f"adaptive/eps={eps}", result.mean_estimate, self.truth,
                variance, state["phase2"].size,
            )

        return check

    def _baseline(self, state, mechanism, pass_index, eps_idx, mech_idx, eps):
        from ldpmean import baselines

        def call():
            rng = _stream(self.seed, pass_index, eps_idx, self._MECH + mech_idx)
            xs = state["phase2"]
            if mechanism == "duchi":
                ys = baselines.duchi_perturb(xs, 1.0, eps, rng)
            elif mechanism == "piecewise":
                ys = baselines.piecewise_perturb(xs, eps, rng)
            elif mechanism == "hybrid":
                ys = baselines.hybrid_perturb(xs, 1.0, eps, rng)
            else:
                ys = baselines.laplace_perturb(xs, 1.0, eps, rng)
            return float(ys.mean())

        return call

    def _baseline_check(self, state, mechanism, eps):
        from ldpmean import baselines

        def check(estimate):
            xs = state["phase2"]
            if mechanism == "laplace":
                per_client = baselines.laplace_variance(1.0, eps)
            else:
                duchi = baselines.duchi_conditional_variance(xs, 1.0, eps)
                piecewise = baselines.piecewise_conditional_variance(xs, eps)
                alpha = {"duchi": 0.0, "piecewise": 1.0}.get(
                    mechanism, baselines.hybrid_alpha(eps)
                )
                per_client = float(np.mean(alpha * piecewise + (1.0 - alpha) * duchi))
            _check_within(
                f"{mechanism}/eps={eps}", estimate, self.truth,
                per_client + self.data_variance, xs.size,
            )

        return check


WORKLOADS = {w.name: w for w in (DesignN16, Clients2M)}
