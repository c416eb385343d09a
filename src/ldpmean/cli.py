"""Command-line experiment runner.

Subcommands: variance (expected-variance curves from a true pmf), estimate
(end-to-end mean-estimation error), optimize (solve and dump one noise
table), sweep (estimate repeated over a hyperparameter grid), multidim
(attribute-sampled multidimensional estimation).  estimate and sweep run
the multidim experiment at d = k = 1.

Every run is seeded: the stream for each (run, eps, purpose) triple is an
independent counter-based generator keyed by the base seed, so outputs are
byte-identical across invocations and mechanisms share identical data
partitions within a run.  Output is CSV with a leading comment line that
records the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptive import (
    NoiseShape,
    _first_half_width,
    save_table,
    solve_noise_table,
    verify_privacy,
)
from .analysis import baseline_expected_variance, squared_error
from .baselines import (
    duchi_perturb,
    hybrid_perturb,
    laplace_perturb,
    piecewise_perturb,
)
from .data import (
    BetaDistribution,
    ShiftedExponential,
    TruncatedGaussian,
    gen_bernoulli,
    gen_exponential_clipped,
    gen_gaussian_clipped,
    load_csv_matrix,
    true_pmf,
)
from .domain import make_domain, rescale_to
from .multidim import (
    MultiDataset,
    assign_attributes,
    attribute_pools,
    run_multidim_protocol,
)

ALL_MECHANISMS = ("adaptive", "duchi", "piecewise", "hybrid", "laplace")
# stable stream ids so adding or removing mechanisms from a run never
# changes the draws any other mechanism sees
_MECH_STREAM_ID = {m: i for i, m in enumerate(ALL_MECHANISMS)}
_P_DATA, _P_ASSIGN, _P_SPLIT, _P_MECH = 0, 1, 2, 10

SWEEP_PARAMETERS = ("split", "bin_size", "noise_range")


@dataclass(frozen=True)
class ExperimentConfig:
    mechanisms: tuple[str, ...] = ALL_MECHANISMS
    eps_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    beta: float = 1.0
    bins: int = 16
    noise_window: int | None = None  # M; derived by the m property when None
    split: float = 0.1
    runs: int = 20
    seed: int = 0
    n_samples: int = 10000
    dataset: str = "gaussian"
    csv_path: str | None = None
    csv_column: int = 0
    d: int = 1
    k: int = 1
    sweep_parameter: str | None = None
    sweep_grid: tuple[float, ...] = ()
    out: str = "-"

    def __post_init__(self):
        for m in self.mechanisms:
            if m not in ALL_MECHANISMS:
                raise ValueError(f"unknown mechanism {m!r}")
        if not self.mechanisms:
            raise ValueError("mechanism list is empty")
        if not self.eps_grid or any(e <= 0 for e in self.eps_grid):
            raise ValueError("eps grid must be nonempty and positive")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must lie in (0, 1)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.bins < 1 or self.n_samples < 1 or self.beta <= 0:
            raise ValueError("beta, bins and n must be positive")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be >= 1")

    @property
    def m(self) -> int:
        """The noise window M: noise_window, else 4 * bins widened until the
        first restricted program at the smallest per-attribute budget
        min(eps_grid) / k fits inside it (see adaptive._first_half_width)."""
        if self.noise_window is not None:
            return self.noise_window
        a = _first_half_width(self.bins, min(self.eps_grid) / self.k)
        return max(4 * self.bins, self.bins + a + 2)

    @property
    def shape(self) -> NoiseShape:
        return NoiseShape(m=self.m)

    def describe(self) -> str:
        pairs = []
        for f in fields(self):
            if f.name == "out":
                continue  # the output path does not influence results
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(item) for item in v)
            pairs.append(f"{f.name}={v}")
        pairs.append(f"m={self.m}")
        return " ".join(pairs)


def _stream(seed: int, run: int, eps_idx: int, purpose: int) -> np.random.Generator:
    key = np.random.SeedSequence([seed, run, eps_idx, purpose])
    return np.random.Generator(np.random.Philox(key))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(config: ExperimentConfig, command: str, header: str, rows) -> str:
    lines = [f"# ldpmean {command} {config.describe()}", header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# A dataset spec is name[:key=value,...].  Each table maps a family name to
# its builder and the defaults of the keys it accepts, in the order of the
# builder's parameters.
_DISTRIBUTIONS = {  # analytic densities, for variance and optimize
    "gaussian": (TruncatedGaussian, {"mu": 0.0, "sd": 0.1}),
    "exponential": (ShiftedExponential, {"rate": 6.0}),
    "beta": (BetaDistribution, {"a": 0.5, "b": 0.5}),
    "uniform": (lambda: BetaDistribution(1.0, 1.0), {}),
}
_GENERATORS = {  # sample generators (n, *values, rng), for the experiments
    "gaussian": (
        gen_gaussian_clipped, {"mean": 0.0, "sd": 1.0, "clip_lo": -5.0, "clip_hi": 5.0}
    ),
    "exponential": (gen_exponential_clipped, {"rate": 1.0, "clip_hi": 5.0}),
    "bernoulli": (gen_bernoulli, {"p": 0.5}),
}


def _parse_spec(spec: str, families: dict, kind: str):
    """A dataset spec's builder and its values, the family's defaults
    overridden by the spec's."""
    name, _, tail = spec.partition(":")
    name = name.strip().lower()
    if name not in families:
        raise ValueError(f"unknown {kind} {name!r}")
    build, defaults = families[name]
    values = dict(defaults)
    for item in tail.split(",") if tail else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"malformed {kind} spec {spec!r}")
        if key not in defaults:
            raise ValueError(
                f"unknown key {key!r} in {kind} spec {spec!r}; "
                f"{name} accepts {', '.join(defaults) or 'no keys'}"
            )
        values[key] = float(value)
    return build, tuple(values.values())


def _true_pmf(config: ExperimentConfig, domain):
    build, values = _parse_spec(config.dataset, _DISTRIBUTIONS, "distribution")
    return true_pmf(build(*values), domain)


def _baseline_estimate(mechanism, xs, beta, eps, rng) -> float:
    if mechanism == "laplace":
        ys = laplace_perturb(xs, beta, eps, rng)
    elif mechanism == "duchi":
        ys = duchi_perturb(xs, beta, eps, rng)
    elif mechanism == "piecewise":
        ys = beta * piecewise_perturb(xs / beta, eps, rng)
    elif mechanism == "hybrid":
        ys = hybrid_perturb(xs, beta, eps, rng)
    else:
        raise ValueError(f"unknown baseline {mechanism!r}")
    return float(np.mean(ys))


def cmd_variance(config: ExperimentConfig) -> str:
    """Expected variance per (mechanism, eps) against an analytic pmf."""
    domain = make_domain(config.beta, config.bins)
    pmf = _true_pmf(config, domain)
    rows = []
    for mechanism in config.mechanisms:
        for eps in sorted(config.eps_grid):
            if mechanism == "adaptive":
                table = solve_noise_table(pmf, eps, config.shape, domain)
                value = table.lp_objective
            else:
                value = baseline_expected_variance(mechanism, pmf, eps, config.beta)
            rows.append((mechanism, eps, value))
    return _write_csv(config, "variance", "mechanism,eps,expected_variance", rows)


def _rescaled(raw: np.ndarray, beta: float) -> np.ndarray:
    """raw with each column mapped onto [-beta, beta]."""
    return np.column_stack([rescale_to(col, beta)[0] for col in raw.T])


def _experiment(config: ExperimentConfig, fixed: np.ndarray | None = None):
    """Yield (mechanism, eps, truths, phase2, estimates, result) for every
    run, mechanism and eps of the experiment, runs outermost.

    Each run draws an (n, d) data matrix, or takes the fixed one, with each
    column rescaled onto [-beta, beta]; truths are its column means.  It
    assigns each client k of the d attributes (at k = d no stream is drawn)
    and splits each dimension's clients once; phase2 holds each dimension's
    phase-2 values.  Every mechanism shares that data and partition, draws
    from its own stream and spends eps / k per attribute.  estimates holds
    one mean estimate per dimension; result is the adaptive mechanism's
    MultidimResult, None for a baseline.
    """
    d = config.d
    if fixed is None:
        draw, values = _parse_spec(config.dataset, _GENERATORS, "sample generator")
    else:
        rows = _rescaled(fixed, config.beta)
    bounds = np.full(d, config.beta)
    eps_sorted = sorted(config.eps_grid)
    for run in range(config.runs):
        if fixed is None:
            data_rng = _stream(config.seed, run, 0, _P_DATA)
            raw = np.column_stack(
                [draw(config.n_samples, *values, data_rng).values for _ in range(d)]
            )
            rows = _rescaled(raw, config.beta)
        data = MultiDataset(rows, bounds)
        truths = rows.mean(axis=0)
        assignment = assign_attributes(
            rows.shape[0], d, config.k, _stream(config.seed, run, 0, _P_ASSIGN)
        )
        pools = attribute_pools(assignment, d)
        split_rng = _stream(config.seed, run, 0, _P_SPLIT)
        masks = [split_rng.random(pool.size) < config.split for pool in pools]
        phase2 = [rows[pool, dim][~masks[dim]] for dim, pool in enumerate(pools)]
        for mechanism in config.mechanisms:
            stream_id = _P_MECH + _MECH_STREAM_ID[mechanism]
            for eps_idx, eps in enumerate(eps_sorted):
                rng = _stream(config.seed, run, eps_idx, stream_id)
                if mechanism == "adaptive":
                    res = run_multidim_protocol(
                        data, eps, config.split, config.k, config.shape, rng,
                        n_bins=config.bins, assignment=assignment,
                        split_masks=masks,
                    )
                    yield mechanism, eps, truths, phase2, res.estimates, res
                else:
                    estimates = [
                        _baseline_estimate(mechanism, xs, config.beta, eps / config.k, rng)
                        for xs in phase2
                    ]
                    yield mechanism, eps, truths, phase2, estimates, None


def _mean_errors(config: ExperimentConfig, fixed: np.ndarray | None = None) -> dict:
    """Per (mechanism, eps): the squared errors against each dimension's
    full-data mean, summed over dimensions and averaged over runs."""
    sums = {
        (mech, eps): [] for mech in config.mechanisms for eps in config.eps_grid
    }
    for mechanism, eps, truths, _, estimates, _ in _experiment(config, fixed):
        total = 0.0
        for est, truth in zip(estimates, truths):
            total += squared_error(est, truth)
        sums[(mechanism, eps)].append(total)
    return {key: float(np.mean(errors)) for key, errors in sums.items()}


def _csv_column(config: ExperimentConfig) -> np.ndarray | None:
    """The --csv column as a one-column matrix, None without --csv."""
    if config.csv_path is None:
        return None
    return load_csv_matrix(config.csv_path, [config.csv_column])


def _estimate_rows(config: ExperimentConfig, fixed: np.ndarray | None) -> list:
    """(mechanism, eps, mse, runs, seed) per (mechanism, eps) of the
    experiment at config, which estimate and sweep set to d = k = 1."""
    mse = _mean_errors(config, fixed)
    return [
        (mech, eps, mse[(mech, eps)], config.runs, config.seed)
        for mech in config.mechanisms
        for eps in sorted(config.eps_grid)
    ]


def cmd_estimate(config: ExperimentConfig) -> str:
    """Mean squared error of the end-to-end protocol per (mechanism, eps):
    the multidim experiment at d = k = 1, with --csv read as one column."""
    config = replace(config, d=1, k=1)
    rows = _estimate_rows(config, _csv_column(config))
    return _write_csv(config, "estimate", "mechanism,eps,mse,runs,seed", rows)


def cmd_optimize(config: ExperimentConfig) -> str:
    """Solve one noise table at the first eps of the grid and dump it."""
    domain = make_domain(config.beta, config.bins)
    pmf = _true_pmf(config, domain)
    eps = sorted(config.eps_grid)[0]
    table = solve_noise_table(pmf, eps, config.shape, domain)
    path = config.out if config.out != "-" else "noise_table.txt"
    save_table(table, path)
    report = verify_privacy(table, eps)
    summary = (
        f"table written to {path}\n"
        f"lp_objective {table.lp_objective!r}\n"
        f"privacy max_ratio {float(report.max_ratio)!r} bound {float(report.bound)!r} "
        f"passed {report.passed}\n"
    )
    sys.stdout.write(summary)
    return summary


def cmd_sweep(config: ExperimentConfig) -> str:
    """cmd_estimate repeated over a hyperparameter grid, one block per value.

    bin_size values are bin widths sigma (bins = round(2 beta / sigma));
    noise_range values are the window ratio 2M/N (M = round(value * N / 2));
    split values are used directly.
    """
    if config.sweep_parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
            f"got {config.sweep_parameter!r}"
        )
    if not config.sweep_grid:
        raise ValueError("sweep grid is empty")
    config = replace(config, d=1, k=1)
    fixed = _csv_column(config)
    rows = []
    for value in sorted(config.sweep_grid):
        if config.sweep_parameter == "split":
            sub = replace(config, split=float(value))
        elif config.sweep_parameter == "bin_size":
            bins = max(1, round(2.0 * config.beta / value))
            sub = replace(config, bins=bins)
        else:
            sub = replace(config, noise_window=max(1, round(value * config.bins / 2)))
        prefix = (config.sweep_parameter, float(value))
        rows.extend(prefix + row for row in _estimate_rows(sub, fixed))
    return _write_csv(
        config, "sweep", "parameter,value,mechanism,eps,mse,runs,seed", rows
    )


def cmd_multidim(config: ExperimentConfig) -> str:
    """Attribute-sampled multidimensional estimation; error is the sum of
    per-dimension squared errors against each dimension's full-data mean.
    Every mechanism spends eps / k on each of a client's k attributes."""
    fixed = None if config.csv_path is None else load_csv_matrix(config.csv_path)
    d = config.d if fixed is None else fixed.shape[1]
    sum_mse = _mean_errors(replace(config, d=d), fixed)
    rows = [
        (
            mech,
            eps,
            sum_mse[(mech, eps)],
            d,
            config.k,
            config.runs,
            config.seed,
        )
        for mech in config.mechanisms
        for eps in sorted(config.eps_grid)
    ]
    return _write_csv(
        config, "multidim", "mechanism,eps,sum_mse,d,k,runs,seed", rows
    )


_COMMANDS = {
    "variance": cmd_variance,
    "estimate": cmd_estimate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "multidim": cmd_multidim,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpmean",
        description="Locally differentially private mean estimation experiments",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI file with an [experiment] section")
    parser.add_argument("--eps", help="comma-separated privacy budgets")
    parser.add_argument("--mechanisms", help="comma-separated mechanism names")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--bins", type=int)
    parser.add_argument("--noise-window", type=int, dest="noise_window")
    parser.add_argument("--split", type=float)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", type=int, dest="n_samples")
    parser.add_argument("--dataset", help="generator or distribution spec")
    parser.add_argument("--csv", dest="csv_path")
    parser.add_argument("--column", type=int, dest="csv_column")
    parser.add_argument("--d", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--parameter", dest="sweep_parameter",
                        help="sweep parameter: " + ", ".join(SWEEP_PARAMETERS))
    parser.add_argument("--grid", dest="sweep_grid",
                        help="comma-separated sweep values")
    parser.add_argument("--out", help="output path, - for stdout")
    return parser


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(name: str, value):
    """value as the type of ExperimentConfig's field name; a string fills a
    tuple field as a comma-separated list."""
    if value is None:
        return None
    kind = _FIELD_TYPES[name]
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        return tuple(typing.get_args(kind)[0](v) for v in value)
    # an optional field (X | None) converts as X
    return (typing.get_args(kind) or (kind,))[0](value)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Defaults, then the config file's [experiment] section, then flags."""
    values = {}
    if path is not None:
        ini = configparser.ConfigParser()
        read = ini.read(path)
        if not read:
            raise ValueError(f"cannot read config file {path!r}")
        if not ini.has_section("experiment"):
            raise ValueError(f"{path!r} has no [experiment] section")
        known = {f.name for f in fields(ExperimentConfig)}
        alias = {"eps": "eps_grid", "n": "n_samples", "csv": "csv_path",
                 "column": "csv_column", "grid": "sweep_grid",
                 "parameter": "sweep_parameter"}
        for key, raw in ini.items("experiment"):
            name = alias.get(key, key)
            if name not in known:
                raise ValueError(f"unknown config key {key!r} in {path!r}")
            values[name] = _coerce(name, raw)
    for name, raw in overrides.items():
        if raw is not None:
            values[name] = _coerce(name, raw)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    for f in fields(ExperimentConfig):
        if hasattr(args, f.name):
            overrides[f.name] = getattr(args, f.name)
    if args.eps is not None:
        overrides["eps_grid"] = args.eps
    try:
        config = load_config(args.config, overrides)
        _COMMANDS[args.command](config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
