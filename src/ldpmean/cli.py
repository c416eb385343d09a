"""Command-line experiment runner.

Subcommands: variance (expected-variance curves from a true pmf), estimate
(end-to-end mean-estimation error), optimize (solve and dump one noise
table), sweep (estimate repeated over a hyperparameter grid), multidim
(attribute-sampled multidimensional estimation).  estimate and sweep run
the multidim experiment, and every mechanism of the experiment runs
through its one per-attribute loop (_experiment).  Every command but
multidim runs one attribute at the full budget, d = k = 1, whatever --d
and --k say, and optimize solves the adaptive table alone.  Each command
checks the window and the eps grid as it runs them
(ExperimentConfig.check_budget) before any data or table, so it is
refused only for the fields it reads.

Each field of ExperimentConfig is a flag and a config-file key: its name,
or the short name _FLAG_NAMES gives it (--eps sets eps_grid).  Values are
converted to the field's type in load_config, so a malformed one is an
error that names its flag or key.

Every run is seeded: the stream for each (run, eps, purpose) triple is an
independent counter-based generator keyed by the base seed, so outputs are
byte-identical across invocations and mechanisms share identical data
partitions within a run.  Each command starts with no stored solves
(adaptive.clear_store), so its output depends only on its arguments, also
when main runs several commands in one process.  Output is CSV with a
leading comment line that records the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import typing
from collections import defaultdict
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptive import (
    NoiseShape,
    _first_half_width,
    _min_half_width,
    clear_store,
    run_protocol,
    save_table,
    solve_noise_table,
)
from .analysis import baseline_expected_variance, expected_variance, squared_error
from .baselines import BASELINES, check_eps
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
from .multidim import assign_attributes, attribute_pools

ALL_MECHANISMS = ("adaptive", *BASELINES)
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
        if not self.eps_grid:
            raise ValueError("eps grid is empty")
        for e in self.eps_grid:
            try:
                check_eps(e)
            except ValueError as exc:
                raise ValueError(f"eps grid {self.eps_grid}: {exc}") from None
        # rows are keyed by (mechanism, eps), so a repeat would pool its runs
        for name in ("mechanisms", "eps_grid"):
            values = getattr(self, name)
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} lists {repeated!r} more than once")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must lie in (0, 1)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.bins < 1 or self.n_samples < 1:
            raise ValueError("bins and n must be positive")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be >= 1")

    def check_budget(self) -> None:
        """Refuse what the experiment loop cannot run at this k: a
        noise_window below the least with an eps-LDP table at
        min(eps_grid) / k, whose derivation also refuses an eps too small
        for any finite window.  Each command calls it on the configuration
        it runs, before any data or table."""
        eps = min(self.eps_grid) / self.k
        least = self.bins + _min_half_width(self.bins, eps)
        if self.noise_window is not None and self.noise_window < least:
            raise ValueError(
                f"noise_window must be >= {least}, the least with an eps-LDP table at"
                f" bins={self.bins}, eps = min(eps_grid) / k = {eps}; got {self.noise_window}"
            )

    @property
    def m(self) -> int:
        """The noise window M: noise_window, else 4 * bins widened until the
        span of the first outputs at the smallest per-attribute budget
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


def _write_csv(config: ExperimentConfig, command: str, header: str, rows) -> str:
    lines = [f"# ldpmean {command} {config.describe()}", header]
    lines.extend(",".join(map(str, row)) for row in rows)  # str(float) is its repr
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


def _one_attribute(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """config at d = k = 1 and with changes, checked (check_budget): the
    configuration a command that runs one attribute at the full budget
    runs."""
    config = replace(config, d=1, k=1, **changes)
    config.check_budget()
    return config


def cmd_variance(config: ExperimentConfig) -> str:
    """Expected variance per (mechanism, eps) against an analytic pmf, at
    d = k = 1; adaptive's is that of the table it solves."""
    config = _one_attribute(config)
    domain = make_domain(config.beta, config.bins)
    pmf = _true_pmf(config, domain)
    rows = []
    for mechanism in config.mechanisms:
        for eps in sorted(config.eps_grid):
            if mechanism == "adaptive":
                value = expected_variance(solve_noise_table(pmf, eps, config.shape, domain), pmf)
            else:
                value = baseline_expected_variance(mechanism, pmf, eps, config.beta)
            rows.append((mechanism, eps, value))
    return _write_csv(config, "variance", "mechanism,eps,expected_variance", rows)


def _rescaled(raw: np.ndarray, beta: float) -> np.ndarray:
    """raw with each column mapped onto [-beta, beta]."""
    return np.column_stack([rescale_to(col, beta)[0] for col in raw.T])


def _experiment(config: ExperimentConfig, fixed: np.ndarray | None = None):
    """Yield (mechanism, eps, truths, phase2, estimates, results) for every
    run, mechanism and eps of the experiment, runs outermost.

    Each run draws an (n, d) data matrix, or takes the fixed one, with each
    column rescaled onto [-beta, beta]; truths are its column means.  It
    assigns each client k of the d attributes (at k = d no stream is drawn)
    and splits each dimension's clients once; phase2 holds each dimension's
    phase-2 values.  Every mechanism shares that partition, draws from its
    own stream and spends eps / k per attribute, dimensions in index order:
    adaptive runs run_protocol on each dimension (results holds its
    ProtocolResults), a baseline perturbs phase2 (results is None) and
    refuses a dimension whose phase2 is empty, as run_protocol does.
    estimates holds one mean estimate per dimension.
    """
    d, k = config.d, config.k
    if fixed is None:
        draw, values = _parse_spec(config.dataset, _GENERATORS, "sample generator")
    else:
        rows = _rescaled(fixed, config.beta)
    domain = make_domain(config.beta, config.bins)
    eps_sorted = sorted(config.eps_grid)
    for run in range(config.runs):
        if fixed is None:
            data_rng = _stream(config.seed, run, 0, _P_DATA)
            raw = np.column_stack(
                [draw(config.n_samples, *values, data_rng).values for _ in range(d)]
            )
            rows = _rescaled(raw, config.beta)
        truths = rows.mean(axis=0)
        assignment = assign_attributes(
            rows.shape[0], d, k, _stream(config.seed, run, 0, _P_ASSIGN)
        )
        split_rng = _stream(config.seed, run, 0, _P_SPLIT)
        parts = [
            (rows[pool, dim], split_rng.random(pool.size) < config.split)
            for dim, pool in enumerate(attribute_pools(assignment, d))
        ]
        phase2 = [xs[~mask] for xs, mask in parts]
        for mechanism in config.mechanisms:
            stream_id = _P_MECH + _MECH_STREAM_ID[mechanism]
            for eps_idx, eps in enumerate(eps_sorted):
                rng = _stream(config.seed, run, eps_idx, stream_id)
                if mechanism == "adaptive":
                    results = [
                        run_protocol(xs, eps / k, config.split, config.shape, domain, rng,
                                     split_mask=mask)
                        for xs, mask in parts
                    ]
                    estimates = [res.mean_estimate for res in results]
                else:
                    for dim, xs in enumerate(phase2):
                        if xs.size == 0:
                            raise ValueError(
                                f"degenerate split: no phase-2 clients in dimension {dim}"
                            )
                    results = None
                    perturb = BASELINES[mechanism][0]
                    estimates = [
                        float(np.mean(perturb(xs, config.beta, eps / k, rng))) for xs in phase2
                    ]
                yield mechanism, eps, truths, phase2, estimates, results


def _error_rows(config: ExperimentConfig, fixed: np.ndarray | None, *extra) -> list:
    """(mechanism, eps, error, *extra, runs, seed) per (mechanism, eps) of
    the experiment at config, eps ascending within each mechanism: error is
    the squared error against each dimension's full-data mean, summed over
    dimensions and averaged over runs."""
    errors = defaultdict(list)
    for mechanism, eps, truths, _, estimates, _ in _experiment(config, fixed):
        errors[mechanism, eps].append(
            sum(squared_error(est, truth) for est, truth in zip(estimates, truths))
        )
    return [
        (mech, eps, float(np.mean(errors[mech, eps])), *extra, config.runs, config.seed)
        for mech in config.mechanisms
        for eps in sorted(config.eps_grid)
    ]


def _csv_data(config: ExperimentConfig, columns=None) -> np.ndarray | None:
    """The --csv file's columns (all by default) as a matrix, None without --csv."""
    return None if config.csv_path is None else load_csv_matrix(config.csv_path, columns)


def cmd_estimate(config: ExperimentConfig) -> str:
    """Mean squared error of the end-to-end protocol per (mechanism, eps):
    the multidim experiment at d = k = 1, with --csv read as one
    column."""
    config = _one_attribute(config)
    rows = _error_rows(config, _csv_data(config, [config.csv_column]))
    return _write_csv(config, "estimate", "mechanism,eps,mse,runs,seed", rows)


def cmd_optimize(config: ExperimentConfig) -> str:
    """Solve one noise table at the first eps of the grid and dump it to
    --out with a summary on stdout; with --out -, to stdout and stderr.
    The configuration's mechanisms are not read."""
    config = _one_attribute(config)
    domain = make_domain(config.beta, config.bins)
    pmf = _true_pmf(config, domain)
    eps = sorted(config.eps_grid)[0]
    table = solve_noise_table(pmf, eps, config.shape, domain)
    to_stdout = config.out == "-"
    save_table(table, sys.stdout if to_stdout else config.out)
    report = table.privacy
    summary = (
        f"table written to {'stdout' if to_stdout else config.out}\n"
        f"expected_variance {expected_variance(table, pmf)!r}\n"
        f"privacy max_ratio {float(report.max_ratio)!r} bound {float(report.bound)!r} "
        f"passed {report.passed}\n"
    )
    (sys.stderr if to_stdout else sys.stdout).write(summary)
    return summary


def cmd_sweep(config: ExperimentConfig) -> str:
    """cmd_estimate repeated over a hyperparameter grid, one block per value.

    bin_size values are bin widths sigma (bins = round(2 beta / sigma));
    noise_range values are the window ratio 2M/N (M = round(value * N / 2));
    split values are used directly.  Two values that run the same
    configuration, and a width that rounds to 0 bins, are refused.
    """
    if config.sweep_parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
            f"got {config.sweep_parameter!r}"
        )
    if not config.sweep_grid:
        raise ValueError("sweep grid is empty")
    config = replace(config, d=1, k=1)
    name = config.sweep_parameter
    field = {"split": "split", "bin_size": "bins", "noise_range": "noise_window"}[name]
    subs = {}  # setting of field: (value, configuration), checked before the first run
    for value in sorted(config.sweep_grid):
        if name == "split":
            setting = float(value)
        elif name == "bin_size":
            bins = 2.0 * config.beta / value if 0.0 < value < math.inf else math.nan
            if not math.isfinite(bins):
                raise ValueError(
                    f"sweep bin_size {value!r} is not a positive finite width with a finite"
                    " bin count 2 beta / width"
                )
            setting = round(bins)
            if setting < 1:
                raise ValueError(
                    f"sweep bin_size {value!r} gives 0 bins: a width must be below"
                    f" 4 beta = {4 * config.beta!r}"
                )
        else:
            window = value * config.bins / 2
            if not math.isfinite(window):
                raise ValueError(f"sweep noise_range {value!r} does not give a finite window")
            setting = round(window)
        if setting in subs:
            raise ValueError(
                f"sweep {name} values {subs[setting][0]!r} and {value!r} both run"
                f" {field} = {setting!r}"
            )
        sub = replace(config, **{field: setting})
        sub.check_budget()
        subs[setting] = value, sub
    fixed = _csv_data(config, [config.csv_column])
    rows = []
    for value, sub in subs.values():
        prefix = (name, float(value))
        rows.extend(prefix + row for row in _error_rows(sub, fixed))
    return _write_csv(config, "sweep", "parameter,value,mechanism,eps,mse,runs,seed", rows)


def cmd_multidim(config: ExperimentConfig) -> str:
    """Attribute-sampled multidimensional estimation; error is the sum of
    per-dimension squared errors against each dimension's full-data mean.
    Every mechanism spends eps / k on each of a client's k attributes."""
    config.check_budget()
    fixed = _csv_data(config)
    d = config.d if fixed is None else fixed.shape[1]
    rows = _error_rows(replace(config, d=d), fixed, d, config.k)
    return _write_csv(config, "multidim", "mechanism,eps,sum_mse,d,k,runs,seed", rows)


_COMMANDS = {
    "variance": cmd_variance,
    "estimate": cmd_estimate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "multidim": cmd_multidim,
}


# The flag and config-file key of each field whose name is not its own;
# the config file also accepts the field names.
_FLAG_NAMES = {
    "eps_grid": "eps", "n_samples": "n", "csv_path": "csv", "csv_column": "column",
    "sweep_parameter": "parameter", "sweep_grid": "grid", "noise_window": "noise-window",
}
_HELP = {
    "eps_grid": "comma-separated privacy budgets",
    "mechanisms": "comma-separated mechanism names",
    "dataset": "generator or distribution spec",
    "sweep_parameter": "sweep parameter: " + ", ".join(SWEEP_PARAMETERS),
    "sweep_grid": "comma-separated sweep values",
    "out": "output path, - for stdout",
}


def _build_parser() -> argparse.ArgumentParser:
    """The command, --config and one string flag per ExperimentConfig field."""
    parser = argparse.ArgumentParser(
        prog="ldpmean",
        description="Locally differentially private mean estimation experiments",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI file with an [experiment] section")
    for f in fields(ExperimentConfig):
        flag = "--" + _FLAG_NAMES.get(f.name, f.name)
        parser.add_argument(flag, dest=f.name, help=_HELP.get(f.name))
    return parser


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(name: str, value, source: str):
    """value as the type of ExperimentConfig's field name; a string fills a
    tuple field as a comma-separated list.  A value that does not convert
    raises ValueError naming source, the flag or key that gave it."""
    kind = _FIELD_TYPES[name]
    try:
        if typing.get_origin(kind) is tuple:
            if isinstance(value, str):
                value = [v.strip() for v in value.split(",") if v.strip()]
            return tuple(typing.get_args(kind)[0](v) for v in value)
        # an optional field (X | None) converts as X
        return (typing.get_args(kind) or (kind,))[0](value)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Defaults, then the config file's [experiment] section, then
    overrides, a value (or None) per field name, as the flags give them."""
    values = {}
    if path is not None:
        ini = configparser.ConfigParser()
        if not ini.read(path):
            raise ValueError(f"cannot read config file {path!r}")
        if not ini.has_section("experiment"):
            raise ValueError(f"{path!r} has no [experiment] section")
        by_key = {f.name: f.name for f in fields(ExperimentConfig)}
        by_key.update((key, name) for name, key in _FLAG_NAMES.items())
        for key, raw in ini.items("experiment"):
            if key not in by_key:
                raise ValueError(f"unknown config key {key!r} in {path!r}")
            values[by_key[key]] = _coerce(by_key[key], raw, f"{key!r} in {path!r}")
    for name, raw in overrides.items():
        if raw is not None:
            values[name] = _coerce(name, raw, "--" + _FLAG_NAMES.get(name, name))
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    clear_store()
    try:
        config = load_config(args.config, overrides)
        _COMMANDS[args.command](config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
