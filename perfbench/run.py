"""Benchmark of the ldpmean package.

Run one workload (the form ``BENCHMARK.json`` names):

    python3 perfbench/run.py --workload design-n16 --seed 1 --seconds 50 --trace 0

or every workload over several seeds, with a summary and a JSON record:

    python3 perfbench/run.py --workload all --seeds 1,2,3 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``tracing.py``), whose passes alternate with untraced ones
so that the tracing overhead is measured in the same run.  Lines before it
start with ``#``: machine facts, failed operations, and in a traced run one
line of exact counts per solved table.
"""

import os
import time

_T0 = time.perf_counter()  # set-up time counts from here

# each workload runs serially in one process: keep BLAS single-threaded, so
# that results do not depend on how busy the machine's other cores are
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import TARGETS, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, OpFailure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer seconds per pass: inclusive span time (.s) or span time minus
# the time of the traced calls it made (.self_s)
_INCLUSIVE = (
    "lp.solve",
    "adaptive.build_lp",
    "adaptive.verify_privacy",
    "adaptive.adaptive_perturb_array",
    "domain.round_randomized_array",
    "freqest.collect_perturbed_histogram",
    "freqest.reconstruct_pmf",
    "baselines.duchi_perturb",
    "baselines.piecewise_perturb",
    "baselines.hybrid_perturb",
    "baselines.laplace_perturb",
    "data.gen_gaussian_clipped",
    "domain.rescale_to",
)
_SELF = (
    "adaptive.solve_lp",
    "adaptive.solve_noise_table",
    "adaptive.run_protocol",
    "cli.main",
)
# generators also run once in set-up, outside the timed passes
_SETUP = ("data.gen_gaussian_clipped", "domain.rescale_to")

PER_LAYER = {
    **{f"{name}.s": "s" for name in _INCLUSIVE},
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"setup.{name}.s": "s" for name in _SETUP},
    "adaptive.solve_lp.iterations": "count",
    "adaptive.solve_lp.nonoptimal": "count",
    "lp.solve.iterations": "count",
    "adaptive.adaptive_perturb_array.clients": "count",
    "clients_per_s": "1/s",
    "table.count": "count",
    "table.m": "count",
    "table.lp_vars": "count",
    "table.lp_rows": "count",
    "table.window_used_frac": "fraction",
    "table.tail_mass_max": "mass",
    "privacy.margin_max": "ratio",
    "privacy.tables_over_exact_bound": "count",
    "trace.overhead_s": "s",
}

MIN_PASSES = 3
# set-up is timed in this many fresh processes, and their median reported
SETUP_PROBES = 3


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_package():
    """Import ldpmean from this checkout's src/, refusing any other copy."""
    if not (SRC / "ldpmean" / "__init__.py").is_file():
        raise SystemExit(f"error: no ldpmean package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ldpmean
    import ldpmean.cli  # noqa: F401  (the CLI layer is traced too)

    if SRC not in Path(ldpmean.__file__).resolve().parents:
        raise SystemExit(f"error: ldpmean imported from {ldpmean.__file__}, not {SRC}")
    return ldpmean


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Imports plus input generation in this fresh process, in seconds."""
    load_package()
    WORKLOADS[name](seed, tiny=tiny).setup()
    return time.perf_counter() - _T0


def _median_setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Median set-up seconds over fresh processes."""
    samples = []
    for _ in range(1 if tiny else SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed),
             "--size", "tiny" if tiny else "full"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def _run_pass(workload, pass_index, tracer, failures):
    """Run one pass; return its timed seconds and the numbers of operations
    attempted and failed."""
    elapsed = 0.0
    attempted = failed = 0
    for op in workload.ops(pass_index):
        tracer.activate()
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        finally:
            elapsed += time.perf_counter() - start
            tracer.deactivate()
        if op.check is None and error is None:
            continue
        attempted += 1
        if error is None:
            try:
                op.check(result)
            except (OpFailure, ArithmeticError, ValueError) as exc:
                error = exc
        if error is not None:
            failed += 1
            failures.append(f"{workload.name} pass {pass_index} {op.label}: {error!r}")
    return elapsed, attempted, failed


def _table_facts(table) -> dict:
    """Exact counts of a solved table; program size follows from (N, M)."""
    import numpy as np
    from ldpmean import adaptive

    n, m, r, eps = table.domain.n_bins, table.shape.m, table.shape.r, table.eps
    q = table.q
    offsets = np.nonzero((q > 0.0).any(axis=0))[0] - m
    n_aux = n + 2 * m + 1 if math.isfinite(eps) else 0
    report = adaptive.verify_privacy(table, eps, tol=0.0)
    return {
        "n": n,
        "m": m,
        "eps": eps,
        "lp_vars": (n + 1) * (2 * m + 1) + n_aux,
        "lp_rows": 2 * (n + 1) + 2 * (n + 1) * n_aux,
        "window_used_frac": int(np.abs(offsets).max(initial=0)) / m,
        "tail_mass_max": float(np.max((q[:, 0] + q[:, -1]) / (1.0 - r))),
        "margin": report.max_ratio / math.exp(eps) - 1.0,
        "over_exact_bound": not report.passed,
        "objective": table.lp_objective,
    }


def _solve_counts(span) -> dict:
    """HiGHS and simplex iterations under one solve_noise_table span."""
    counts = {"highs_iterations": 0, "simplex_iterations": 0}
    for child in span.children:
        if child.name == "adaptive.solve_lp":
            simplex = any(c.name == "lp.solve" for c in child.children)
            key = "simplex_iterations" if simplex else "highs_iterations"
            counts[key] += child.facts.get("iterations", 0)
    return counts


def _tables(spans) -> list[dict]:
    """Exact counts of every table solved under these spans."""
    return [{**_table_facts(s.facts["table"]), **_solve_counts(s)} for s in spans
            if s.name == "adaptive.solve_noise_table" and "table" in s.facts]


def _layer_metrics(spans, tables) -> dict:
    totals = layer_totals(spans)
    metrics = {f"{n}.s": totals[n]["s"] if n in totals else 0.0 for n in _INCLUSIVE}
    metrics.update(
        {f"{n}.self_s": totals[n]["self_s"] if n in totals else 0.0 for n in _SELF}
    )
    metrics["adaptive.solve_lp.iterations"] = sum(t["highs_iterations"] for t in tables)
    metrics["lp.solve.iterations"] = sum(t["simplex_iterations"] for t in tables)
    metrics["adaptive.solve_lp.nonoptimal"] = sum(
        1 for s in spans if s.name == "adaptive.solve_lp" and s.facts.get("optimal") is False
    )
    metrics["adaptive.adaptive_perturb_array.clients"] = sum(
        s.facts.get("clients", 0) for s in spans
        if s.name == "adaptive.adaptive_perturb_array"
    )
    metrics["table.count"] = len(tables)
    for key in ("m", "lp_vars", "lp_rows", "window_used_frac", "tail_mass_max"):
        metrics[f"table.{key}"] = max((t[key] for t in tables), default=0)
    metrics["privacy.margin_max"] = max((t["margin"] for t in tables), default=0.0)
    metrics["privacy.tables_over_exact_bound"] = sum(t["over_exact_bound"] for t in tables)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result object, comment lines)."""
    setup_s = None if trace else _median_setup_seconds(name, seed, tiny)
    load_package()
    workload = WORKLOADS[name](seed, tiny=tiny)
    lines = [f"# machine {json.dumps(machine_facts(), sort_keys=True)}"]
    # the untraced passes time only solve_noise_table, for solve_p50_s
    timer = Tracer(targets=("adaptive.solve_noise_table",))
    tracer = Tracer(TARGETS) if trace else None
    if tracer is not None:
        tracer.activate()
    workload.setup()
    if tracer is not None:
        tracer.deactivate()
        setup_totals = _layer_metrics(tracer.take(), [])

    failures = []
    attempted = failed = 0
    untraced, traced, solve_times, pass_layers, protocol_rates = [], [], [], [], []
    table_lines = []
    start = time.perf_counter()
    pass_index = 0
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    # stop when another pass would end further past the deadline than short of it
    while (pass_index < min_passes or
           time.perf_counter() + (time.perf_counter() - start) / pass_index / 2
           < start + seconds):
        traced_pass = trace and pass_index % 2 == 1
        active = tracer if traced_pass else timer
        elapsed, n_ops, n_failed = _run_pass(workload, pass_index, active, failures)
        attempted += n_ops
        failed += n_failed
        spans = active.take()
        if traced_pass:
            traced.append(elapsed)
            tables = _tables(spans)
            pass_layers.append(_layer_metrics(spans, tables))
            protocol_rates += [s.facts["clients"] / s.duration for s in spans
                               if s.name == "adaptive.run_protocol" and "clients" in s.facts]
            if not table_lines:
                table_lines = ["# table " + json.dumps(t) for t in tables]
        else:
            untraced.append(elapsed)
            solve_times += [s.duration for s in spans
                            if s.name == "adaptive.solve_noise_table"]
        pass_index += 1

    if trace:
        values = {
            key: statistics.median(p[key] for p in pass_layers) for key in pass_layers[0]
        }
        for key in _SETUP:
            values[f"setup.{key}.s"] = setup_totals[f"{key}.s"]
        values["clients_per_s"] = statistics.median(protocol_rates) if protocol_rates else 0.0
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = PER_LAYER
        lines += table_lines
        if tracer.missing:
            lines.append(f"# untraced (not found in the package) {' '.join(tracer.missing)}")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "solve_p50_s": statistics.median(solve_times) if solve_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    lines += [f"# failed {f}" for f in failures]
    lines.append(f"# failed_frac {failed / max(attempted, 1)!r} ({failed} of {attempted} operations)")
    lines.append(f"# passes {len(untraced)} untraced, {len(traced)} traced")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args) -> dict:
    """Every workload over every seed, each run in its own process."""
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    record = {
        "machine": machine_facts(),
        "settings": {"seconds": args.seconds, "trace": args.trace, "size": args.size,
                     "seeds": seeds},
        "workloads": {},
    }
    for name in WORKLOADS:
        runs, tables = [], []
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--size", args.size],
                capture_output=True, text=True, timeout=600, check=True,
            )
            lines = out.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            if not tables:
                tables = [json.loads(line[len("# table "):]) for line in lines
                          if line.startswith("# table ")]
        summary = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = _quartiles(values)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3, "unit": entry["unit"],
                "spread": (q3 - q1) / abs(median) if median else None,
            }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        record["workloads"][name] = {
            "failed_frac": failed / max(attempted, 1),
            "summary": summary,
            "runs": runs,
            **({"tables": tables} if tables else {}),
        }
        print(f"# {name}: failed_frac {failed / max(attempted, 1)!r} ({failed} of {attempted})")
        for metric, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"#   {metric} {s['median']:.6g} {s['unit']} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {spread}]")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a cut-down input, for the benchmark's own tests")
    parser.add_argument("--seeds", help="comma-separated seeds, with --workload all")
    parser.add_argument("--out", help="with --workload all, also write the record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"
    if not (SRC / "ldpmean" / "__init__.py").is_file():
        print(f"error: no ldpmean package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, tiny)))
        return 0
    if args.workload == "all":
        record = run_all(args)
        text = json.dumps(record, indent=1, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(json.dumps(record, sort_keys=True))
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
