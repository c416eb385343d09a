"""Every function of the package has a caller on a product path.

The product paths are the fixed-seed commands of tests/csv_identity.py, run
one after another through cli.main with their files in a temporary
directory, and both benchmark workloads of perfbench/workloads.py at their
tiny size, two passes each with their checks.  A call trace over them
(sys.settrace, call events of code in src/ldpmean alone), from the
package's import on, in a fresh process, must reach every top-level
function and method of the package but those of UNRUN, which are kept for
the reason given with each.  A function that only tests call belongs in
UNRUN with its reason, or out of the package.

    python3 tests/test_traffic.py DIR

runs the trace alone, with its files in DIR, and prints the called code
as JSON.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ldpmean"

UNRUN = {
    "adaptive._certified": "criterion 5: proves a table optimal for every window",
    "adaptive._slack_minimum": "criterion 5: the closed-form slack past S that _certified reads",
    "analysis.adaptive_conditional_variance": "criterion 9: each run's expected squared error",
    "domain.rounding_weights_array": "criterion 9: the tent weights of that variance",
    "analysis.variance_relative_error": "criterion 6: the variance error phi",
    "analysis.claim3_bound": "criterion 6: the bound on phi",
    "baselines.piecewise_window": "the piecewise privacy oracle: the high-density window",
    "baselines.piecewise_density": "the piecewise privacy oracle: the output density",
    "adaptive.load_table": "reads the file that the optimize command writes",
    "domain.LinearTransform.invert": "the README quick start maps the estimate back",
}


def defined_functions():
    """{'module.function' or 'module.Class.method': (file, first line,
    name)} for every top-level function and method of the package; the
    first line is a decorated function's first decorator, as in its code
    object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            prefix, body = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                prefix, body = f"{path.stem}.{node.name}", node.body
            for fn in body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[f"{prefix}.{fn.name}"] = (str(path), first, fn.name)
    return found


def run_product_paths(tmp: Path) -> None:
    """The commands of csv_identity, then the tiny workloads."""
    import csv_identity
    import workloads
    from ldpmean import cli

    data, table, ini = tmp / "data.csv", tmp / "noise_table.txt", tmp / "estimate.ini"
    csv_identity.write_data(data)
    ini.write_text(csv_identity.INI)
    for name, args in csv_identity.commands(data, table, ini).items():
        common = [] if "--config" in args else csv_identity.COMMON
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([*common, *args]) != 0:
                raise SystemExit(f"{name} failed")
    for workload in workloads.WORKLOADS.values():
        bench = workload(1, tiny=True)
        bench.setup()
        for pass_index in (0, 1):
            for op in bench.ops(pass_index):
                result = op.call()
                if op.check is not None:
                    op.check(result)


def called_code(tmp: Path) -> list:
    """(file, first line, name) of each code object of the package that
    the product paths call, the package's import included; line events are
    left off."""
    called = set()
    home = str(PACKAGE)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(home):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(trace)
    try:
        run_product_paths(tmp)
    finally:
        sys.settrace(None)
    return sorted(called)


def test_every_function_runs_on_a_product_path(tmp_path):
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "perfbench"))
    out = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    called = {tuple(code) for code in json.loads(out)}
    unrun = {name for name, code in defined_functions().items() if code not in called}
    assert sorted(unrun - UNRUN.keys()) == [], "no product path runs these"
    assert sorted(UNRUN.keys() - unrun) == [], "these run now: take them off UNRUN"


if __name__ == "__main__":
    print(json.dumps(called_code(Path(sys.argv[1]))))
