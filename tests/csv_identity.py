"""Check that fixed-seed CLI output is byte-identical to a git revision's.

    python3 tests/csv_identity.py REV

Exports REV with ``git archive`` into a temporary directory, runs the same
fixed-seed commands with that tree's ``src/`` and with the working tree's
(a command's own flags override the common ones),
and compares the output bytes.  The commands cover every path of the
experiment loop: ``estimate`` on data from each of the three generators
(gaussian, exponential, bernoulli), on a CSV column and
configured by an INI file alone (``estimate-ini``, whose keys no flag
overrides), ``sweep`` over each of its three parameters, ``multidim`` at
k = 1 and k = 2 and on a CSV matrix, ``variance``, and ``optimize``, whose
table file is compared after its printed summary.  The CSV inputs, the INI
file and the table file are written to the temporary directory.  Prints one line per
command, "identical", "data identical" where only the leading
configuration line differs, or "DIFFERENT" with the mechanisms whose rows
differ and a diff; then the mechanisms whose rows differ in any command.
Exits 1 if any output differs at all.  Each command takes a few seconds; clients are
numerous enough that every sampler runs over several blocks.
``estimate-n32`` runs the adaptive arm alone at N=32 over three runs, so
that each eps solves three tables at the same (N, M, eps), the later ones
from the outputs S and the solution stored by the one before;
``estimate-n16`` does the same over five runs at the default N=16, where
``estimate`` spends its time, so that the later tables' first rounds, each
the stored program with the new pmf's objective, are compared too.
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMON = ["--seed", "7", "--bins", "8", "--eps", "0.5,1,4", "--out", "-"]
SWEEP = ["sweep", "--n", "30000", "--runs", "1", "--parameter"]
# what estimate reads, set by file keys; the short keys are flag names
INI = """[experiment]
eps = 0.5,1,4
n = 40000
runs = 2
seed = 11
bins = 8
mechanisms = laplace,adaptive,piecewise,duchi,hybrid
split = 0.2
dataset = gaussian:mean=0.3,sd=0.5
"""


def commands(data: Path, table: Path, ini: Path) -> dict:
    """The compared commands, each run after COMMON except estimate-ini,
    which takes no flag but --config; data is the CSV matrix they read,
    table the file optimize writes, ini the INI file estimate-ini reads."""
    return {
        "estimate": ["estimate", "--n", "60000", "--runs", "2"],
        "estimate-exponential": ["estimate", "--n", "60000", "--runs", "2",
                                 "--dataset", "exponential"],
        "estimate-bernoulli": ["estimate", "--n", "60000", "--runs", "2",
                               "--dataset", "bernoulli:p=0.3"],
        "estimate-n32": ["estimate", "--bins", "32", "--runs", "3", "--eps", "0.5,1",
                         "--mechanisms", "adaptive", "--n", "60000"],
        "estimate-n16": ["estimate", "--bins", "16", "--runs", "5", "--mechanisms", "adaptive",
                         "--n", "60000"],
        "estimate-ini": ["estimate", "--config", str(ini)],
        "estimate-csv": ["estimate", "--csv", str(data), "--column", "1", "--runs", "2"],
        "sweep-split": SWEEP + ["split", "--grid", "0.1,0.3"],
        "sweep-bin_size": SWEEP + ["bin_size", "--grid", "0.25,0.5"],
        "sweep-noise_range": SWEEP + ["noise_range", "--grid", "6,10"],
        "multidim-k1": ["multidim", "--d", "3", "--k", "1", "--n", "60000", "--runs", "1"],
        # eps / k = 0.25 has no feasible table in the window 4 * bins = 32,
        # which revisions before the derived default window use
        "multidim-k2": ["multidim", "--d", "3", "--k", "2", "--n", "60000", "--runs", "1",
                        "--eps", "1,2,8"],
        "multidim-csv": ["multidim", "--csv", str(data), "--k", "2", "--runs", "1",
                         "--eps", "1,2,8"],
        "variance": ["variance", "--dataset", "gaussian:sd=0.2"],
        "optimize": ["optimize", "--eps", "1", "--out", str(table)],
    }


def write_data(path: Path) -> None:
    """A header and 40000 rows of three columns of different shapes."""
    rng = np.random.default_rng(2024)
    n = 40_000
    cols = [rng.normal(3.0, 2.0, n), rng.exponential(0.5, n), rng.uniform(-4.0, 9.0, n)]
    lines = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
    path.write_text("\n".join(lines) + "\n")


def run(tree: Path, args: list[str], table: Path) -> bytes:
    """The command's output, followed by the table file if it wrote one."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    common = [] if "--config" in args else COMMON
    out = subprocess.run(
        [sys.executable, "-m", "ldpmean.cli", *common, *args],
        env=env, cwd=tree, check=True, capture_output=True,
    ).stdout
    if table.exists():
        out += table.read_bytes()
        table.unlink()
    return out


def rows_by_mechanism(out: bytes) -> dict:
    """The data rows of an output under the value of its "mechanism"
    column; a line that is no CSV row of the header (the optimize
    summary and table) goes under "(not a CSV row)"."""
    lines = out.decode().splitlines()
    header = lines[1].split(",") if len(lines) > 1 else []
    col = header.index("mechanism") if "mechanism" in header else None
    rows = {}
    for line in lines[2:]:
        fields = line.split(",")
        key = fields[col] if col is not None and len(fields) == len(header) else "(not a CSV row)"
        rows.setdefault(key, []).append(line)
    return rows


def moved(theirs: bytes, ours: bytes) -> list[str]:
    """The mechanisms whose rows differ between two outputs."""
    a, b = rows_by_mechanism(theirs), rows_by_mechanism(ours)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    differ, moved_anywhere = 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "tree"
        export(argv[0], other)
        data, table = Path(tmp) / "data.csv", Path(tmp) / "noise_table.txt"
        ini = Path(tmp) / "estimate.ini"
        write_data(data)
        ini.write_text(INI)
        for name, args in commands(data, table, ini).items():
            theirs, ours = run(other, args, table), run(ROOT, args, table)
            same = theirs == ours
            data_same = theirs.split(b"\n", 1)[1] == ours.split(b"\n", 1)[1]
            differ += not same
            verdict = "identical" if same else "data identical" if data_same else "DIFFERENT"
            print(f"{name}: {verdict} ({len(ours)} bytes)")
            if not data_same:
                mechanisms = moved(theirs, ours)
                moved_anywhere.update(mechanisms)
                print(f"{name}: rows differ for {', '.join(mechanisms)}")
                sys.stdout.writelines(difflib.unified_diff(
                    theirs.decode().splitlines(True), ours.decode().splitlines(True),
                    argv[0], "working tree",
                ))
    print("rows differ for: " + (", ".join(sorted(moved_anywhere)) or "no mechanism"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
