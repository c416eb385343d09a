"""Check that fixed-seed CLI output is byte-identical to a git revision's.

    python3 tests/csv_identity.py REV

Exports REV with ``git archive`` into a temporary directory, runs the same
fixed-seed ``estimate``, ``sweep --parameter split`` and ``multidim --k 1``
commands with that tree's ``src/`` and with the working tree's, and compares
the CSV bytes.  Prints one line per command and exits 1 if any differ.
Each command takes a few seconds; clients are numerous enough that every
sampler runs over several blocks.
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMON = ["--seed", "7", "--bins", "8", "--eps", "0.5,1,4", "--out", "-"]
COMMANDS = {
    "estimate": ["estimate", "--n", "60000", "--runs", "2"],
    "sweep-split": ["sweep", "--parameter", "split", "--grid", "0.1,0.3",
                    "--n", "60000", "--runs", "1"],
    "multidim-k1": ["multidim", "--d", "3", "--k", "1", "--n", "60000", "--runs", "1"],
}


def run(tree: Path, args: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "ldpmean.cli", *args, *COMMON],
        env=env, cwd=tree, check=True, capture_output=True,
    ).stdout


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
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        export(argv[0], other)
        for name, args in COMMANDS.items():
            theirs, ours = run(other, args), run(ROOT, args)
            same = theirs == ours
            differ += not same
            print(f"{name}: {'identical' if same else 'DIFFERENT'} ({len(ours)} bytes)")
            if not same:
                sys.stdout.writelines(difflib.unified_diff(
                    theirs.decode().splitlines(True), ours.decode().splitlines(True),
                    argv[0], "working tree",
                ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
