"""Every ```python block of README.md runs, each in a fresh interpreter with
the checkout's src/ on the path, and exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
