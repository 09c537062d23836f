"""The README's library example runs, and the package exports what __all__ lists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import dicke2

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks, "README.md has no python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=ROOT
        )
        assert proc.returncode == 0, proc.stderr


def test_all_names_resolve_without_duplicates():
    assert len(set(dicke2.__all__)) == len(dicke2.__all__)
    missing = [name for name in dicke2.__all__ if not hasattr(dicke2, name)]
    assert missing == []
