"""The README's examples run, and the package exports what __all__ lists."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import dicke2
from dicke2.cli import main

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


def test_readme_commands_run_and_their_config_echo_loads_back(tmp_path, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("dicke2 ")
    ]
    assert commands, "README.md has no dicke2 command"

    def run(argv, out):
        """Data bytes of one run: its --out file, or stdout; written files go to tmp_path."""
        redirect = {"--out": str(out), "--stats": str(tmp_path / "stats.json")}
        argv = [redirect.get(prev, a) for prev, a in zip([None, *argv], argv)]
        capsys.readouterr()
        assert main(argv) == 0, argv
        return out.read_bytes() if "--out" in argv else capsys.readouterr().out.encode()

    for i, argv in enumerate(commands):
        data = run(argv, tmp_path / f"{i}.out")
        echo = next(ln for ln in data.decode().splitlines() if ln.startswith("# config: "))
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(echo.removeprefix("# config: "))
        # The echo alone reproduces the run; run() redirects the --out placeholder.
        again = [argv[0], "--config", str(cfg)] + (["--out", "?"] if "--out" in argv else [])
        assert run(again, tmp_path / f"{i}.again") == data, argv


def test_all_names_resolve_without_duplicates():
    assert len(set(dicke2.__all__)) == len(dicke2.__all__)
    missing = [name for name in dicke2.__all__ if not hasattr(dicke2, name)]
    assert missing == []
