"""The demos and the README's command-line example run end to end against the package as it stands."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from npmlmix.cli import main
from npmlmix.serialize import read_json

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["quickstart.py", "sieve_vs_discrete.py"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _readme_command(readme: str, *parts: str) -> list:
    """The one README ``npmlmix`` command line holding every part, as argv without the program name."""
    (line,) = [line for line in readme.splitlines() if line.startswith("npmlmix ") and all(p in line for p in parts)]
    return shlex.split(line)[1:]


def test_readme_npml_line_certifies_with_default_options(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    sim = re.search(r"`simulate` config:\s*```json\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(sim)
    assert main(_readme_command(readme, "simulate")) == 0
    fit_argv = _readme_command(readme, "fit", "--method npml")
    assert fit_argv[fit_argv.index("--grid") + 1] == "5"
    assert main(fit_argv) == 0
    assert read_json(tmp_path / "fit.json")["status"] == "converged"
