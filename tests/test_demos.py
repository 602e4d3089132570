"""The demos and the README's command-line example run end to end against the package as it stands."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from npmlmix.cli import main
from npmlmix.experiments import CSV_HEADER, REPORT_VERSION
from npmlmix.serialize import read_json

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` in ``cwd``, with the package's source tree importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", ["quickstart.py", "sieve_vs_discrete.py"])
def test_demo_exits_zero(demo, tmp_path):
    proc = _run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


README = (ROOT / "README.md").read_text()


def test_readme_quickstart_runs_as_written(tmp_path):
    (block,) = re.findall(r"## Library quickstart\s*```python\n(.*?)```", README, re.S)
    proc = _run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "converged", proc.stdout


def _readme_command(*parts: str) -> list:
    """The one README ``npmlmix`` command line holding every part, as argv without the program name."""
    (line,) = [line for line in README.splitlines() if line.startswith("npmlmix ") and all(p in line for p in parts)]
    return shlex.split(line)[1:]


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    """A directory where the README's simulate and fit lines ran as written on its ``sim.json``.

    Returns the directory and each line's exit code.
    """
    workdir = tmp_path_factory.mktemp("readme")
    sim = re.search(r"`simulate` config:\s*```json\n(.*?)```", README, re.S).group(1)
    (workdir / "sim.json").write_text(sim)
    lines = {"simulate": ("simulate",), "npml": ("fit", "--method npml"), "sieve": ("fit", "--method sieve")}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        return workdir, {name: main(_readme_command(*parts)) for name, parts in lines.items()}


def test_readme_npml_line_certifies_with_default_options(readme_dir):
    workdir, exits = readme_dir
    fit_argv = _readme_command("fit", "--method npml")
    assert fit_argv[fit_argv.index("--grid") + 1] == "5"
    assert exits["simulate"] == 0 and exits["npml"] == 0
    assert read_json(workdir / "fit.json")["status"] == "converged"


def test_readme_sieve_line_certifies_with_default_options(readme_dir):
    workdir, exits = readme_dir
    assert exits["sieve"] == 0
    assert read_json(workdir / "sieve.json")["status"] == "converged"


def _run_readme_certify(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = main(_readme_command("certify", "--resolution 65"))
    return code, json.loads(capsys.readouterr().out)


def test_readme_certify_line_gives_a_verdict(readme_dir, monkeypatch, capsys):
    code, report = _run_readme_certify(readme_dir[0], monkeypatch, capsys)
    assert code == (0 if report["optimal"] else 2)
    assert report["grid_resolution"] == 65


@pytest.mark.xfail(
    strict=True,
    reason="the npml fit is certified on its 64-point scan grid only; at resolution 65 its sup is "
    "about 1 + 3.1e-4, until fits polish their scan grid's maxima",
)
def test_readme_certify_line_certifies_the_npml_fit(readme_dir, monkeypatch, capsys):
    code, report = _run_readme_certify(readme_dir[0], monkeypatch, capsys)
    assert code == 0 and report["optimal"]


def test_readme_experiment_line_runs_as_written(tmp_path, monkeypatch, capsys):
    exp = re.search(r"`experiment` config.*?```json\n(.*?)```", README, re.S).group(1)
    (tmp_path / "exp.json").write_text(exp)
    monkeypatch.chdir(tmp_path)
    assert main(_readme_command("experiment")) == 0, capsys.readouterr().err
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].split(",") == CSV_HEADER
    cfg = json.loads(exp)
    assert len(lines) == 1 + len(cfg["N_schedule"]) * len(cfg["seeds"])
    assert all(line.split(",")[0] == str(REPORT_VERSION) for line in lines[1:])
    assert (tmp_path / "report.gp").read_text().strip()
