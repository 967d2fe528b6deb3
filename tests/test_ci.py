"""The CI workflow runs the tested set: it installs from constraints.txt,
whose numpy and scipy pins are the versions tests/golden.json was made
with, on the Python that pyproject.toml requires; pyproject.toml's numpy
and scipy floors are the pinned minor versions."""
from __future__ import annotations

import json
import re
import tomllib
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def pins() -> dict[str, str]:
    """{package: version} of every ``name==version`` line of constraints.txt."""
    text = (ROOT / "constraints.txt").read_text()
    return {name.lower(): version
            for name, version in re.findall(r"^([\w.-]+)==(\S+)$", text, re.M)}


def test_ci_installs_the_golden_versions():
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    (install,) = [step["run"] for step in steps if step.get("name") == "Install dependencies"]
    assert "-c constraints.txt" in install
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())["versions"]
    assert {name: pins().get(name) for name in golden} == golden


def test_ci_runs_the_required_python():
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    (python,) = [step["with"]["python-version"] for step in steps
                 if step.get("uses", "").startswith("actions/setup-python")]
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == f">={python}"


def test_declared_floors_are_the_tested_versions():
    # a floor below the pinned minor version would declare versions no run tests
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    floors = dict(re.fullmatch(r"([\w.-]+)>=([\d.]+)", dep).groups() for dep in deps)
    for name in ("numpy", "scipy"):
        floor = tuple(map(int, floors[name].split(".")))
        pin = tuple(map(int, pins()[name].split(".")))
        assert pin >= floor and pin[:2] == floor[:2], (name, floors[name], pins()[name])
