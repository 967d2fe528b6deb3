"""The README's command examples parse with the real parsers, every name
its Python examples import from motifemb exists, and so does every name its
prose cites as `module.name` or as a `name(...)` call, so a flag or
function renamed or removed cannot stay in the docs. Nothing is run: each
command example only goes through its parser's ``parse_args``."""
from __future__ import annotations

import ast
import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import motifemb
from motifemb import cli

from conftest import SCRIPT_DIR, load_script

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[str]]:
    """argv of every `motifemb ...` and `python3 scripts/<name>.py ...`
    line in the README's code blocks, with `\\` continuations joined and
    `#` comments dropped."""
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["motifemb"] or " ".join(argv[:2]).startswith("python3 scripts/"):
                examples.append(argv)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples_of_every_entry_point():
    commands = {argv[1] for argv in EXAMPLES if argv[0] == "motifemb"}
    scripts = {argv[1] for argv in EXAMPLES if argv[0] != "motifemb"}
    assert commands == set(cli._COMMANDS)
    assert scripts == {f"scripts/{path.name}" for path in SCRIPT_DIR.glob("*.py")}


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_parses(argv):
    if argv[0] == "motifemb":
        cli.build_parser().parse_args(argv[1:])
    else:
        load_script(Path(argv[1]).stem).build_parser().parse_args(argv[2:])


def readme_python_imports() -> list[tuple[str, str]]:
    """(module, name) for every name a README Python block imports from
    motifemb or one of its modules."""
    imports = []
    for block in re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "motifemb":
                imports += [(node.module, alias.name) for alias in node.names]
    return imports


PYTHON_IMPORTS = sorted(set(readme_python_imports()))


def test_readme_python_examples_import_from_motifemb():
    assert PYTHON_IMPORTS


@pytest.mark.parametrize("module, name", PYTHON_IMPORTS,
                         ids=[f"{module}.{name}" for module, name in PYTHON_IMPORTS])
def test_readme_python_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


SUBMODULES = {info.name for info in pkgutil.iter_modules(motifemb.__path__)}
# bare calls that are math notation, not code
MATH_NOTATION = {"floor"}


def readme_cited_names() -> list[tuple[str, str]]:
    """(submodule, name) for every `submodule.name` in the README's inline
    code, and ("", name) for every bare `name(` call there; code blocks and
    paths such as `tests/x.py` are left out."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    cited = set()
    for span in re.findall(r"`([^`]+)`", prose):
        cited.update((module, name) for module, name
                     in re.findall(r"(?<![\w./])([a-z_]\w*)\.([A-Za-z_]\w*)", span)
                     if module in SUBMODULES)
        cited.update(("", name) for name in re.findall(r"(?<![\w./])([A-Za-z_]\w*)\(", span)
                     if name not in MATH_NOTATION)
    return sorted(cited)


def cited_name_exists(module: str, name: str) -> bool:
    homes = [importlib.import_module(f"motifemb.{module}")] if module else [motifemb, builtins]
    return any(hasattr(home, name) for home in homes)


def test_readme_cited_names_exist():
    cited = readme_cited_names()
    assert {module for module, _ in cited} > {""}  # both kinds are found
    missing = [f"{module}.{name}" if module else f"{name}(" for module, name in cited
               if not cited_name_exists(module, name)]
    assert not missing, f"README cites names that do not exist: {missing}"
