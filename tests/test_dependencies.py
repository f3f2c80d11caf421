"""The library has no runtime dependencies: importing it and its CLI loads
only the standard library, and ``pyproject.toml`` declares none.  Nor does
it load the code-introspection modules that ``dataclasses`` pulls in, which
would add milliseconds to every start of the command line.  Its sources
parse as the oldest Python that ``pyproject.toml`` admits."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatcells

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(bruhatcells.__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import bruhatcells, bruhatcells.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


SLOW_IMPORTS = ["ast", "dataclasses", "dis", "inspect", "tokenize"]


@pytest.fixture(scope="module")
def loaded():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_imports_load_only_the_standard_library(loaded):
    assert "bruhatcells.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "bruhatcells"
    ]
    assert not foreign


def test_imports_skip_the_introspection_modules(loaded):
    assert "bruhatcells.cli" in loaded
    assert [name for name in SLOW_IMPORTS if name in loaded] == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize(
    "path", sorted((SRC / "bruhatcells").glob("*.py")), ids=lambda path: path.name
)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml: requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
