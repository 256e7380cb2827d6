"""The README's library tour runs, its tag and module lists are complete, and every exported name exists."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import rmt_locallaw
from rmt_locallaw import runner

README = pathlib.Path(__file__).parent.parent / "README.md"
MODULES = ["rmt_locallaw"] + [f"rmt_locallaw.{m.name}" for m in pkgutil.iter_modules(rmt_locallaw.__path__)]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_lists_every_experiment_tag():
    listed = re.search(r"Available tags: (.*?)\.\n\n", README.read_text(), flags=re.S).group(1)
    assert sorted(re.findall(r"`([\w-]+)`", listed)) == sorted(runner._REGISTRY)


def test_readme_module_table_lists_every_module():
    table = re.search(r"\| module +\| contents \|\n(.*?)\n\n", README.read_text(), flags=re.S).group(1)
    listed = re.findall(r"^\| `(\w+)` ", table, flags=re.M)
    package = [m.name for m in pkgutil.iter_modules(rmt_locallaw.__path__) if m.name != "__main__"]
    assert sorted(listed) == sorted(package)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ lists {attr!r}, which does not exist"


def test_pyproject_version_is_the_artifact_version():
    # a regex, not tomllib: tomllib needs Python 3.11, and the package supports 3.10
    pyproject = (README.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, flags=re.M).group(1) == runner.ARTIFACT_VERSION
    assert rmt_locallaw.__version__ == runner.ARTIFACT_VERSION
