"""Every example script imports against the current public API.

The examples are the library's end-to-end users, and CI's ``examples``
job runs only some of them, slowly.  Importing each one here, without
running its ``main()``, makes an example that still imports a removed
name fail tier-1 as well.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
