"""Every experiment script still imports: a config field or API name it
uses that no longer exists fails here, not on the next manual run."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # Each script guards main(); this runs only imports and definitions.
    runpy.run_path(str(path), run_name="not_main")
