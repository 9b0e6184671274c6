"""Golden demo output: each ``demos/*.py`` script's stdout, byte for byte.

The demos tell the paper's story with the library's own numbers, so a change
that moves any printed figure fails here. Each script runs in-process as
``__main__`` with stdout redirected. The timing that grid_uniqueness.py
prints is stored as ``ELAPSED``.

To record the outputs again after an intended change:

    PYTHONPATH=src python tests/test_demos_golden.py
"""

import contextlib
import io
import json
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos.json"
ELAPSED = re.compile(r"(fair, )\d+\.\d+( s)$", re.MULTILINE)

EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def replay(name: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return ELAPSED.sub(r"\1ELAPSED\2", stdout.getvalue())


def test_every_demo_has_a_golden():
    assert sorted(EXPECTED) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output(name):
    assert replay(name) == EXPECTED[name]


def record() -> None:
    outputs = {path.name: replay(path.name) for path in sorted(DEMOS.glob("*.py"))}
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
