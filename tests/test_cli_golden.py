"""Golden CLI reports: stdout, exit status and written files, byte for byte.

Each case in golden/cli_reports.json holds an argv, an optional config file
body, an optional seed environment variable, and the exact output. Cases run
in-process through ``cutchoose.cli.main`` with stdout redirected. In argv,
``{tmp}`` names a scratch directory; a case's ``config`` is written to
``{tmp}/config.json`` and its ``written`` text is what ``{tmp}/out.txt``
must hold afterwards. The numpy version in ``versions.generator`` is stored
as ``NUMPY_VERSION`` and substituted on replay.

To record the outputs again after an intended report change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cutchoose import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"
NUMPY_TOKEN = "(numpy NUMPY_VERSION)"
NUMPY_ACTUAL = f"(numpy {np.__version__})"

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def replay(case: dict, tmp: Path) -> dict:
    """Run one case and return its observed status, stdout and written file."""
    if "config" in case:
        body = case["config"]
        text = body if isinstance(body, str) else json.dumps(body)
        (tmp / "config.json").write_text(text, encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp)) for arg in case["argv"]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse errors, --version
            status = exc.code
    observed = {"status": status, "stdout": stdout.getvalue().replace(NUMPY_ACTUAL, NUMPY_TOKEN)}
    out = tmp / "out.txt"
    if out.exists():
        observed["written"] = out.read_text(encoding="utf-8").replace(NUMPY_ACTUAL, NUMPY_TOKEN)
    return observed


@pytest.fixture
def seed_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    return monkeypatch


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_report(case, tmp_path, seed_env):
    if "env_seed" in case:
        seed_env.setenv(cli.SEED_ENV_VAR, case["env_seed"])
    observed = replay(case, tmp_path)
    expected = {key: case[key] for key in ("status", "stdout", "written") if key in case}
    assert observed == expected


def test_reruns_are_byte_identical(tmp_path, seed_env):
    # The parser is built once per process; a second run of each argv, also
    # right after argparse has exited, must give the same bytes.
    for case in CASES:
        seed_env.delenv(cli.SEED_ENV_VAR, raising=False)
        if "env_seed" in case:
            seed_env.setenv(cli.SEED_ENV_VAR, case["env_seed"])
        runs = []
        for _ in range(2):
            (tmp_path / "out.txt").unlink(missing_ok=True)
            runs.append(replay(case, tmp_path))
        assert runs[0] == runs[1], case["name"]


def record() -> None:
    for case in CASES:
        os.environ.pop(cli.SEED_ENV_VAR, None)
        if "env_seed" in case:
            os.environ[cli.SEED_ENV_VAR] = case["env_seed"]
        case.pop("written", None)
        with tempfile.TemporaryDirectory() as tmp:
            case.update(replay(case, Path(tmp)))
    os.environ.pop(cli.SEED_ENV_VAR, None)
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
