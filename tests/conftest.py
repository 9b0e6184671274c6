import os
from pathlib import Path

import numpy as np
import pytest

# pyproject's pythonpath puts src/ on this process's sys.path; child
# interpreters (python -m cutchoose) read PYTHONPATH, so give them src/ too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
