"""Every script under ``examples/`` runs to completion.

The examples drive the public API end to end — including the
synchronous ``HammerSystem`` walks (``protocol_trace.py``) — so each
one runs in its own interpreter, from the source tree, and must exit 0.

Run alone with ``python -m pytest -m smoke``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    # an empty glob would make the parametrized check below vacuous
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n"
        f"{completed.stderr[-2000:]}")
