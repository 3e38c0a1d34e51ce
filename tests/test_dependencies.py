"""The simulator runs on the standard library alone.

The trace builders, graph generators, coalescer, MSHRs and the run
manifest are plain Python, so neither importing the entry points nor
running a point may load numpy, networkx or scipy.  The import check
runs in a fresh interpreter: this test process may already have loaded
them (``tests/test_workloads.py`` compares against networkx).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HEAVY = ("numpy", "networkx", "scipy")

GUARD = f"""
import sys
import repro.cli, repro.core.system, repro.workloads.suite
import repro.model, repro.serve.server
from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark
run_benchmark("LV", "small", CoherenceMode.CCSM)
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_entry_points_and_a_run_load_no_heavy_dependency():
    result = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_no_source_module_imports_them():
    pattern = re.compile(
        rf"^\s*(import|from)\s+({'|'.join(HEAVY)})\b", re.MULTILINE)
    offenders = [str(path.relative_to(ROOT))
                 for path in sorted(SRC.rglob("*.py"))
                 if pattern.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_package_declares_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies\s*=\s*\[\s*\]", project,
                     re.MULTILINE), project
