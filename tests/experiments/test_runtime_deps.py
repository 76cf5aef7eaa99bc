"""The simulator imports with only its runtime dependencies installed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Blocks every top-level package outside the standard library (private
#: ``_name`` modules included) and the declared runtime dependencies, so
#: development-only ones such as hypothesis fail to import; then imports
#: the module a spawned sweep worker loads first.
_PROBE = """
import sys

RUNTIME = {"numpy", "scipy", "repro"}

class _Blocker:
    def find_spec(self, name, path=None, target=None):
        top = name.split(".")[0]
        if not (
            top in RUNTIME
            or top in sys.stdlib_module_names
            or top.startswith("_")
        ):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, _Blocker())
import repro.experiments.runner
"""


def test_runner_imports_without_dev_dependencies():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
