"""Import hygiene, checked in a fresh interpreter.

scipy is a test oracle only (see ``tests/analysis/test_t975.py``): no
module under ``src/repro`` may import it, because every CLI process and
every pool worker would pay its import cost.  The experiments CLI must
import an experiment module only when that experiment runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return its ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_never_imports_scipy():
    modules = _loaded_modules(
        "import importlib\n"
        "from repro.experiments.__main__ import EXPERIMENTS\n"
        "assert len(EXPERIMENTS) == 13\n"
        "for path, _ in EXPERIMENTS.values():\n"
        "    importlib.import_module(path)\n"
        "import repro.analysis\n"
        "import repro.service.app\n"
    )
    assert "repro.experiments.fig13_llm" in modules
    assert "repro.service.app" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_list_imports_no_experiment_module():
    modules = _loaded_modules(
        "import contextlib, io\n"
        "from repro.experiments.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['list']) == 0\n"
    )
    prefixes = ("fig", "table", "re", "iotlb", "openworld")
    experiments = [
        m
        for m in modules
        if m.startswith("repro.experiments.")
        and m.removeprefix("repro.experiments.").startswith(prefixes)
    ]
    assert "repro.experiments.__main__" in modules
    assert experiments == []
