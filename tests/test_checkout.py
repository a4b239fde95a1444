"""Which `cure` a pytest run in this checkout tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_pytest(pythonpath: str | None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_metrics.py"]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_cure_on_pythonpath_is_the_one_tested(tmp_path):
    (tmp_path / "cure").mkdir()
    (tmp_path / "cure" / "__init__.py").write_text('raise RuntimeError("stub cure package imported")\n')
    result = run_pytest(str(tmp_path))
    assert result.returncode != 0
    assert "stub cure package imported" in result.stdout


def test_checkout_is_tested_without_pythonpath():
    result = run_pytest(None)
    assert result.returncode == 0, result.stdout
