"""Lets pytest run from a checkout without installing. This checkout's src
is appended to sys.path only when no other `cure` is importable, so that
`PYTHONPATH=<another checkout>/src python -m pytest` tests that checkout's
code, and an installed `cure` is tested as installed."""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("cure") is None:
    sys.path.append(str(Path(__file__).resolve().parent / "src"))
