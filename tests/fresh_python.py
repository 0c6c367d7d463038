"""One way for the tests to start a fresh interpreter on this ostbc_lab."""

import os
import subprocess
import sys
from pathlib import Path

import ostbc_lab


def run_python(*args, timeout):
    """Run ``python *args`` in a child process that imports the ostbc_lab
    these tests imported, and capture its output as text."""
    env = dict(os.environ)
    src = str(Path(ostbc_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
