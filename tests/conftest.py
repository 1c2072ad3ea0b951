"""Shared helpers for tests that start a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """A fresh `python args` with this checkout's `src` first on its PYTHONPATH.

    pytest's `pythonpath` setting reaches only the pytest process, so without
    this a child of an uninstalled checkout cannot import cotsum.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def run_cotsum(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    return run_python("-m", "cotsum", *args, timeout=timeout)
