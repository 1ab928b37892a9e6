"""The commit a benchmark curve was measured at, for the JSON files the
scaling tools under tools/ write."""

from __future__ import annotations

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str:
    """The checkout's full commit hash, with "-dirty" when the tree has
    uncommitted changes, or "unknown" without git."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
