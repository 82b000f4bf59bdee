"""Pinned child environment and the provenance record of every run."""

from __future__ import annotations

import os
import platform
from pathlib import Path

#: thread pools capped at nproc in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "SPECTRA_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's own ``src`` only, the
    numpy backend forced (so installing numba later cannot change what is
    measured), thread pools capped at nproc, and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SPECTRA_NO_NUMBA"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, env: dict) -> dict:
    """What the parent knows before any child starts."""
    return {
        "git_sha": git_sha(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "threads": {var: env[var] for var in THREAD_VARS},
        "spectra_no_numba": env["SPECTRA_NO_NUMBA"],
    }
