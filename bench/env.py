"""Locate the checkout, import stabgraph from its ``src/``, describe the machine.

The benchmark always measures the sources of the checkout it sits in, never
an installed copy, so ``ensure_stabgraph`` must run before any other bench
module imports ``stabgraph``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stabgraph"


def ensure_stabgraph():
    """Import ``stabgraph`` from this checkout; exit non-zero if it is absent."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no stabgraph sources at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stabgraph

    if Path(stabgraph.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"bench: stabgraph imported from {stabgraph.__file__}, not {PACKAGE}")
    return stabgraph


def _git_sha() -> str | None:
    # Read .git directly: the checkout may not be a repository, and asking
    # git would search the directories above it.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """The environment recorded with every result."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
