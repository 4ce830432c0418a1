"""Shared provenance helpers: model version, environment fingerprint, git SHA.

Every provenance-bearing artifact this repo writes — run manifests
(``repro.run-manifest/v1``), bench trajectory points (``repro.bench/v1``),
fidelity scoreboards (``repro.fidelity/v1``) and fleet audits
(``repro.fleet/v1``) — must be attributable to a concrete model version,
environment and commit.  Keeping the fingerprint in one module
guarantees all three artifact families carry the *identical* schema
(:data:`FINGERPRINT_KEYS`), so cross-artifact joins ("was this FIDELITY
point recorded on the same box as that BENCH point?") are a dict
comparison, not a field-mapping exercise.
"""

from __future__ import annotations

import os
import platform
import subprocess
from functools import lru_cache
from typing import Any

__all__ = [
    "MODEL_VERSION",
    "FINGERPRINT_KEYS",
    "environment_fingerprint",
    "detect_git_sha",
]

#: Version of the model every artifact records (``repro.__version__``).
MODEL_VERSION = "1.0.0"

#: Exact key set of :func:`environment_fingerprint` — artifact schema tests
#: assert against this, so extending the fingerprint is a one-line change
#: that every artifact family picks up at once.
FINGERPRINT_KEYS = (
    "python",
    "implementation",
    "platform",
    "machine",
    "cpu_count",
    "git_sha",
    "numpy",
    "scipy",
)


@lru_cache(maxsize=None)
def _git_sha(short: int) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", f"--short={short}", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10.0,
            check=True,
        )
        return out.stdout.strip() or "nogit"
    except (OSError, subprocess.SubprocessError):
        return "nogit"


def detect_git_sha(short: int = 10) -> str:
    """Short git SHA of HEAD, or ``"nogit"`` outside a repository.

    Cached per process — HEAD does not move under a running tool, and the
    fingerprint is taken once per artifact.
    """
    return _git_sha(short)


def environment_fingerprint() -> dict[str, Any]:
    """Where a run happened: interpreter, platform, commit, numeric stack.

    Shared by run manifests, bench artifacts, and fidelity scoreboards so
    performance *and* accuracy numbers are always attributable to a
    concrete environment.  Keys are exactly :data:`FINGERPRINT_KEYS`.
    """
    fingerprint: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": detect_git_sha(),
    }
    for module in ("numpy", "scipy"):
        try:
            fingerprint[module] = __import__(module).__version__
        except Exception:  # pragma: no cover - numpy/scipy are baked in
            fingerprint[module] = None
    return fingerprint

