"""The on-disk artifact format, defined once.

BENCH trajectory points (``repro.bench/v1``), FIDELITY scoreboards
(``repro.fidelity/v1``) and FLEET audits (``repro.fleet/v1``) share one
format: a JSON object opening with a provenance envelope — ``schema``,
``created_utc``, ``git_sha``, ``model_version``, ``environment``,
``inputs_hash`` — written append-only as ``<PREFIX>_<YYYYMMDD>_<sha>.json``.
An :class:`ArtifactKind` names one family (schema, file prefix, the body
keys it requires, and its own content checks); its methods build the
envelope, validate, write and load, so the three families cannot drift
apart.  Loading is a trust boundary: a missing or unreadable file, bad
JSON or a failed check raises with the path in the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping

from ..obs.envinfo import MODEL_VERSION, detect_git_sha, environment_fingerprint
from ..obs.export import inputs_hash

__all__ = ["ENVELOPE_KEYS", "ArtifactKind", "append_only_artifact_path"]

#: Envelope keys every artifact must carry besides ``schema``.
ENVELOPE_KEYS = ("created_utc", "git_sha", "environment", "inputs_hash")


def append_only_artifact_path(
    out_dir: str | Path, stem: str, suffix: str = ".json"
) -> Path:
    """First free ``<out_dir>/<stem><suffix>`` path, creating ``out_dir``.

    A same-day same-commit rerun gets a ``_2``/``_3``… serial rather than
    overwriting the earlier file — trajectory points are append-only.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}{suffix}"
    serial = 1
    while path.exists():
        serial += 1
        path = out_dir / f"{stem}_{serial}{suffix}"
    return path


@dataclass(frozen=True)
class ArtifactKind:
    """One artifact family: schema, file prefix and content checks.

    ``required`` lists body keys beyond :data:`ENVELOPE_KEYS`; ``check``
    runs the family's own checks on a document that has them all.
    """

    label: str
    schema: str
    prefix: str
    required: tuple[str, ...] = ()
    check: Callable[[Mapping[str, Any]], None] | None = None

    def envelope(
        self,
        inputs: Mapping[str, Any],
        *,
        git_sha: str | None = None,
        created_utc: str | None = None,
    ) -> dict[str, Any]:
        """The provenance block a new document of this kind opens with."""
        return {
            "schema": self.schema,
            "created_utc": created_utc
            or datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_sha": git_sha if git_sha is not None else detect_git_sha(),
            "model_version": MODEL_VERSION,
            "environment": environment_fingerprint(),
            "inputs_hash": inputs_hash(inputs),
        }

    def validate(self, doc: Any) -> None:
        """Raise ``ValueError`` unless ``doc`` is a well-formed artifact."""
        if not isinstance(doc, Mapping):
            raise ValueError(f"{self.label} artifact must be a JSON object")
        schema = doc.get("schema")
        if schema != self.schema:
            raise ValueError(f"unexpected schema {schema!r} (want {self.schema!r})")
        for key in ENVELOPE_KEYS + self.required:
            if key not in doc:
                raise ValueError(f"{self.label} artifact missing {key!r}")
        if self.check is not None:
            self.check(doc)

    def write(self, doc: Mapping[str, Any], out_dir: str | Path = ".") -> Path:
        """Validate ``doc`` and write it as ``<PREFIX>_<day>_<sha>.json``."""
        self.validate(doc)
        day = str(doc["created_utc"])[:10].replace("-", "")
        path = append_only_artifact_path(out_dir, f"{self.prefix}_{day}_{doc['git_sha']}")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
        return path

    def load(self, path: str | Path) -> dict[str, Any]:
        """Read and validate one artifact; errors name the file."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise FileNotFoundError(f"no such {self.label} artifact: {path}") from None
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
        try:
            self.validate(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return doc
