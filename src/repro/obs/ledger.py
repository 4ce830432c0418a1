"""Fleet run ledger: discover and index every on-disk observability artifact.

PRs 1–3 made each run write provenance-bearing artifacts — run manifests
(``repro.run-manifest/v1``), bench trajectory points (``repro.bench/v1``),
fidelity scoreboards (``repro.fidelity/v1``), per-experiment ``<id>.json``
result summaries, and JSONL event traces.  This module turns a pile of
those files (``results/``, ``benchmarks/baselines/``, CI artifact dumps…)
into one typed index — the *run ledger* — keyed by experiment, seed, and
environment fingerprint (via :mod:`repro.obs.envinfo`), which the fleet
aggregator (:mod:`repro.obs.fleet`) and the run report
(:mod:`repro.obs.report`, the only consumer of on-disk discovery) read.

Robustness contract: indexing never raises on artifact content.  Truncated
JSON, schema-version mismatches, duplicate run ids, and foreign files are
*skipped with a warning* (a ``ledger_skip`` trace event plus an entry in
:attr:`RunLedger.skipped`), because a fleet audit over months of artifacts
must not abort on one corrupt file.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .bench import BENCH_SCHEMA, validate_artifact
from .envinfo import FINGERPRINT_KEYS
from .export import MANIFEST_SCHEMA
from .fidelity import FIDELITY_SCHEMA, validate_fidelity_artifact
from .trace import get_trace

__all__ = [
    "LEDGER_KINDS",
    "LedgerEntry",
    "SkippedFile",
    "RunLedger",
    "build_ledger",
    "ledger_with_live_results",
    "fingerprint_key",
]

#: Artifact families the ledger indexes, in the order they are reported.
LEDGER_KINDS = ("manifest", "result", "bench", "fidelity", "trace")


def fingerprint_key(env: Mapping[str, Any] | None) -> str | None:
    """Stable short digest of an environment fingerprint.

    Restricted to :data:`~repro.obs.envinfo.FINGERPRINT_KEYS` so every
    artifact family (which all embed the same fingerprint schema) maps to
    the same key, making "same machine?" a string comparison.
    """
    if not isinstance(env, Mapping) or not env:
        return None
    canonical = json.dumps(
        {k: env.get(k) for k in FINGERPRINT_KEYS},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _digest(doc: Any, length: int = 12) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class LedgerEntry:
    """One indexed artifact."""

    run_id: str
    kind: str
    path: str
    created_utc: str | None
    seed: int | None
    experiment: str | None
    env_key: str | None
    doc: Mapping[str, Any]


@dataclass(frozen=True)
class SkippedFile:
    """One file the ledger refused to index, and why."""

    path: str
    reason: str


@dataclass(frozen=True)
class RunLedger:
    """Typed index over every discovered artifact (plus the rejects)."""

    entries: tuple[LedgerEntry, ...]
    skipped: tuple[SkippedFile, ...] = ()
    directories: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def of_kind(self, kind: str) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.entries if e.kind == kind)

    @property
    def manifests(self) -> tuple[LedgerEntry, ...]:
        return self.of_kind("manifest")

    @property
    def results(self) -> tuple[LedgerEntry, ...]:
        return self.of_kind("result")

    def bench_docs(self) -> list[dict[str, Any]]:
        """BENCH documents sorted by creation time (the trend axis)."""
        docs = [dict(e.doc) for e in self.of_kind("bench")]
        return sorted(docs, key=lambda d: str(d.get("created_utc", "")))

    def fidelity_docs(self) -> list[dict[str, Any]]:
        """FIDELITY documents sorted by creation time (newest last)."""
        docs = [dict(e.doc) for e in self.of_kind("fidelity")]
        return sorted(docs, key=lambda d: str(d.get("created_utc", "")))

    def latest_results(self) -> dict[str, LedgerEntry]:
        """One result entry per experiment (first in scan order wins).

        Scan order follows the ``directories`` argument of
        :func:`build_ledger`, so callers put the authoritative results
        directory first.
        """
        out: dict[str, LedgerEntry] = {}
        for entry in self.results:
            if entry.experiment and entry.experiment not in out:
                out[entry.experiment] = entry
        return out

    def summaries(self) -> dict[str, dict[str, Any]]:
        """Experiment name -> summary mapping, from :meth:`latest_results`."""
        return {
            name: dict(entry.doc.get("summary") or {})
            for name, entry in self.latest_results().items()
        }

    @property
    def experiments(self) -> list[str]:
        return sorted({e.experiment for e in self.results if e.experiment})

    @property
    def seeds(self) -> list[int]:
        return sorted({e.seed for e in self.entries if e.seed is not None})

    def env_counts(self) -> Counter:
        """How many entries carry each environment fingerprint key."""
        return Counter(e.env_key for e in self.entries if e.env_key)

    def dominant_env_key(self) -> str | None:
        """The fingerprint key most entries share (ties break lexically)."""
        counts = self.env_counts()
        if not counts:
            return None
        best = max(counts.values())
        return sorted(k for k, n in counts.items() if n == best)[0]

    def key(self, entry: LedgerEntry) -> tuple[str | None, int | None, str | None]:
        """The (experiment, seed, environment) coordinate of an entry."""
        return (entry.experiment, entry.seed, entry.env_key)

    def counts(self) -> dict[str, int]:
        """Entries per kind, in :data:`LEDGER_KINDS` order."""
        return {kind: len(self.of_kind(kind)) for kind in LEDGER_KINDS}


def _to_int(value: Any) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    return None


def _classify(path: Path) -> tuple[LedgerEntry | None, str | None]:
    """Parse + type one file; returns ``(entry, skip_reason)``.

    ``FLEET_*.json`` artifacts are the *output* of the run report and are
    deliberately not re-ingested (reason returned, never a warning).
    """
    name = path.name
    if name.startswith("FLEET_"):
        return None, "fleet artifact (dashboard output, not an input)"
    if path.suffix == ".jsonl":
        events = 0
        kinds: Counter = Counter()
        try:
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(doc, dict):
                    events += 1
                    kinds[str(doc.get("kind", "?"))] += 1
        except OSError as exc:
            return None, f"unreadable file: {exc}"
        if not events:
            return None, "no JSON events in JSONL file"
        doc = {"events": events, "kinds": dict(sorted(kinds.items()))}
        entry = LedgerEntry(
            run_id=f"trace:{path.stem}:{_digest(doc, 8)}",
            kind="trace",
            path=str(path),
            created_utc=None,
            seed=None,
            experiment=None,
            env_key=None,
            doc=doc,
        )
        return entry, None

    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        return None, f"unreadable file: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"truncated or invalid JSON: {exc}"
    if not isinstance(doc, dict):
        return None, "not a JSON object"

    schema = doc.get("schema")
    if name == "run_manifest.json" or schema == MANIFEST_SCHEMA:
        if schema != MANIFEST_SCHEMA:
            return None, (
                f"schema-version mismatch: {schema!r} (want {MANIFEST_SCHEMA!r})"
            )
        # inputs_hash alone is not unique across runs (seed and environment
        # sit outside it), so fold in a digest of the whole document: true
        # byte-for-byte copies still dedup, distinct runs never collide.
        entry = LedgerEntry(
            run_id=(
                f"manifest:{str(doc.get('inputs_hash', ''))[:16]}:"
                f"{_digest(doc, 8)}"
            ),
            kind="manifest",
            path=str(path),
            created_utc=None,
            seed=_to_int(doc.get("seed")),
            experiment=None,
            env_key=fingerprint_key(doc.get("environment")),
            doc=doc,
        )
        return entry, None
    if name.startswith("BENCH_") or schema == BENCH_SCHEMA:
        try:
            validate_artifact(doc)
        except ValueError as exc:
            return None, f"schema-version mismatch: {exc}"
        entry = LedgerEntry(
            run_id=(
                f"bench:{doc.get('created_utc')}:{doc.get('git_sha')}:"
                f"{str(doc.get('inputs_hash', ''))[:8]}:{_digest(doc, 8)}"
            ),
            kind="bench",
            path=str(path),
            created_utc=str(doc.get("created_utc")),
            seed=None,
            experiment=None,
            env_key=fingerprint_key(doc.get("environment")),
            doc=doc,
        )
        return entry, None
    if name.startswith("FIDELITY_") or schema == FIDELITY_SCHEMA:
        try:
            validate_fidelity_artifact(doc)
        except ValueError as exc:
            return None, f"schema-version mismatch: {exc}"
        seed = None
        inputs = doc.get("inputs")
        if isinstance(inputs, Mapping):
            seed = _to_int(inputs.get("seed"))
        entry = LedgerEntry(
            run_id=(
                f"fidelity:{doc.get('created_utc')}:{doc.get('git_sha')}:"
                f"{_digest(doc, 8)}"
            ),
            kind="fidelity",
            path=str(path),
            created_utc=str(doc.get("created_utc")),
            seed=seed,
            experiment=None,
            env_key=fingerprint_key(doc.get("environment")),
            doc=doc,
        )
        return entry, None
    if isinstance(schema, str):
        return None, f"schema-version mismatch: unknown schema {schema!r}"
    if isinstance(doc.get("experiment"), str) and isinstance(
        doc.get("summary"), Mapping
    ):
        entry = LedgerEntry(
            run_id=f"result:{doc['experiment']}:{_digest(doc.get('summary'))}",
            kind="result",
            path=str(path),
            created_utc=None,
            seed=None,
            experiment=doc["experiment"],
            env_key=None,
            doc=doc,
        )
        return entry, None
    return None, "unrecognised JSON document (no schema, not a result summary)"


def _inherit_run_context(
    entries: list[LedgerEntry],
) -> list[LedgerEntry]:
    """Give context-free result/trace entries their directory's manifest.

    ``<id>.json`` result exports carry no seed or fingerprint of their own;
    the run manifest written next to them does.  Inheriting it makes the
    (experiment, seed, environment) ledger key total for directories
    produced by ``repro-experiments --output``.
    """
    manifest_by_dir: dict[str, LedgerEntry] = {}
    for entry in entries:
        if entry.kind == "manifest":
            manifest_by_dir.setdefault(str(Path(entry.path).parent), entry)
    if not manifest_by_dir:
        return entries
    out: list[LedgerEntry] = []
    for entry in entries:
        manifest = manifest_by_dir.get(str(Path(entry.path).parent))
        if (
            manifest is not None
            and entry.kind in ("result", "trace")
            and entry.env_key is None
        ):
            entry = LedgerEntry(
                run_id=entry.run_id,
                kind=entry.kind,
                path=entry.path,
                created_utc=entry.created_utc,
                seed=entry.seed if entry.seed is not None else manifest.seed,
                experiment=entry.experiment,
                env_key=manifest.env_key,
                doc=entry.doc,
            )
        out.append(entry)
    return out


def build_ledger(
    directories: Sequence[str | Path],
    *,
    trace=None,
) -> RunLedger:
    """Index every artifact under ``directories`` (recursive, fail-soft).

    Directory order matters: when several directories hold a result for
    the same experiment, the first-listed directory is authoritative
    (:meth:`RunLedger.latest_results`).  Missing directories are recorded
    in :attr:`RunLedger.skipped` rather than raised — the caller decides
    whether an empty ledger is an error.
    """
    trace = trace if trace is not None else get_trace()
    entries: list[LedgerEntry] = []
    skipped: list[SkippedFile] = []
    seen_paths: set[Path] = set()
    seen_ids: set[str] = set()
    for directory in directories:
        directory = Path(directory)
        if not directory.is_dir():
            skipped.append(SkippedFile(str(directory), "not a directory"))
            trace.warning(
                "ledger_skip", path=str(directory), reason="not a directory"
            )
            continue
        paths = sorted(
            p for pattern in ("*.json", "*.jsonl") for p in directory.rglob(pattern)
        )
        for path in paths:
            resolved = path.resolve()
            if resolved in seen_paths:
                continue
            seen_paths.add(resolved)
            entry, reason = _classify(path)
            if entry is None:
                assert reason is not None
                skipped.append(SkippedFile(str(path), reason))
                # Foreign-but-expected files (our own FLEET artifacts) skip
                # quietly; anything else warrants a trace warning.
                if not reason.startswith("fleet artifact"):
                    trace.warning("ledger_skip", path=str(path), reason=reason)
                continue
            if entry.run_id in seen_ids:
                reason = f"duplicate run id {entry.run_id}"
                skipped.append(SkippedFile(str(path), reason))
                trace.warning("ledger_skip", path=str(path), reason=reason)
                continue
            seen_ids.add(entry.run_id)
            entries.append(entry)
    entries = _inherit_run_context(entries)
    return RunLedger(
        entries=tuple(entries),
        skipped=tuple(skipped),
        directories=tuple(str(d) for d in directories),
    )


def ledger_with_live_results(
    ledger: RunLedger,
    summaries: Mapping[str, Mapping[str, Any]],
    *,
    seed: int | None = None,
    env: Mapping[str, Any] | None = None,
) -> RunLedger:
    """Prepend a live run's in-memory summaries to an on-disk ledger.

    Used by ``repro-experiments --report-out``: the run that just finished
    is authoritative over anything on disk, so its entries come first (the
    first entry per experiment wins aggregation).  A disk copy of the same
    summary — e.g. the export this very run just wrote — carries the same
    content-derived run id and is dropped as a duplicate, quietly.
    """
    live: list[LedgerEntry] = []
    for name in sorted(summaries):
        summary = summaries[name]
        live.append(
            LedgerEntry(
                run_id=f"result:{name}:{_digest(dict(summary))}",
                kind="result",
                path="<live-run>",
                created_utc=None,
                seed=seed,
                experiment=name,
                env_key=fingerprint_key(env),
                doc={"experiment": name, "summary": dict(summary)},
            )
        )
    live_ids = {e.run_id for e in live}
    kept = tuple(e for e in ledger.entries if e.run_id not in live_ids)
    return RunLedger(
        entries=tuple(live) + kept,
        skipped=ledger.skipped,
        directories=("<live-run>",) + ledger.directories,
    )
