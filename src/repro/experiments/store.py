"""ResultStore: durable, content-addressed persistence for sweep results.

A :class:`ResultStore` is rooted at a directory and owns two areas:

* ``runs/<spec>/<key>.json`` — one file per saved
  :class:`~repro.experiments.metrics.SweepResult`, keyed by a content hash
  of its canonical JSON.  Each file carries a metadata header: spec name,
  frozen :class:`~repro.experiments.scenario.ExperimentConfig` hash, the
  topology/propagation/protocol registry entries used, trial count, schema
  version, ISO timestamp and free-form tags.  Saving an identical result
  twice is idempotent (tags merge; the original timestamp wins).
* ``tasks/<spec>-<plan_key>/task-*.json`` — the sweep scheduler's per-task
  resume cache (:class:`TaskCache`), byte-compatible with the historical
  ``--out`` layout so existing caches keep resuming.

Runs resolve by reference: a bare spec name (latest run), ``spec@tag``,
``spec@latest``, ``spec@<key>`` or a bare content key.  ``gc`` keeps the
most recent N runs per spec and never deletes tagged runs unless asked.

The schema is versioned (:data:`SCHEMA_VERSION`); loading a record written
by an incompatible future schema raises :class:`StoreSchemaError` instead
of silently misreading it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.metrics import RunResult, SweepResult

SCHEMA_VERSION = 1


class StoreSchemaError(ValueError):
    """A stored record's schema version is not readable by this code."""


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")[:60] or "run"


def _canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, default=str, allow_nan=False)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers never observe a torn file.

    The temp file gets a *unique* name (``mkstemp``) in the target directory
    — a deterministic ``.tmp`` sibling would race when concurrent cluster
    workers flush the same task key, with one writer renaming the other's
    half-written file into place.  ``os.replace`` is atomic on POSIX and
    Windows, so a crash mid-write leaves the old content (or no file), never
    a truncated one; the stray ``.tmp`` is unlinked on any failure.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def content_key(sweep: SweepResult) -> str:
    """Content hash of a sweep's canonical JSON: same results ⇒ same key."""
    return hashlib.sha256(_canonical_json(sweep.to_dict()).encode("utf-8")).hexdigest()[:16]


def config_hash(config) -> str:
    """Content hash of a frozen :class:`ExperimentConfig` (nested DAPES included)."""
    return hashlib.sha256(
        _canonical_json(config.as_dict()).encode("utf-8")
    ).hexdigest()[:16]


@dataclass(frozen=True)
class StoredRun:
    """One saved run: its content key, on-disk path and metadata header."""

    key: str
    spec: str
    path: Path
    meta: Dict[str, object]

    @property
    def tags(self) -> List[str]:
        return list(self.meta.get("tags", []))

    @property
    def created(self) -> str:
        return str(self.meta.get("created", ""))

    @property
    def title(self) -> str:
        return str(self.meta.get("title", ""))


# ================================================================ task cache
class TaskCache:
    """Per-task resume cache, byte-compatible with the historical layout.

    One ``task-PPPP-TTT.json`` per finished ``(point, trial)`` task, written
    atomically (tmp + rename) with strict JSON.  Both the ``--out``
    directory and :meth:`ResultStore.task_cache` are thin clients of this
    class.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def ensure(self) -> "TaskCache":
        self.directory.mkdir(parents=True, exist_ok=True)
        return self

    def path(self, point: int, trial: int) -> Path:
        return self.directory / f"task-{point:04d}-{trial:03d}.json"

    def load(self, point: int, trial: int, seed: int) -> Optional[RunResult]:
        path = self.path(point, trial)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("seed") != seed:
                return None
            return RunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError, OSError):
            return None  # corrupt cache entry: re-run the task

    def store(
        self, experiment: str, point: int, trial: int, seed: int, result: RunResult
    ) -> None:
        payload = {
            "experiment": experiment,
            "point": point,
            "trial": trial,
            "seed": seed,
            "result": result.to_dict(),
        }
        _atomic_write_text(
            self.path(point, trial), json.dumps(payload, sort_keys=True, allow_nan=False)
        )


# ================================================================== store
class ResultStore:
    """A durable, queryable store of sweep results (see module docstring)."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ----------------------------------------------------------------- paths
    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def task_cache(self, spec_name: str, plan_key: str) -> TaskCache:
        """The scheduler's resume cache for one flattened plan."""
        return TaskCache(self.root / "tasks" / f"{spec_name}-{plan_key}").ensure()

    # ------------------------------------------------------------------ save
    def save(
        self,
        sweep: SweepResult,
        *,
        spec: Optional[object] = None,
        config: Optional[object] = None,
        tags: Sequence[str] = (),
        extra: Optional[Dict[str, object]] = None,
    ) -> StoredRun:
        """Persist one sweep under its content key and return the record.

        ``spec`` may be a registered :class:`ExperimentSpec` or a name;
        omitted, the sweep's title is slugified.  ``config`` (the run's base
        :class:`ExperimentConfig`) contributes its frozen hash and the
        topology/propagation/neighbor-index registry selections; protocols
        are recovered from the per-trial results.  Saving the same content
        twice merges tags and keeps the original timestamp.
        """
        spec_name = getattr(spec, "name", spec) or _slug(sweep.name)
        key = content_key(sweep)
        path = self.runs_dir / str(spec_name) / f"{key}.json"
        existing = self._read_meta(path) if path.is_file() else None

        protocols = sorted(
            {
                trial.protocol
                for point in sweep.points
                for trial in point.trial_results
            }
        )
        meta: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "spec": str(spec_name),
            "title": sweep.name,
            "created": (
                existing["created"]
                if existing is not None
                else datetime.now(timezone.utc).isoformat(timespec="seconds")
            ),
            "points": len(sweep.points),
            "trials": sum(point.trials for point in sweep.points),
            "tags": sorted(
                set(existing["tags"] if existing is not None else []) | set(tags)
            ),
            "protocols": protocols,
        }
        if config is not None:
            meta["config_hash"] = config_hash(config)
            meta["registries"] = {
                "topology": config.topology,
                "propagation": config.propagation,
                "churn": config.churn,
                "faults": config.faults,
            }
        if extra:
            meta.update(extra)

        payload = {"meta": meta, "sweep": sweep.to_dict()}
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        return StoredRun(key=key, spec=str(spec_name), path=path, meta=meta)

    # ------------------------------------------------------------------ list
    def _read_payload(self, path: Path) -> Dict[str, object]:
        """Parse one run file and validate its schema version (single parse)."""
        payload = json.loads(path.read_text(encoding="utf-8"))
        schema = payload.get("meta", {}).get("schema")
        if schema != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{path} has store schema {schema!r}; this code reads schema "
                f"{SCHEMA_VERSION} — upgrade the repro package or re-run the sweep"
            )
        return payload

    def _read_meta(self, path: Path) -> Dict[str, object]:
        return self._read_payload(path)["meta"]

    def list(
        self, spec: Optional[str] = None, tag: Optional[str] = None
    ) -> List[StoredRun]:
        """Saved runs (newest first), optionally filtered by spec and tag."""
        records: List[StoredRun] = []
        if not self.runs_dir.is_dir():
            return records
        for spec_dir in sorted(self.runs_dir.iterdir()):
            if not spec_dir.is_dir() or (spec is not None and spec_dir.name != spec):
                continue
            for path in sorted(spec_dir.glob("*.json")):
                record = self._record_at(path)
                if tag is None or tag in record.tags:
                    records.append(record)
        records.sort(key=lambda record: (record.created, record.key), reverse=True)
        return records

    def latest(
        self, spec: Optional[str] = None, tag: Optional[str] = None
    ) -> StoredRun:
        """The most recently created matching run, or ``KeyError``."""
        records = self.list(spec=spec, tag=tag)
        if not records:
            raise KeyError(
                f"no stored runs match spec={spec!r} tag={tag!r} under {self.root}"
            )
        return records[0]

    # --------------------------------------------------------------- resolve
    def _record_at(self, path: Path) -> StoredRun:
        meta = self._read_meta(path)
        return StoredRun(
            key=str(meta.get("key", path.stem)),
            spec=path.parent.name,
            path=path,
            meta=meta,
        )

    def resolve(self, ref: Union[str, StoredRun]) -> StoredRun:
        """Resolve a run reference (see module docstring for the syntax)."""
        if isinstance(ref, StoredRun):
            return ref
        spec, _, selector = ref.partition("@")
        if selector:
            if selector == "latest":
                return self.latest(spec=spec)
            # Key references resolve without scanning the whole store: the
            # path is derivable (runs/<spec>/<key>.json).
            direct = self.runs_dir / spec / f"{selector}.json"
            if direct.is_file():
                return self._record_at(direct)
            for record in self.list(spec=spec):
                if selector in record.tags:
                    return record
            raise KeyError(
                f"no stored {spec!r} run has key or tag {selector!r} under {self.root}"
            )
        # Bare token: a spec name (latest run) or a content key.
        if (self.runs_dir / spec).is_dir():
            return self.latest(spec=spec)
        matches = sorted(self.runs_dir.glob(f"*/{spec}.json")) if self.runs_dir.is_dir() else []
        if matches:
            return self._record_at(matches[0])
        raise KeyError(f"no stored run matches {ref!r} under {self.root}")

    def load(self, ref: Union[str, StoredRun]) -> SweepResult:
        """Load a run's :class:`SweepResult` by reference (schema-checked)."""
        record = self.resolve(ref)
        return SweepResult.from_dict(self._read_payload(record.path)["sweep"])

    # -------------------------------------------------------------------- gc
    def gc(
        self,
        keep: int = 3,
        spec: Optional[str] = None,
        keep_tagged: bool = True,
    ) -> List[StoredRun]:
        """Delete all but the newest ``keep`` runs per spec; returns removals.

        Tagged runs are protected unless ``keep_tagged`` is ``False`` —
        tags mark baselines other tooling (CI, docs) refers to by name.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        removed: List[StoredRun] = []
        by_spec: Dict[str, List[StoredRun]] = {}
        for record in self.list(spec=spec):
            by_spec.setdefault(record.spec, []).append(record)
        for records in by_spec.values():
            for record in records[keep:]:
                if keep_tagged and record.tags:
                    continue
                record.path.unlink()
                removed.append(record)
        return removed
