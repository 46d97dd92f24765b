"""Content-addressed result cache for sweep points.

Each completed sweep point is stored as one JSON file whose name is the
SHA-256 of the point's *identity*: the task name, the task's cache
schema version, and the canonical JSON encoding of the resolved point
parameters.  Anything that changes what the task would compute — an
axis value, a derived parameter, a bumped schema version after a task's
code changes — produces a different key; cosmetic differences (axis
ordering, dict insertion order, tuple vs list) do not.

Layout on disk::

    <root>/<key[:2]>/<key>.json      one entry per point

Entries record the task, parameters, result payload, and timing so the
cache doubles as a flat experiment log (``python -m repro sweep
--show-cache`` summarises it).  Only successful results are stored:
failed points are re-attempted on the next run, which is
what makes a re-run of a partially failed sweep a *resume*.

Writes are atomic (tempfile + ``os.replace``) so a sweep interrupted
mid-write never leaves a truncated entry behind, and concurrent workers
racing on the same point at worst overwrite each other with identical
content.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

#: Bump when a change to the engine invalidates every cached result.
#: The installed package version is also part of every key, so a
#: release invalidates all prior entries wholesale; within a version,
#: per-task ``schema_version`` bumps are the invalidation mechanism
#: for task-code changes (see the ``task`` decorator).
CACHE_SCHEMA = 1


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro-conflux")
    except Exception:
        # not installed (PYTHONPATH=src usage): fall back to the
        # engine schema alone
        return "src"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for hashing (sorted keys,
    no whitespace).  Tuples encode as lists, so a point built from
    ``grid=(2, 2)`` and one built from ``grid=[2, 2]`` share a key."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def point_key(task: str, params: dict, schema_version: int = 0) -> str:
    """The content address of one (task, params) point."""
    identity = {
        "cache_schema": CACHE_SCHEMA,
        "version": _package_version(),
        "task": task,
        "task_schema": schema_version,
        "params": params,
    }
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


class SweepCache:
    """A directory of content-addressed sweep results."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SweepCache({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry for ``key``, or None on a miss (a corrupt
        entry — e.g. a file truncated by an older non-atomic writer —
        also reads as a miss and will be recomputed)."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            return None

    def put(
        self,
        key: str,
        task: str,
        params: dict,
        result: Any,
        elapsed_s: float,
    ) -> Path:
        """Store a successful result atomically; returns the entry path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "task": task,
            "params": params,
            "result": result,
            "elapsed_s": elapsed_s,
            "created": time.time(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> list[dict]:
        """All readable entries, ordered by creation time."""
        out = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*/*.json")):
            try:
                with open(path, encoding="utf-8") as fh:
                    out.append(json.load(fh))
            except (json.JSONDecodeError, OSError):
                continue
        out.sort(key=lambda e: e.get("created", 0.0))
        return out

    def stats(self) -> dict:
        """Summary counts used by ``sweep --show-cache``."""
        entries = self.entries()
        by_task: dict[str, int] = {}
        for entry in entries:
            by_task[entry.get("task", "?")] = (
                by_task.get(entry.get("task", "?"), 0) + 1
            )
        return {
            "root": str(self.root),
            "entries": len(entries),
            "by_task": by_task,
            "compute_seconds_saved": sum(
                e.get("elapsed_s", 0.0) for e in entries
            ),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


def default_cache_dir() -> Path:
    """Cache location used by the CLI and the benchmark suite:
    ``$REPRO_SWEEP_CACHE`` if set, else ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"
