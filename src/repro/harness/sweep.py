"""Parallel sweep engine: declarative experiment grids over a pool.

The paper's evidence is a grid of (implementation, N, P, c, v) points
(Table 2, Figures 6-7).  This module turns "run that grid" into data:

* a :class:`SweepSpec` names a registered *task* and spans a cartesian
  grid of parameter axes (plus fixed parameters, per-point derivation
  for things like weak-scaling N(P), and filters);
* :func:`run_sweep` fans the points out over a ``multiprocessing``
  worker pool, consults a content-addressed :class:`SweepCache` so
  completed points are never recomputed, captures per-point failures
  instead of aborting the sweep, and returns results in enumeration
  order regardless of completion order.

Tasks are plain functions registered by name with :func:`task`; a task
receives the resolved point parameters as keyword arguments and returns
a JSON-serialisable payload (dict, or list of dicts).  Registration by
name is what lets a worker process find the task again: the pool ships
``(task_name, params)`` pairs, never closures.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import threading
import time
import traceback
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any

from repro.harness.cache import SweepCache, canonical_json, point_key

# --------------------------------------------------------------------------
# task registry
# --------------------------------------------------------------------------

_TASKS: dict[str, Callable[..., Any]] = {}
_TASK_SCHEMA: dict[str, int] = {}


class SweepError(RuntimeError):
    """Raised by :meth:`SweepResult.rows` when a sweep had failures."""


def task(
    name: str, schema_version: int = 1
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a task function under ``name``.

    ``schema_version`` participates in the cache key: bump it when the
    task's code changes in a way that invalidates previously cached
    results (new output fields, changed semantics).
    """

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        _TASKS[name] = fn
        _TASK_SCHEMA[name] = schema_version
        return fn

    return register


def unregister_task(name: str) -> None:
    """Remove a registered task (test helper)."""
    _TASKS.pop(name, None)
    _TASK_SCHEMA.pop(name, None)


def get_task(name: str) -> Callable[..., Any]:
    _ensure_builtin_tasks()
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep task {name!r}; registered: "
            f"{sorted(_TASKS)}"
        ) from None


def task_schema_version(name: str) -> int:
    return _TASK_SCHEMA.get(name, 0)


def _ensure_builtin_tasks() -> None:
    # The built-in tasks live in repro.harness.specs; importing it is
    # what registers them.  Done lazily (and in every worker process)
    # to avoid an import cycle at module load.
    from repro.harness import specs  # noqa: F401


# --------------------------------------------------------------------------
# points and specs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One resolved grid point: a task name plus JSON-clean kwargs."""

    task: str
    params: Mapping[str, Any]

    def cache_key(self) -> str:
        return point_key(
            self.task, dict(self.params), task_schema_version(self.task)
        )

    def label(self) -> str:
        """Compact human-readable identity for logs and CLI output.

        Every parameter appears exactly once: the conventional identity
        axes (impl, n, p) lead, everything else follows sorted.  Nothing
        is skipped — two points differing only by ``seed`` (or any
        other axis) must render distinct labels in logs and failure
        reports.
        """
        lead = ("impl", "n", "p")
        parts = [f"{k}={self.params[k]}" for k in lead if k in self.params]
        parts += [
            f"{k}={self.params[k]}"
            for k in sorted(self.params)
            if k not in lead
        ]
        return f"{self.task}({', '.join(parts)})"


def _json_clean(params: dict) -> dict:
    """Round-trip params through JSON so cached and freshly computed
    points carry identical types (tuples become lists, numpy scalars
    are rejected early instead of failing inside the cache)."""
    try:
        return json.loads(canonical_json(params))
    except TypeError as exc:
        raise TypeError(
            f"sweep point parameters must be JSON-serialisable: "
            f"{params!r}"
        ) from exc


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    ``axes`` maps parameter names to value sequences; points are their
    cartesian product (in axis insertion order, values in given order)
    merged over ``fixed``.  ``derive``, if given, maps the merged dict
    to the final parameter dict — use it for derived parameters such as
    the weak-scaling N(P) or to drop helper axes.  ``filters`` then
    prune points (all predicates must hold).
    """

    name: str
    task: str
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    derive: Callable[[dict], dict] | None = None
    filters: tuple[Callable[[dict], bool], ...] = ()
    description: str = ""

    def points(self) -> list[SweepPoint]:
        """Enumerate the grid deterministically."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(
            *(self.axes[name] for name in names)
        ):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            if self.derive is not None:
                params = self.derive(params)
            if any(not pred(params) for pred in self.filters):
                continue
            out.append(
                SweepPoint(task=self.task, params=_json_clean(params))
            )
        return out


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class PointResult:
    """Outcome of one point: payload or captured failure, provenance.

    ``attempts`` counts executions of the point this run (> 1 when a
    transient failure was retried; see ``run_sweep(retries=...)``).
    """

    point: SweepPoint
    status: str
    result: Any = None
    error: str | None = None
    from_cache: bool = False
    elapsed_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class SweepResult:
    """All point results of one sweep run, in enumeration order."""

    spec_name: str
    results: tuple[PointResult, ...]
    elapsed_s: float

    @property
    def n_points(self) -> int:
        return len(self.results)

    @property
    def n_ok(self) -> int:
        return sum(r.ok for r in self.results)

    @property
    def n_cached(self) -> int:
        return sum(r.from_cache for r in self.results)

    @property
    def n_computed(self) -> int:
        return sum(r.ok and not r.from_cache for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(r.status == STATUS_ERROR for r in self.results)

    def failures(self) -> list[PointResult]:
        return [r for r in self.results if r.status == STATUS_ERROR]

    def rows(self, strict: bool = True) -> list[dict]:
        """Flatten ok payloads into a row list (tasks may return one
        row or a list of rows per point).  With ``strict`` (default), a
        sweep that had failures raises :class:`SweepError` — matching
        the pre-engine behaviour where the first bad point raised."""
        if strict and self.n_failed:
            first = self.failures()[0]
            raise SweepError(
                f"sweep {self.spec_name!r}: {self.n_failed} of "
                f"{self.n_points} points failed; first: "
                f"{first.point.label()}: {first.error}"
            )
        rows: list[dict] = []
        for r in self.results:
            if not r.ok:
                continue
            if isinstance(r.result, list):
                rows.extend(r.result)
            else:
                rows.append(r.result)
        return rows

    def summary(self) -> str:
        return (
            f"{self.spec_name}: {self.n_points} points — "
            f"{self.n_computed} computed, {self.n_cached} cached, "
            f"{self.n_failed} failed "
            f"in {self.elapsed_s:.2f}s"
        )


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _execute_point(point: SweepPoint) -> PointResult:
    """Run one point, capturing failure (runs in workers)."""
    fn = get_task(point.task)
    start = time.perf_counter()
    try:
        payload = fn(**dict(point.params))
    except Exception as exc:
        return PointResult(
            point=point,
            status=STATUS_ERROR,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
            elapsed_s=time.perf_counter() - start,
        )
    return PointResult(
        point=point,
        status=STATUS_OK,
        result=payload,
        elapsed_s=time.perf_counter() - start,
    )


def _execute_point_with_retry(point: SweepPoint, retries: int) -> PointResult:
    """Run one point, re-executing up to ``retries`` extra times when
    the failure is transient (lost-message deadlocks, rank failures —
    the classification shared with the service's retry policy).  Runs
    in workers, so it must stay module-level picklable."""
    from repro.service.resilience import is_transient_error_string

    attempt = 0
    while True:
        res = _execute_point(point)
        if (
            res.status == STATUS_ERROR
            and attempt < retries
            and is_transient_error_string(res.error)
        ):
            attempt += 1
            continue
        if attempt:
            import dataclasses

            res = dataclasses.replace(res, attempts=attempt + 1)
        return res


def _execute_point_bounded(
    point: SweepPoint, timeout_s: float | None, retries: int
) -> PointResult:
    """Inline-path execution with an optional wall-clock bound.

    The point runs on a daemon thread; on timeout the result is a
    synthetic ``TimeoutError`` failure and the thread is abandoned (it
    cannot be preempted mid-factorization, but the smpi watchdog bounds
    how long it lingers)."""
    if timeout_s is None:
        return _execute_point_with_retry(point, retries)
    box: dict[str, PointResult] = {}

    def runner() -> None:
        box["res"] = _execute_point_with_retry(point, retries)

    thread = threading.Thread(
        target=runner, daemon=True, name=f"sweep-{point.task}"
    )
    thread.start()
    thread.join(timeout_s)
    res = box.get("res")
    if res is None:
        return PointResult(
            point=point,
            status=STATUS_ERROR,
            error=(
                f"TimeoutError: point exceeded {timeout_s:g}s wall "
                f"clock (abandoned)"
            ),
            elapsed_s=timeout_s,
        )
    return res


def _live_helper_threads() -> list[threading.Thread]:
    """Non-main threads currently alive in this process."""
    main = threading.main_thread()
    return [
        t for t in threading.enumerate() if t is not main and t.is_alive()
    ]


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork (where available) inherits the task registry, so tasks
    # registered by the calling module — not just the built-ins — work
    # in workers.  But forking a process that already has live helper
    # threads (the thread-based smpi runtime, an asyncio executor) can
    # deadlock the child on locks held mid-operation, and Python 3.12+
    # deprecates exactly that; in that case prefer forkserver, then
    # spawn, and rely on :func:`_worker_init` to restore non-builtin
    # task registrations in the workers.
    methods = multiprocessing.get_all_start_methods()
    preferred = None
    if "fork" in methods and not _live_helper_threads():
        preferred = "fork"
    else:
        for candidate in ("forkserver", "spawn"):
            if candidate in methods:
                preferred = candidate
                break
    return multiprocessing.get_context(preferred or methods[0])


def _task_snapshot() -> list[tuple[str, str, str, int]]:
    """Import paths of every registered task that a fresh interpreter
    can resolve (top-level functions only; closures registered by tests
    or notebooks cannot be shipped to a spawned worker)."""
    out = []
    for name, fn in _TASKS.items():
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            continue
        out.append((name, module, qualname, _TASK_SCHEMA.get(name, 1)))
    return out


def _worker_init(snapshot: list[tuple[str, str, str, int]]) -> None:
    """Pool initializer: under spawn/forkserver the parent's registry
    is not inherited, so re-register every importable caller-provided
    task by import path (the built-ins register on first lookup)."""
    import importlib

    _ensure_builtin_tasks()
    for name, module, qualname, schema in snapshot:
        if name in _TASKS:
            continue
        try:
            obj: Any = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except Exception:
            continue
        if callable(obj):
            _TASKS[name] = obj
            _TASK_SCHEMA[name] = schema


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    cache: SweepCache | None = None,
    max_points: int | None = None,
    force: bool = False,
    progress: Callable[[PointResult], None] | None = None,
    point_timeout_s: float | None = None,
    retries: int = 0,
) -> SweepResult:
    """Execute a spec's grid, returning per-point results in order.

    ``workers <= 1`` runs points inline in this process (deterministic
    and debuggable — the default); larger values fan the uncached
    points out over a process pool.  With a ``cache``, previously
    completed points are returned as hits and only successful results
    are stored, so re-running a sweep whose last run partially failed
    *resumes* it: hits for the completed points, fresh execution for
    the failed/missing ones.  ``force`` bypasses cache reads
    (results are still written).  ``max_points`` truncates the grid
    after enumeration — the CI smoke path.

    ``point_timeout_s`` bounds each point's wall clock so one hung
    point cannot stall the grid: expired points are recorded as
    ``TimeoutError`` failures and their execution abandoned (inline: a
    daemon thread; pool: points are handed to the pool only when a
    worker is free, so a point's window covers execution, never time
    spent queued behind a hung peer — each abandoned point writes off
    one worker, and if every worker is wedged the remaining points
    fail as not-started).  ``retries`` re-executes a
    point up to that many extra times when it fails *transiently*
    (deadlocks, rank failures); deterministic failures are never
    retried, and timed-out points are not either — the cache-resume
    path above is the retry story across sweep invocations.
    """
    if point_timeout_s is not None and point_timeout_s <= 0:
        raise ValueError(
            f"point_timeout_s must be > 0, got {point_timeout_s}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    start = time.perf_counter()
    points = spec.points()
    if max_points is not None:
        points = points[:max_points]
    _ensure_builtin_tasks()

    slots: list[PointResult | None] = [None] * len(points)

    def finish(idx: int, res: PointResult) -> None:
        # Cache-on-completion (not at sweep end) so an interrupted
        # sweep still resumes from every point that finished.  A
        # failing cache write (unserialisable payload, disk full) or a
        # raising progress callback is recorded as *that point's*
        # error — it must never unwind run_sweep and discard every
        # completed-but-uncached result.
        if cache is not None and res.ok and not res.from_cache:
            try:
                cache.put(
                    res.point.cache_key(),
                    res.point.task,
                    dict(res.point.params),
                    res.result,
                    res.elapsed_s,
                )
            except Exception as exc:
                res = PointResult(
                    point=res.point,
                    status=STATUS_ERROR,
                    result=res.result,
                    error=f"cache.put failed: {exc}",
                    elapsed_s=res.elapsed_s,
                )
        slots[idx] = res
        if progress is not None:
            try:
                progress(res)
            except Exception as exc:
                slots[idx] = PointResult(
                    point=res.point,
                    status=STATUS_ERROR,
                    result=res.result,
                    error=f"progress callback failed: {exc}",
                    from_cache=res.from_cache,
                    elapsed_s=res.elapsed_s,
                )

    pending: list[tuple[int, SweepPoint]] = []
    for idx, point in enumerate(points):
        entry = None
        if cache is not None and not force:
            entry = cache.get(point.cache_key())
        if entry is not None:
            finish(
                idx,
                PointResult(
                    point=point,
                    status=STATUS_OK,
                    result=entry["result"],
                    from_cache=True,
                    elapsed_s=entry.get("elapsed_s", 0.0),
                ),
            )
        else:
            pending.append((idx, point))

    if workers > 1 and len(pending) > 1:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(_task_snapshot(),),
        )
        abandoned = False
        try:
            # Hand a point to the pool only when a worker is free: its
            # deadline is stamped at submission, so keeping at most one
            # in-flight point per live worker means the window measures
            # execution, not time spent queued behind a hung peer.
            queue = list(pending)
            capacity = min(workers, len(pending))
            futures: dict[Any, tuple[int, SweepPoint]] = {}
            deadlines: dict[Any, float | None] = {}
            not_done: set[Any] = set()

            def _fill_free_slots() -> None:
                while queue and len(not_done) < capacity:
                    idx, point = queue.pop(0)
                    fut = pool.submit(
                        _execute_point_with_retry, point, retries
                    )
                    futures[fut] = (idx, point)
                    deadlines[fut] = (
                        time.monotonic() + point_timeout_s
                        if point_timeout_s else None
                    )
                    not_done.add(fut)

            _fill_free_slots()
            while not_done:
                wait_s = None
                if point_timeout_s is not None:
                    wait_s = max(
                        0.0,
                        min(deadlines[f] for f in not_done)
                        - time.monotonic(),
                    )
                done, not_done = wait(
                    not_done, timeout=wait_s,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    idx, _ = futures[fut]
                    finish(idx, fut.result())
                if point_timeout_s is not None:
                    now = time.monotonic()
                    for fut in [
                        f for f in not_done if deadlines[f] <= now
                    ]:
                        not_done.discard(fut)
                        idx, point = futures[fut]
                        # The worker is wedged on this point: write it
                        # off as lost capacity for the rest of the
                        # sweep.  (If it finishes late the pool reuses
                        # it; we just never over-subscribe.)
                        abandoned = True
                        capacity -= 1
                        finish(
                            idx,
                            PointResult(
                                point=point,
                                status=STATUS_ERROR,
                                error=(
                                    f"TimeoutError: point exceeded "
                                    f"{point_timeout_s:g}s wall clock "
                                    f"(worker abandoned)"
                                ),
                                elapsed_s=point_timeout_s,
                            ),
                        )
                _fill_free_slots()
            for idx, point in queue:
                # Only reachable when capacity hit zero: every pool
                # worker is wedged on a timed-out point.
                finish(
                    idx,
                    PointResult(
                        point=point,
                        status=STATUS_ERROR,
                        error=(
                            "TimeoutError: point never started — all "
                            "pool workers are hung on timed-out points"
                        ),
                    ),
                )
        finally:
            # A hung worker cannot be joined without stalling the
            # sweep; leave it to die with the pool's processes.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
    else:
        for idx, point in pending:
            finish(
                idx,
                _execute_point_bounded(point, point_timeout_s, retries),
            )

    return SweepResult(
        spec_name=spec.name,
        results=tuple(slots),  # type: ignore[arg-type]
        elapsed_s=time.perf_counter() - start,
    )
