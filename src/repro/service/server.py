"""The asyncio factorization service: admission, dispatch, caching.

One :class:`FactorService` fronts the :mod:`repro.algorithms` registry
with a bounded job queue.  A submitted request flows::

    submit ── cache hit? ──────────────────────────────▶ respond (O(1))
       │
       ├─ identical request in flight? ── join its future (coalesce)
       │
       ├─ policy.depth() >= queue_depth? ── reject + retry_after_s
       │
       └─ admit ▶ dispatch policy ▶ worker loop ▶ executor ▶ respond
                                        │
                                        └─ cache.put (guarded: a cache
                                           write failure never kills a
                                           response)

Workers are asyncio tasks that pull work units from the dispatch
policy and run them on a concurrent executor (threads by default, a
fork-safe process pool on request) — the event loop stays free for
admission and the TCP front-end while factorizations run.

The result cache is the harness's content-addressed
:class:`~repro.harness.cache.SweepCache` under the ``measured`` task's
keys: a problem factored by ``python -m repro sweep`` is already warm
for the service, and everything the service computes resumes future
sweeps.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable

from repro.harness.cache import SweepCache
from repro.service.config import ServiceConfig
from repro.service.dispatch import SHUTDOWN, make_policy
from repro.service.jobs import (
    SERVICE_TASK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FactorRequest,
    Job,
    ServiceResponse,
)
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import CircuitBreaker, is_transient
from repro.service.worker import run_factor_job

#: Fallback estimate of one job's service time before any completes.
_INITIAL_SERVICE_ESTIMATE_S = 0.05
#: EMA smoothing for the per-job service-time estimate.
_EMA_ALPHA = 0.2
#: Bound on the per-shape EMA table: a long-running service seeing a
#: stream of distinct shapes evicts the least-recently-updated entry
#: (which then falls back to the global EMA) instead of growing
#: without limit.
_EMA_SHAPE_CAP = 512


class FactorService:
    """Asyncio job queue in front of ``factor()``.

    ``job_runner`` defaults to the real executor function; tests inject
    stubs to control service times without monkeypatching.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        cache: SweepCache | None = None,
        job_runner: Callable[[dict], dict] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cache = cache
        self.metrics = ServiceMetrics()
        self._job_runner = job_runner or run_factor_job
        #: jobs that reached a worker — the cache-hit contract ("a
        #: repeat matrix never reaches a worker") is asserted against
        #: this.
        self.worker_executions = 0
        self.cache_write_failures = 0
        self.worker_retries = 0
        self.breaker_rejections = 0
        self._ema_service_s = _INITIAL_SERVICE_ESTIMATE_S
        #: shape_key -> per-job service-time EMA; the global EMA above
        #: is only the cold-start fallback, so ``retry_after_s`` hints
        #: stay honest under mixed problem sizes.  LRU-bounded at
        #: ``_EMA_SHAPE_CAP`` entries (dict insertion order tracks
        #: recency: updates reinsert their key).
        self._ema_by_shape: dict[tuple, float] = {}
        self._retry_policy = self.config.retry_policy()
        self._breaker = (
            CircuitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown_s,
            )
            if self.config.breaker_threshold
            else None
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._workers: list[asyncio.Task] = []
        self._policy = None
        self._executor = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        self._policy = make_policy(
            self.config.policy, self.config.workers, self.config
        )
        if self.config.executor == "process":
            # _pool_context falls back to spawn/forkserver when helper
            # threads are alive — which they are, under asyncio.
            from repro.harness.sweep import _pool_context

            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=_pool_context(),
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service",
            )
        self._workers = [
            loop.create_task(self._worker_loop(i))
            for i in range(self.config.workers)
        ]
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        await self._policy.shutdown()
        await asyncio.gather(*self._workers)
        self._executor.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> FactorService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------

    async def submit(self, request: FactorRequest) -> ServiceResponse:
        """Serve one request; never raises — failures come back as
        ``error`` / ``rejected`` / ``timeout`` responses."""
        if not self._started:
            raise RuntimeError("service not started (use 'async with')")
        t0 = time.perf_counter()
        key = request.cache_key()
        self.metrics.sample_queue_depth(self._policy.depth())

        # 1. content-addressed cache: repeat matrices are O(1) hits
        #    that never touch the queue or a worker.
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None:
                response = ServiceResponse(
                    request=request,
                    status=STATUS_OK,
                    result=entry["result"],
                    cache_hit=True,
                    latency_s=time.perf_counter() - t0,
                )
                self.metrics.record(response)
                return response

        # 2. coalesce onto an identical in-flight request.
        pending = self._inflight.get(key)
        if pending is not None:
            return await self._await_outcome(
                request, pending, t0, coalesced=True
            )

        # 3. circuit breaker: a shape that keeps failing sheds load to
        #    explicit rejections instead of burning workers on it.
        if self._breaker is not None:
            allowed, cooldown = self._breaker.allow(request.shape_key())
            if not allowed:
                self.breaker_rejections += 1
                response = ServiceResponse(
                    request=request,
                    status=STATUS_REJECTED,
                    error=(
                        f"circuit open for shape "
                        f"{request.shape_key()!r} "
                        f"({self.config.breaker_threshold} consecutive "
                        f"failures)"
                    ),
                    latency_s=time.perf_counter() - t0,
                    retry_after_s=max(0.01, cooldown),
                )
                self.metrics.record(response)
                return response

        # 4. admission control: bounded queue, explicit rejection.
        depth = self._policy.depth()
        if depth >= self.config.queue_depth:
            response = ServiceResponse(
                request=request,
                status=STATUS_REJECTED,
                error=(
                    f"queue full ({depth} jobs >= depth "
                    f"{self.config.queue_depth})"
                ),
                latency_s=time.perf_counter() - t0,
                retry_after_s=self.retry_after_s(
                    depth, shape=request.shape_key()
                ),
            )
            self.metrics.record(response)
            return response

        # 5. admit and dispatch.
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        job = Job(
            request=request, key=key, future=future, submitted_at=t0
        )
        await self._policy.put(job)
        return await self._await_outcome(
            request, future, t0, coalesced=False
        )

    async def _await_outcome(
        self,
        request: FactorRequest,
        future: asyncio.Future,
        t0: float,
        coalesced: bool,
    ) -> ServiceResponse:
        # Outcomes travel as (status, payload) tuples — set_result
        # only — so abandoned waiters never leave an "exception was
        # never retrieved" warning behind.
        wait_s = self.config.request_timeout_s
        if request.deadline_s is not None:
            wait_s = min(wait_s, request.deadline_s)
        try:
            status, payload = await asyncio.wait_for(
                asyncio.shield(future), wait_s
            )
        except asyncio.TimeoutError:
            response = ServiceResponse(
                request=request,
                status=STATUS_TIMEOUT,
                error=(
                    f"no result within {wait_s}s "
                    f"(the job keeps running and will populate the cache)"
                ),
                coalesced=coalesced,
                latency_s=time.perf_counter() - t0,
            )
            self.metrics.record(response)
            return response
        latency = time.perf_counter() - t0
        if status == STATUS_OK:
            response = ServiceResponse(
                request=request,
                status=STATUS_OK,
                result=payload,
                coalesced=coalesced,
                latency_s=latency,
            )
        else:
            response = ServiceResponse(
                request=request,
                status=STATUS_ERROR,
                error=payload,
                coalesced=coalesced,
                latency_s=latency,
            )
        self.metrics.record(response)
        return response

    def retry_after_s(
        self, depth: int | None = None, shape: tuple | None = None
    ) -> float:
        """Backoff hint: expected time to drain the current queue.

        Keyed per ``shape_key`` when one is given — a rejected 24x24
        request is not told to wait as long as a 512x512 backlog would
        suggest; the global EMA is only the cold-start fallback.
        """
        if depth is None:
            depth = self._policy.depth() if self._policy else 0
        estimate = self._ema_service_s
        if shape is not None:
            estimate = self._ema_by_shape.get(shape, estimate)
        per_worker = max(1, self.config.workers)
        return max(0.01, (depth + 1) * estimate / per_worker)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    async def _worker_loop(self, worker_id: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            unit = await self._policy.get(worker_id)
            if unit is SHUTDOWN:
                return
            # Both policies hand out singleton units.
            for job in unit:
                await self._run_job(loop, worker_id, job)

    async def _run_job(self, loop, worker_id: int, job: Job) -> None:
        self.worker_executions += 1
        self._policy.task_started(worker_id, 1)
        params = job.request.params()
        shape = job.request.shape_key()
        start = time.perf_counter()
        attempt = 0
        try:
            while True:
                try:
                    row = await loop.run_in_executor(
                        self._executor, self._job_runner, params
                    )
                except Exception as exc:
                    if (
                        attempt < self._retry_policy.max_retries
                        and is_transient(exc)
                    ):
                        attempt += 1
                        self.worker_retries += 1
                        await asyncio.sleep(
                            self._retry_policy.delay_s(
                                attempt, key=repr(shape)
                            )
                        )
                        continue
                    message = f"{type(exc).__name__}: {exc}"
                    if attempt:
                        message += (
                            f" (after {attempt} retr"
                            f"{'y' if attempt == 1 else 'ies'})"
                        )
                    if self._breaker is not None:
                        self._breaker.record_failure(shape)
                    self._resolve(job, STATUS_ERROR, message)
                    return
                elapsed = time.perf_counter() - start
                self._ema_service_s = (
                    (1 - _EMA_ALPHA) * self._ema_service_s
                    + _EMA_ALPHA * elapsed
                )
                prior = self._ema_by_shape.pop(shape, elapsed)
                self._ema_by_shape[shape] = (
                    (1 - _EMA_ALPHA) * prior + _EMA_ALPHA * elapsed
                )
                while len(self._ema_by_shape) > _EMA_SHAPE_CAP:
                    self._ema_by_shape.pop(next(iter(self._ema_by_shape)))
                if self._breaker is not None:
                    self._breaker.record_success(shape)
                self._cache_put(job, row, elapsed)
                self._resolve(job, STATUS_OK, row)
                return
        finally:
            self._policy.task_done(worker_id, 1)

    def _cache_put(self, job: Job, row: dict, elapsed_s: float) -> None:
        # Guarded exactly like the sweep engine's finish(): a cache
        # write failure (unserialisable payload, disk full) costs the
        # entry, never the response.
        if self.cache is None:
            return
        try:
            self.cache.put(
                job.key, SERVICE_TASK, job.request.params(), row, elapsed_s
            )
        except Exception:
            self.cache_write_failures += 1

    def _resolve(self, job: Job, status: str, payload) -> None:
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.set_result((status, payload))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, wall_s: float | None = None) -> dict:
        doc = self.metrics.snapshot(wall_s)
        doc["worker_executions"] = self.worker_executions
        doc["cache_write_failures"] = self.cache_write_failures
        doc["worker_retries"] = self.worker_retries
        doc["breaker_rejections"] = self.breaker_rejections
        doc["breaker_open_shapes"] = (
            [repr(k) for k in self._breaker.open_keys()]
            if self._breaker is not None else []
        )
        doc["queue_depth"] = self._policy.depth() if self._policy else 0
        return doc


# ----------------------------------------------------------------------
# TCP front-end: newline-delimited JSON over asyncio streams
# ----------------------------------------------------------------------


async def handle_connection(
    service: FactorService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: a JSON request object per line, a JSON
    response per line.  ``{"op": "metrics"}`` returns the live metrics
    snapshot instead of factoring."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if isinstance(doc, dict) and doc.get("op") == "metrics":
                    payload = service.metrics_snapshot()
                else:
                    request = FactorRequest.from_dict(doc)
                    payload = (await service.submit(request)).to_dict()
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                payload = {"status": "bad-request", "error": str(exc)}
            writer.write(
                json.dumps(payload, sort_keys=True).encode() + b"\n"
            )
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve_tcp(
    service: FactorService, host: str = "127.0.0.1", port: int = 7077
) -> asyncio.base_events.Server:
    """Start the TCP front-end; returns the listening server (the
    caller owns its lifetime — ``server.close()`` to stop)."""

    async def handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host, port)
