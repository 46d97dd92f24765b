"""The benchmark's four workloads, their inputs and their output checks.

Every workload is driven in *batches*: a batch of ``table2-lu``,
``qr-clock`` or ``chaos-crash`` is one op; a batch of ``service-zipf``
is one pass of :data:`SERVICE_PASS` requests against a fresh service
and a fresh cache.  Inputs come only from the seed.  Each batch returns
its op records and a ``counts`` dict of deterministic numbers (bytes,
messages, predicted seconds, cache and worker counts), so that two
batches on the same input can be compared for exact equality.

The output checks use numpy only and do not trust the program's own
verification.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.algorithms import factor
from repro.faults import RankCrashed, canned_plan
from repro.harness.cache import SweepCache
from repro.harness.runner import pick_params
from repro.service import (
    FactorService,
    RequestSampler,
    ServiceConfig,
    WorkloadSpec,
)
from repro.smpi import DeadlockError, RankFailure

#: Requests per service pass; each pass gets a fresh cache.  The first
#: 16 requests of the stream hold 12 distinct keys, so three quarters
#: of a pass computes and op_p50_s is a miss latency.  Longer passes
#: put the median among cache hits, whose ~0.2 ms latency followed the
#: shared host's speed: 0.14-0.29 ms between runs at 1280 and at 48000
#: requests a pass.
SERVICE_PASS = 16
SERVICE_CLIENTS = 2
RESIDUAL_TOL = 1e-10
STRUCTURE_TOL = 1e-12


@dataclass
class OpRecord:
    """One timed op: wall seconds, outcome and, when traced, extras."""

    latency_s: float
    ok: bool
    error: str = ""
    factor_s: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Batch:
    """The ops of one batch and its deterministic counts."""

    ops: list[OpRecord]
    counts: dict
    #: Ledger bytes per rank of this batch, or None if it has none.
    bytes_per_rank: float | None = None
    #: Bytes the ledger recorded as sent in this batch, where known.
    sent_bytes: int | None = None
    extra: dict = field(default_factory=dict)


def check_lu(a: np.ndarray, res) -> str:
    """'' if ``res`` is a valid LU of ``a``, else the first failure."""
    n = a.shape[0]
    perm = np.asarray(res.perm)
    lower, upper = np.asarray(res.lower), np.asarray(res.upper)
    if lower.shape != (n, n) or upper.shape != (n, n):
        return f"{res.name}: factor shapes {lower.shape}/{upper.shape}"
    if not np.array_equal(np.sort(perm), np.arange(n)):
        return f"{res.name}: perm is not a permutation"
    if np.abs(np.triu(lower, 1)).max() > STRUCTURE_TOL:
        return f"{res.name}: L has mass above the diagonal"
    if np.abs(np.diag(lower) - 1.0).max() > STRUCTURE_TOL:
        return f"{res.name}: L diagonal is not unit"
    if np.abs(np.tril(upper, -1)).max() > STRUCTURE_TOL:
        return f"{res.name}: U has mass below the diagonal"
    rel = np.linalg.norm(a[perm] - lower @ upper) / np.linalg.norm(a)
    if not rel <= RESIDUAL_TOL:
        return f"{res.name}: ||A[perm]-LU||/||A|| = {rel:.2e}"
    return ""


def check_qr(a: np.ndarray, res) -> str:
    """'' if ``res`` (Q in ``lower``, R in ``upper``) is a valid QR."""
    n = a.shape[0]
    q, r = np.asarray(res.lower), np.asarray(res.upper)
    if q.shape != (n, n) or r.shape != (n, n):
        return f"{res.name}: factor shapes {q.shape}/{r.shape}"
    if np.abs(np.tril(r, -1)).max() > STRUCTURE_TOL:
        return f"{res.name}: R has mass below the diagonal"
    rel = np.linalg.norm(a - q @ r) / np.linalg.norm(a)
    if not rel <= RESIDUAL_TOL:
        return f"{res.name}: ||A-QR||/||A|| = {rel:.2e}"
    orth = np.linalg.norm(q.T @ q - np.eye(n))
    if not orth <= RESIDUAL_TOL:
        return f"{res.name}: ||Q^T Q - I|| = {orth:.2e}"
    return ""


def matrix(seed, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, n))


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    #: Problem size of the plain single-threaded reference timing.
    n = 0
    reference = "scipy.linalg.lu_factor"
    #: True when every batch repeats the same input, so every batch's
    #: counts must equal the first one's.
    same_input = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> Batch | None:
        """Make the inputs and run the untimed warm-up op."""
        raise NotImplementedError

    def batch(self, index: int, tracer) -> Batch:
        raise NotImplementedError

    def finish(self, batches: list[Batch]) -> None:
        """Checks that run after the timed loop, outside its clock."""


class FactorSet(Workload):
    """One op factors one seeded matrix with each of ``impls``."""

    impls: tuple[str, ...] = ()
    p = 16
    machine: str | None = None
    same_input = True

    def setup(self) -> Batch:
        self.a = matrix(self.seed, self.n)
        return self.batch(0, None)

    def check(self, res) -> str:
        return check_lu(self.a, res)

    def batch(self, index: int, tracer) -> Batch:
        errors, counts, factor_s = [], {}, {}
        total_bytes = predicted = 0
        start = time.perf_counter()
        for impl in self.impls:
            t0 = time.perf_counter()
            res = factor(
                impl, self.a, self.p, machine=self.machine,
                **pick_params(impl, self.n, self.p),
            )
            factor_s[impl] = time.perf_counter() - t0
            errors.append(self.check(res))
            timing = res.volume.timing
            counts[impl] = {
                "bytes": res.volume.total_bytes,
                "messages": res.volume.total_messages,
                "predicted_s": timing.makespan if timing else None,
            }
            total_bytes += res.volume.total_bytes
            predicted += timing.makespan if timing else 0.0
        wall = time.perf_counter() - start
        error = "; ".join(e for e in errors if e)
        op = OpRecord(wall, not error, error, factor_s)
        return Batch(
            [op], counts, total_bytes / self.p, total_bytes,
            {"predicted_s": predicted},
        )


class Table2LU(FactorSet):
    name = "table2-lu"
    impls = ("conflux", "candmc25d", "scalapack2d", "slate2d")
    n = 128


class QRClock(FactorSet):
    name = "qr-clock"
    impls = ("qr2d", "caqr25d", "confqr")
    n = 96
    machine = "daint-xc50"
    reference = "numpy.linalg.qr"

    def check(self, res) -> str:
        return check_qr(self.a, res)


class ChaosCrash(Workload):
    """One op: ``conflux`` under the canned crash plan, 2 s watchdog.

    Op ``i`` factors its own seeded matrix.  The warm-up is the same
    call on the first matrix without the plan; its ledger is the
    workload's ``bytes_per_rank`` (the crashed runs return none).
    """

    name = "chaos-crash"
    n = 64
    p = 8
    timeout_s = 2.0

    def setup(self) -> None:
        self.plan = canned_plan("crash")
        a = matrix((self.seed, 0), self.n)
        res = factor("conflux", a, self.p)
        self.clean_error = check_lu(a, res)
        self.clean_bytes_per_rank = res.volume.total_bytes / self.p

    def batch(self, index: int, tracer) -> Batch:
        a = matrix((self.seed, index), self.n)
        raised = "none"
        crashes = 0
        start = time.perf_counter()
        try:
            factor(
                "conflux", a, self.p, faults=self.plan,
                timeout_s=self.timeout_s,
            )
        except (RankFailure, DeadlockError) as exc:
            surfaced = time.perf_counter()
            raised = type(exc).__name__
            crashes = sum(
                isinstance(e, RankCrashed)
                for _, e in getattr(exc, "failures", ())
            )
        else:
            surfaced = time.perf_counter()
        wall = surfaced - start
        extra = {}
        ok = raised != "none" and crashes >= 1
        error = "" if ok else f"raised {raised}, crashes fired {crashes}"
        if tracer is not None:
            traced = tracer.counters[index]["faults.crashes_fired"]
            if traced != crashes:
                ok = False
                error = f"tracer saw {traced} crashes, exception {crashes}"
            at = tracer.samples.get("faults.crash_at")
            if traced and at:
                extra["crash_to_raise_s"] = surfaced - at[-1]
        if self.clean_error:
            ok, error = False, f"clean run: {self.clean_error}"
        op = OpRecord(wall, ok, error, {"conflux": wall}, extra)
        counts = {"raised": raised, "crashes_fired": crashes}
        return Batch([op], counts, self.clean_bytes_per_rank)


class ServiceZipf(Workload):
    """Closed loop of two clients awaiting ``FactorService.submit``.

    Every pass replays one Zipf request stream against a new service
    and an empty cache directory.  The stream's shape (which sizes and
    pool slots repeat, in which order) is fixed; the seed picks the
    matrices in the pool, so seeds vary the inputs but not the hit
    pattern, and every pass repeats the counts of the first.
    """

    name = "service-zipf"
    n = 96
    same_input = True
    seed_pool = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config = ServiceConfig(workers=2)
        self._refs: dict[tuple, tuple[int, str]] = {}

    def requests(self):
        spec = WorkloadSpec(
            sizes=(32, 48, 64, 96), seed_pool=self.seed_pool,
            impl="conflux", p=4, seed=0, requests=SERVICE_PASS,
        )
        return [
            replace(r, seed=self.seed * self.seed_pool + r.seed)
            for r in RequestSampler(spec).request_stream()
        ]

    def setup(self) -> None:
        self.stream = self.requests()
        self._serve(self.stream[:1], "warmup")

    def _serve(self, requests, label: str):
        cache_dir = self.workdir / f"cache-{label}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            return asyncio.run(
                self._closed_loop(requests, SweepCache(cache_dir))
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    async def _closed_loop(self, requests, cache):
        out = [None] * len(requests)
        cursor = 0

        async def client(service):
            nonlocal cursor
            while cursor < len(requests):
                i = cursor
                cursor += 1
                t0 = time.perf_counter()
                resp = await service.submit(requests[i])
                out[i] = (time.perf_counter() - t0, resp)

        service = FactorService(self.config, cache=cache)
        async with service:
            await asyncio.gather(
                *(client(service) for _ in range(SERVICE_CLIENTS))
            )
        return out, service.metrics_snapshot(), service

    def batch(self, index: int, tracer) -> Batch:
        requests = self.stream
        out, snap, service = self._serve(requests, f"pass{index}")
        ops = []
        total_bytes = 0
        for latency, resp in out:
            ok = resp.ok
            error = "" if ok else f"{resp.status}: {resp.error}"
            ops.append(OpRecord(latency, ok, error, extra={"resp": resp}))
            if ok:
                total_bytes += resp.result["measured_bytes"]
        c = snap["counts"]
        counts = {
            "requests": c["requests"],
            "computed": service.worker_executions,
            "served_without_compute": c["served_without_compute"],
            "bytes": total_bytes,
        }
        extra = {
            "coalesced": sum(r.coalesced for _, r in out),
            "max_queue_depth": snap["max_queue_depth"],
        }
        p = requests[0].p
        return Batch(
            ops, counts, total_bytes / p / len(requests), extra=extra
        )

    def reference_bytes(self, request) -> tuple[int, str]:
        """Ledger bytes and check result of a direct ``factor()``."""
        key = (request.n, request.seed)
        if key not in self._refs:
            a = matrix(request.seed, request.n)
            res = factor(
                request.impl, a, request.p,
                **pick_params(request.impl, request.n, request.p),
            )
            self._refs[key] = (res.volume.total_bytes, check_lu(a, res))
        return self._refs[key]

    def finish(self, batches: list[Batch]) -> None:
        """Every ok response must carry the bytes of a direct factor()."""
        for b in batches:
            for op in b.ops:
                resp = op.extra.pop("resp")
                if not op.ok:
                    continue
                ref_bytes, ref_error = self.reference_bytes(resp.request)
                got = resp.result["measured_bytes"]
                if ref_error:
                    op.ok, op.error = False, f"direct factor: {ref_error}"
                elif got != ref_bytes:
                    op.ok = False
                    op.error = f"measured_bytes {got} != direct {ref_bytes}"


WORKLOADS = {
    w.name: w for w in (Table2LU, QRClock, ServiceZipf, ChaosCrash)
}
