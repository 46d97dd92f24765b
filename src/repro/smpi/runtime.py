"""Thread-based SPMD runtime.

Every rank of a simulated job runs the same Python function on its own
thread, communicating exclusively through :class:`Comm`.  The design
mirrors mpi4py's split between generic-object and buffer traffic:

* ``send``/``recv`` move arbitrary Python payloads (numpy arrays are the
  common case and are copied on send, so rank-local mutation semantics
  match a distributed-memory machine);
* ``Send``/``Recv`` are the buffer-protocol variants — ``Recv`` fills a
  caller-provided numpy buffer in place, like the upper-case mpi4py calls.

``send`` is buffered-asynchronous (it deposits the message into the
destination's mailbox and returns); ``recv`` blocks until a matching
message arrives.  A watchdog timeout converts lost-message hangs into
:class:`DeadlockError` instead of a frozen test suite.

Communicator metadata operations (``split``, ``dup``, ``barrier``) are
implemented through an in-process rendezvous board rather than messages;
they carry no payload bytes, matching the paper's volume accounting which
counts only data traffic.
"""

from __future__ import annotations

import copy
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.smpi.volume import VolumeLedger, VolumeReport

ANY_SOURCE = -1
ANY_TAG = -1

_DEFAULT_TIMEOUT = 300.0


class SmpiError(RuntimeError):
    """Base class for simulated-MPI failures."""


class DeadlockError(SmpiError):
    """A rank waited longer than the watchdog timeout for a message."""


class RankFailure(SmpiError):
    """One or more ranks raised; carries the first underlying error."""

    def __init__(self, failures: list[tuple[int, BaseException]]) -> None:
        self.failures = failures
        first_rank, first_exc = failures[0]
        super().__init__(
            f"{len(failures)} rank(s) failed; first: rank {first_rank}: "
            f"{type(first_exc).__name__}: {first_exc}"
        )


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload in bytes.

    numpy arrays count their buffer size (8 B per float64 element — the
    same accounting as the paper's Table 2 models, which are "scaled by
    the element size (8 bytes)").  Scalars count their natural width;
    containers count the sum of their elements.  Anything exotic falls
    back to its pickle length.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.itemsize
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, complex)):
        return 8 if not isinstance(obj, complex) else 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _copy_payload(obj: Any) -> Any:
    """Copy a payload so sender-side mutation cannot leak to the receiver.

    This is what makes the shared-address-space simulator behave like a
    distributed-memory machine.
    """
    if obj is None or isinstance(obj, (int, float, complex, str, bytes, bool)):
        return obj
    if isinstance(obj, np.ndarray):
        return np.array(obj, copy=True)
    if isinstance(obj, np.generic):
        return obj
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return copy.deepcopy(obj)


class _Message:
    __slots__ = ("context", "source", "tag", "data", "nbytes", "send_id")

    def __init__(
        self,
        context: int,
        source: int,
        tag: int,
        data: Any,
        nbytes: int,
        send_id: tuple[int, int] | None = None,
    ) -> None:
        self.context = context
        self.source = source
        self.tag = tag
        self.data = data
        self.nbytes = nbytes
        # (sender world rank, sender-local sequence number) when an
        # event trace is recording; lets the receive side log exactly
        # which send it matched (robust under ANY_SOURCE).
        self.send_id = send_id


class _Mailbox:
    """Per-world-rank inbox with (context, source, tag) matching."""

    def __init__(self) -> None:
        self._pending: list[_Message] = []
        self._cond = threading.Condition()

    def deliver(self, msg: _Message) -> None:
        with self._cond:
            self._pending.append(msg)
            self._cond.notify_all()

    def _match(self, context: int, source: int, tag: int) -> _Message | None:
        for i, msg in enumerate(self._pending):
            if msg.context != context:
                continue
            if source != ANY_SOURCE and msg.source != source:
                continue
            if tag != ANY_TAG and msg.tag != tag:
                continue
            return self._pending.pop(i)
        return None

    def take(
        self,
        context: int,
        source: int,
        tag: int,
        deadline: float | None,
        timeout: float,
        diag: Callable[[], str] | None = None,
    ) -> _Message:
        """Blocking matched receive.

        ``deadline`` is the *run-wide* watchdog instant (monotonic
        clock), shared by every blocking wait of the run: by the time
        the first one fires, everything that could make progress has,
        so all stuck ranks fail together with a consistent census
        instead of cascading one watchdog window per dependency level.
        An already-deliverable message is still returned after the
        deadline — only actual waiting is bounded.
        """
        with self._cond:
            while True:
                msg = self._match(context, source, tag)
                if msg is not None:
                    return msg
                remaining = (
                    threading.TIMEOUT_MAX if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 5.0))
        # Build the diagnostic *outside* the mailbox condition: the
        # run-wide deadline wakes every stuck rank at once, and a census
        # taken while holding this lock would cross-acquire the other
        # rank's held lock (ABBA) — the watchdog's own diagnostic must
        # not deadlock the watchdog.
        message = (
            f"recv(source={source}, tag={tag}, "
            f"context={context}) timed out: run watchdog "
            f"({timeout:.0f}s) expired"
        )
        if diag is not None:
            message += "\n" + diag()
        raise DeadlockError(message)


class _Rendezvous:
    """Shared board for zero-volume collective metadata (split/barrier)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._slots: dict[Any, dict[str, Any]] = {}

    def exchange(
        self,
        key: Any,
        rank: int,
        value: Any,
        expected: int,
        deadline: float | None,
        timeout: float,
        diag: Callable[[], str] | None = None,
    ) -> dict[int, Any]:
        """Deposit ``value`` under ``key`` and wait until ``expected``
        participants arrived; return the full contribution map.

        ``deadline`` is the run-wide watchdog instant, shared with
        :meth:`_Mailbox.take` (see there for why it is absolute).
        """
        arrived = 0
        with self._cond:
            slot = self._slots.setdefault(key, {"contrib": {}, "done": 0})
            slot["contrib"][rank] = value
            if len(slot["contrib"]) == expected:
                self._cond.notify_all()
            timed_out = False
            while len(slot["contrib"]) < expected:
                remaining = (
                    threading.TIMEOUT_MAX if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining <= 0:
                    timed_out = True
                    arrived = len(slot["contrib"])
                    break
                self._cond.wait(timeout=min(remaining, 5.0))
            if not timed_out:
                contrib = dict(slot["contrib"])
                slot["done"] += 1
                if slot["done"] == expected:
                    # Last one out cleans up so the key can be reused.
                    del self._slots[key]
                return contrib
        # Diagnose outside the condition — census acquires mailbox
        # locks held by other timed-out ranks (see _Mailbox.take).
        message = (
            f"rendezvous {key!r} stuck at "
            f"{arrived}/{expected} after "
            f"the run watchdog ({timeout:.0f}s)"
        )
        if diag is not None:
            message += "\n" + diag()
        raise DeadlockError(message)


class _Context:
    """State shared by every rank of one SPMD run."""

    def __init__(
        self,
        nranks: int,
        timeout: float,
        trace: Any = None,
        faults: Any = None,
    ) -> None:
        self.nranks = nranks
        self.timeout = timeout
        #: Absolute run-wide watchdog instant (None = no watchdog).
        #: One shared deadline means cascaded stalls surface together.
        self.deadline = (
            None if timeout <= 0 else time.monotonic() + timeout
        )
        self.mailboxes = [_Mailbox() for _ in range(nranks)]
        self.ledger = VolumeLedger(nranks)
        self.rendezvous = _Rendezvous()
        #: repro.smpi.timing.EventTrace when the run predicts time
        self.trace = trace
        #: repro.faults.FaultInjector for chaos runs (None = clean run)
        self.faults = faults
        #: world rank -> (source, tag, context) it is blocked awaiting;
        #: each rank writes only its own entry (GIL-atomic dict ops)
        self.waiting: dict[int, tuple[int, int, int]] = {}
        self._next_context = 1  # 0 is COMM_WORLD
        self._ctx_lock = threading.Lock()

    def allocate_contexts(self, count: int) -> int:
        """Reserve ``count`` consecutive context ids; return the first."""
        with self._ctx_lock:
            first = self._next_context
            self._next_context += count
            return first

    def census(self) -> str:
        """Blocked-rank diagnostic for :class:`DeadlockError`: what each
        stuck rank is awaiting, and what is sitting undelivered in every
        mailbox — usually enough to see *which* message went missing."""
        lines = ["blocked ranks:"]
        waiting = dict(self.waiting)
        for rank in sorted(waiting):
            source, tag, context = waiting[rank]
            src = "ANY" if source == ANY_SOURCE else source
            tg = "ANY" if tag == ANY_TAG else tag
            lines.append(
                f"  rank {rank}: awaiting (source={src}, tag={tg}, "
                f"context={context})"
            )
        if len(lines) == 1:
            lines.append("  (none recorded)")
        lines.append("mailbox census:")
        pending_any = False
        for rank, mb in enumerate(self.mailboxes):
            # Bounded acquire: census runs on the watchdog path, where
            # several timed-out ranks may diagnose concurrently.  No
            # caller holds a mailbox condition while in census (see
            # _Mailbox.take), but a busy mailbox must degrade to a
            # "(busy)" line rather than block the diagnostic forever.
            if not mb._cond.acquire(timeout=1.0):
                pending_any = True
                lines.append(f"  rank {rank}: (mailbox busy; skipped)")
                continue
            try:
                pending = sorted(
                    (m.source, m.tag, m.context) for m in mb._pending
                )
            finally:
                mb._cond.release()
            if pending:
                pending_any = True
                shown = ", ".join(
                    f"(source={s}, tag={t}, context={c})"
                    for s, t, c in pending[:8]
                )
                extra = (
                    f" … +{len(pending) - 8} more"
                    if len(pending) > 8 else ""
                )
                lines.append(
                    f"  rank {rank}: {len(pending)} undelivered: "
                    f"{shown}{extra}"
                )
        if not pending_any:
            lines.append("  (all mailboxes empty)")
        return "\n".join(lines)


class _PhaseScope:
    """Push/pop one entry of the rank's phase-scope stack.

    Nesting is supported and attributes *exclusively*: traffic inside
    the inner scope lands under the ``"outer/inner"`` path key only
    (see :meth:`VolumeLedger.current_phase`), so per-phase totals never
    double count.
    """

    def __init__(self, comm: "Comm", name: str | None) -> None:
        self._comm = comm
        self._name = name

    def __enter__(self) -> "Comm":
        self._comm._ctx.ledger.push_phase(
            self._comm._world_rank, self._name
        )
        return self._comm

    def __exit__(self, *exc: Any) -> None:
        self._comm._ctx.ledger.pop_phase(self._comm._world_rank)


class Comm:
    """A communicator: an ordered group of ranks sharing a message context.

    The world communicator is handed to the rank function by
    :func:`run_spmd`; sub-communicators come from :meth:`split` (the
    analogue of ``MPI_Comm_split``) and address peers by *group-local*
    rank, exactly like MPI.
    """

    def __init__(
        self,
        ctx: _Context,
        context_id: int,
        group: Sequence[int],
        world_rank: int,
    ) -> None:
        self._ctx = ctx
        self._context_id = context_id
        self._group = tuple(group)
        self._world_rank = world_rank
        self._rank = self._group.index(world_rank)
        self._meta_counter = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator's group."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    @property
    def world_rank(self) -> int:
        """Rank in the world communicator (useful for debugging)."""
        return self._world_rank

    @property
    def group(self) -> tuple[int, ...]:
        """World ranks of the group, in group order."""
        return self._group

    @property
    def ledger(self) -> VolumeLedger:
        return self._ctx.ledger

    def phase(self, name: str | None) -> _PhaseScope:
        """Context manager attributing sent bytes to a named phase."""
        return _PhaseScope(self, name)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Buffered asynchronous send of a generic payload.

        When the run carries a fault injector this is the injection
        seam: the injector may retime, drop, duplicate, hold back or
        corrupt the outgoing message (or crash this rank).  The ledger
        and timing trace record what is *actually delivered*, so byte
        accounting and predicted time follow the faulty execution.
        """
        if not 0 <= dest < self.size:
            raise ValueError(
                f"dest {dest} out of range for communicator of size "
                f"{self.size}"
            )
        dst_world = self._group[dest]
        nbytes = payload_nbytes(data)
        payload = _copy_payload(data)
        phase = self._ctx.ledger.current_phase(self._world_rank)
        injector = self._ctx.faults
        if injector is None:
            deliveries = (
                (payload, nbytes, self._context_id, self._rank, tag, 0.0),
            )
        else:
            deliveries = tuple(
                (d.payload, d.nbytes, d.context, d.source, d.tag,
                 d.delay_s)
                for d in injector.process_send(
                    self._world_rank, dst_world, self._context_id,
                    self._rank, tag, phase, payload, nbytes,
                )
            )
        trace = self._ctx.trace
        mailbox = self._ctx.mailboxes[dst_world]
        for d_payload, d_nbytes, d_context, d_source, d_tag, d_delay in (
            deliveries
        ):
            msg = _Message(d_context, d_source, d_tag, d_payload, d_nbytes)
            self._ctx.ledger.record_send(self._world_rank, d_nbytes)
            if trace is not None:
                msg.send_id = trace.record_send(
                    self._world_rank,
                    dst_world,
                    d_nbytes,
                    phase,
                    delay_s=d_delay,
                )
            mailbox.deliver(msg)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        data, _, _ = self.recv_status(source, tag)
        return data

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int]:
        """Blocking receive; returns ``(payload, source, tag)``."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(
                f"source {source} out of range for communicator of size "
                f"{self.size}"
            )
        self._ctx.waiting[self._world_rank] = (
            source, tag, self._context_id
        )
        try:
            msg = self._ctx.mailboxes[self._world_rank].take(
                self._context_id, source, tag, self._ctx.deadline,
                self._ctx.timeout, diag=self._ctx.census,
            )
        finally:
            self._ctx.waiting.pop(self._world_rank, None)
        self._ctx.ledger.record_recv(self._world_rank, msg.nbytes)
        trace = self._ctx.trace
        if trace is not None and msg.send_id is not None:
            trace.record_recv(
                self._world_rank,
                msg.send_id,
                self._ctx.ledger.current_phase(self._world_rank),
            )
        return msg.data, msg.source, msg.tag

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-protocol send (numpy array)."""
        if not isinstance(buf, np.ndarray):
            raise TypeError("Send expects a numpy array; use send() instead")
        self.send(buf, dest, tag)

    def Recv(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[int, int]:
        """Receive into a caller-provided buffer; returns (source, tag)."""
        data, src, rtag = self.recv_status(source, tag)
        if not isinstance(data, np.ndarray):
            raise TypeError(
                f"Recv matched a non-buffer message of type {type(data)}"
            )
        if data.shape != buf.shape:
            raise ValueError(
                f"Recv buffer shape {buf.shape} != message shape {data.shape}"
            )
        np.copyto(buf, data)
        return src, rtag

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        source: int | None = None,
        sendtag: int = 0,
        recvtag: int | None = None,
    ) -> Any:
        """Combined exchange; safe because sends are buffered."""
        if source is None:
            source = dest
        if recvtag is None:
            recvtag = sendtag
        self.send(senddata, dest, sendtag)
        return self.recv(source, recvtag)

    # ------------------------------------------------------------------
    # metadata collectives (zero volume)
    # ------------------------------------------------------------------
    def _meta_key(self, op: str) -> tuple:
        self._meta_counter += 1
        return (self._context_id, op, self._meta_counter)

    def _trace_sync(self, key: tuple) -> None:
        """Log a rendezvous as a sync point for the timing replay.

        The key is identical on every participating rank (same context,
        op and per-comm counter), so the replay can align the whole
        group's clocks; metadata ops stay zero-volume in the ledger.
        """
        trace = self._ctx.trace
        if trace is not None:
            trace.record_sync(
                self._world_rank,
                key,
                self.size,
                self._ctx.ledger.current_phase(self._world_rank),
            )

    def compute(self, flops: float) -> None:
        """Account ``flops`` of local work for the timing model.

        A no-op for volume-only runs; under ``run_spmd(machine=...)``
        the replay advances this rank's clock by flops/γ, overlapping
        the work with any in-flight transfers (compute/communication
        overlap).
        """
        if flops < 0:
            raise ValueError(f"negative flop count: {flops}")
        trace = self._ctx.trace
        if trace is not None:
            trace.record_compute(
                self._world_rank,
                flops,
                self._ctx.ledger.current_phase(self._world_rank),
            )

    def barrier(self) -> None:
        """Synchronize all ranks of this communicator (zero data volume)."""
        key = self._meta_key("barrier")
        self._trace_sync(key)
        self._ctx.rendezvous.exchange(
            key,
            self._rank,
            None,
            self.size,
            self._ctx.deadline,
            self._ctx.timeout,
            diag=self._ctx.census,
        )

    def split(
        self, color: int | None, key: int | None = None
    ) -> "Comm | None":
        """Partition the communicator by ``color``; order groups by
        ``(key, rank)``.  Ranks passing ``color=None`` get ``None`` back
        (the MPI_UNDEFINED idiom used to disable ranks — the paper's
        Processor Grid Optimization relies on this)."""
        if key is None:
            key = self._rank
        meta_key = self._meta_key("split")
        self._trace_sync(meta_key)
        contrib = self._ctx.rendezvous.exchange(
            meta_key,
            self._rank,
            (color, key),
            self.size,
            self._ctx.deadline,
            self._ctx.timeout,
            diag=self._ctx.census,
        )
        colors = sorted(
            {c for c, _ in contrib.values() if c is not None}
        )
        if not colors:
            return None
        # Deterministic context allocation: rank 0 of the parent group
        # reserves one context per color and shares the base id, so every
        # member (including color=None ranks) computes identical ids.
        first_ctx = self._shared_context_base(len(colors))
        my_color, _ = contrib[self._rank]
        if my_color is None:
            return None
        color_index = colors.index(my_color)
        members = sorted(
            (k, r) for r, (c, k) in contrib.items() if c == my_color
        )
        group = tuple(self._group[r] for _, r in members)
        return Comm(
            self._ctx, first_ctx + color_index, group, self._world_rank
        )

    def _shared_context_base(self, count: int) -> int:
        """All group members must obtain the *same* base id; rank 0
        allocates and shares it through the rendezvous board."""
        key = self._meta_key("ctxbase")
        self._trace_sync(key)
        value = None
        if self._rank == 0:
            value = self._ctx.allocate_contexts(count)
        contrib = self._ctx.rendezvous.exchange(
            key, self._rank, value, self.size, self._ctx.deadline,
            self._ctx.timeout, diag=self._ctx.census,
        )
        return contrib[0]

    def dup(self) -> "Comm":
        """Duplicate the communicator with a fresh context."""
        base = self._shared_context_base(1)
        return Comm(self._ctx, base, self._group, self._world_rank)

    # ------------------------------------------------------------------
    # data collectives — implemented in collectives.py, re-exported as
    # methods for mpi4py-flavoured call sites.
    # ------------------------------------------------------------------
    def bcast(self, data: Any, root: int = 0) -> Any:
        from repro.smpi import collectives

        return collectives.bcast(self, data, root)

    def reduce(
        self,
        data: Any,
        root: int = 0,
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        from repro.smpi import collectives

        return collectives.reduce(self, data, root, op)

    def allreduce(
        self, data: Any, op: Callable[[Any, Any], Any] | None = None
    ) -> Any:
        from repro.smpi import collectives

        return collectives.allreduce(self, data, op)

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        from repro.smpi import collectives

        return collectives.gather(self, data, root)

    def allgather(self, data: Any) -> list[Any]:
        from repro.smpi import collectives

        return collectives.allgather(self, data)

    def scatter(self, chunks: Sequence[Any] | None, root: int = 0) -> Any:
        from repro.smpi import collectives

        return collectives.scatter(self, chunks, root)

    def alltoall(self, chunks: Sequence[Any]) -> list[Any]:
        from repro.smpi import collectives

        return collectives.alltoall(self, chunks)

    def reduce_scatter(
        self,
        chunks: Sequence[Any],
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        from repro.smpi import collectives

        return collectives.reduce_scatter(self, chunks, op)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = _DEFAULT_TIMEOUT,
    machine: Any = None,
    faults: Any = None,
) -> tuple[list[Any], VolumeReport]:
    """Run ``fn(comm, *args)`` on ``nranks`` threads.

    Returns ``(results, volume_report)`` where ``results[r]`` is rank r's
    return value.  If any rank raises, a :class:`RankFailure` carrying
    every failure is raised after all threads have stopped.

    ``timeout`` is the per-run watchdog window (seconds): one absolute
    deadline shared by every blocking receive and rendezvous.  A lost
    message surfaces as a :class:`DeadlockError` with a blocked-rank
    census instead of a frozen suite, and because the deadline is
    run-wide, every stuck rank fails at the *same* instant — a
    dependency chain of stalls costs one window, not one per level.

    ``machine`` (a :class:`~repro.models.machines.Machine`, preset name
    or spec path) switches on the discrete-event clock: the run records
    an event trace and the returned report carries a
    :class:`~repro.smpi.timing.TimingReport` in ``report.timing`` —
    predicted per-rank wall-clock under that machine's α-β-γ model.
    Byte accounting is identical with or without a machine.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, plan dict, or JSON
    path) arms deterministic fault injection on the send seam; the
    returned report carries the canonical fault log in
    ``report.faults``.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    trace = None
    resolved = None
    if machine is not None:
        from repro.models.machines import resolve_machine
        from repro.smpi.timing import EventTrace

        resolved = resolve_machine(machine)
        trace = EventTrace(nranks)
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, resolve_faults

        plan = resolve_faults(faults)
        if plan is not None and plan.rules:
            injector = FaultInjector(plan, nranks)
    ctx = _Context(nranks, timeout, trace=trace, faults=injector)
    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def _worker(rank: int) -> None:
        comm = Comm(ctx, 0, tuple(range(nranks)), rank)
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with failures_lock:
                failures.append((rank, exc))
            # Wake everyone so peers blocked on this rank fail fast via
            # their own timeouts rather than hanging for the full window.
            for mb in ctx.mailboxes:
                with mb._cond:
                    mb._cond.notify_all()

    threads = [
        threading.Thread(
            target=_worker, args=(r,), daemon=True, name=f"rank{r}"
        )
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if injector is not None:
        injector.finish()
    if failures:
        failures.sort(key=lambda f: f[0])
        raise RankFailure(failures)
    report = ctx.ledger.snapshot()
    if trace is not None or injector is not None:
        import dataclasses

        updates: dict[str, Any] = {}
        if trace is not None:
            from repro.smpi.timing import simulate

            updates["timing"] = simulate(trace, resolved)
        if injector is not None:
            updates["faults"] = injector.report()
        report = dataclasses.replace(report, **updates)
    return results, report
