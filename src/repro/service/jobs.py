"""Request and response types of the factorization service.

A :class:`FactorRequest` is the serving-layer spelling of one
``measured`` sweep point: the same parameter dict, the same cache key
(:func:`repro.harness.cache.point_key` through
:class:`~repro.harness.sweep.SweepPoint`), the same result row.  That
identity is the point — the content-addressed sweep cache doubles as
the serving cache, so a matrix already factored by a sweep is an O(1)
hit for the service and vice versa.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.harness.sweep import SweepPoint

#: The sweep task a service request resolves to.  Keeping this the
#: literal ``measured`` task means service cache entries and sweep
#: cache entries are interchangeable.
SERVICE_TASK = "measured"

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Fields a request document may carry (the TCP front-end validates
#: incoming JSON against this set).
REQUEST_FIELDS = (
    "impl", "n", "p", "seed", "v", "nb", "machine", "deadline_s",
)


@dataclass(frozen=True)
class FactorRequest:
    """One factorization to serve: algorithm, problem, provenance.

    The matrix itself is identified by ``(n, seed)`` — the worker
    regenerates it deterministically, exactly as the ``measured`` sweep
    task does, so "repeat matrix" is a pure content-address equality.

    ``deadline_s`` caps how long *this* caller waits for the response
    (the effective wait is ``min(deadline_s, request_timeout_s)``).
    It is delivery metadata, not problem identity, so it is excluded
    from ``params()`` and therefore from the cache key.
    """

    impl: str = "conflux"
    n: int = 64
    p: int = 4
    seed: int = 0
    v: int | None = None
    nb: int | None = None
    machine: str | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )

    def params(self) -> dict:
        """The ``measured``-task parameter dict (optional fields are
        omitted when unset, matching how the canned specs spell their
        points — identical params, identical cache key)."""
        params: dict = {
            "impl": str(self.impl),
            "n": int(self.n),
            "p": int(self.p),
            "seed": int(self.seed),
        }
        if self.v is not None:
            params["v"] = int(self.v)
        if self.nb is not None:
            params["nb"] = int(self.nb)
        if self.machine is not None:
            params["machine"] = str(self.machine)
        return params

    def point(self) -> SweepPoint:
        return SweepPoint(task=SERVICE_TASK, params=self.params())

    def cache_key(self) -> str:
        return self.point().cache_key()

    def shape_key(self) -> tuple:
        """Everything but the seed: requests sharing a shape key solve
        same-shape problems (the circuit breaker and service-time EMA
        key on it)."""
        return (self.impl, self.n, self.p, self.v, self.nb, self.machine)

    @classmethod
    def from_dict(cls, doc: dict) -> FactorRequest:
        """Build a request from a JSON document, rejecting unknown
        fields (a typo'd field silently ignored would compute the
        wrong problem)."""
        if not isinstance(doc, dict):
            raise ValueError(f"request must be a JSON object, got {doc!r}")
        unknown = set(doc) - set(REQUEST_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown request fields {sorted(unknown)}; "
                f"accepted: {list(REQUEST_FIELDS)}"
            )
        return cls(**doc)


@dataclass
class Job:
    """Internal envelope of one admitted request inside the service."""

    request: FactorRequest
    key: str
    future: asyncio.Future
    submitted_at: float


@dataclass(frozen=True)
class ServiceResponse:
    """Outcome of one submitted request.

    ``status`` is one of ``ok`` / ``rejected`` / ``error`` /
    ``timeout``.  ``cache_hit`` marks results served from the
    content-addressed cache without touching a worker; ``coalesced``
    marks results obtained by joining an identical in-flight request.
    ``retry_after_s`` is set only on rejections — the client's backoff
    hint under overload.
    """

    request: FactorRequest
    status: str
    result: dict | None = None
    error: str | None = None
    cache_hit: bool = False
    coalesced: bool = False
    latency_s: float = 0.0
    retry_after_s: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """JSON document for the TCP front-end / report files."""
        return {
            "request": self.request.params(),
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "latency_s": self.latency_s,
            "retry_after_s": self.retry_after_s,
        }
