"""Registry-driven ``predict()`` — the model-side mirror of ``factor()``.

The algorithms package dispatches *runs* through one uniform entry
point; this module does the same for the *analytic* side.  Every cost
model registers a :class:`ModelInfo` declaring what it predicts
(``kind``: ``lu`` / ``qr``), which grid family its closed form assumes,
and the total-bytes callable.  Callers use one signature for the whole
family::

    from repro.models import predict
    pred = predict("conflux", n=16384, p=1024, machine="daint-xc50")
    pred.total_gb, pred.comm_seconds, pred.predicted_seconds

``predict`` resolves the machine spec (preset name, JSON path, or
:class:`~repro.models.machines.Machine`), derives the per-rank memory
M from it when not given explicitly, and — when a machine is present —
converts the volume into α-β-γ time estimates comparable with the
discrete-event clock's :class:`~repro.smpi.timing.TimingReport`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.models.costmodels import (
    caqr25d_total_bytes,
    candmc_total_bytes,
    conflux_total_bytes,
    confqr_total_bytes,
    qr2d_total_bytes,
    scalapack2d_total_bytes,
    slate_total_bytes,
)
from repro.models.machines import Machine, resolve_machine

MODEL_KINDS = ("lu", "qr")

#: flops of the factorization each model kind predicts (double
#: precision; the classical leading terms).
_KIND_FLOPS = {
    "lu": lambda n: 2.0 * n**3 / 3.0,
    "qr": lambda n: 4.0 * n**3 / 3.0,
}


@dataclass(frozen=True)
class ModelInfo:
    """Declared capabilities of one registered cost model."""

    name: str
    kind: str
    grid_family: str
    description: str
    total_bytes: Callable[..., float]
    memory_sensitive: bool = True

    def describe(self) -> str:
        mem = "M-sensitive" if self.memory_sensitive else "M-independent"
        return (
            f"{self.name}: kind={self.kind} grid={self.grid_family} "
            f"{mem} — {self.description}"
        )


#: name -> ModelInfo; same names as the algorithm registry where a
#: run-side implementation exists.
MODEL_REGISTRY: dict[str, ModelInfo] = {}


def register_model(
    name: str,
    total_bytes: Callable[..., float],
    *,
    kind: str,
    grid_family: str,
    description: str,
    memory_sensitive: bool = True,
) -> ModelInfo:
    """Register a cost model with its capability metadata."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind {kind!r} not in {MODEL_KINDS}")
    info = ModelInfo(
        name=name,
        kind=kind,
        grid_family=grid_family,
        description=description,
        total_bytes=total_bytes,
        memory_sensitive=memory_sensitive,
    )
    MODEL_REGISTRY[name] = info
    return info


def get_model(name: str) -> ModelInfo:
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None


def list_models(kind: str | None = None) -> tuple[ModelInfo, ...]:
    infos = sorted(MODEL_REGISTRY.values(), key=lambda i: i.name)
    if kind is not None:
        infos = [i for i in infos if i.kind == kind]
    return tuple(infos)


register_model(
    "scalapack2d",
    scalapack2d_total_bytes,
    kind="lu",
    grid_family="2d",
    description="2D block-cyclic GEPP: N^2 sqrt(P) + N^2 (Table 2)",
    memory_sensitive=False,
)
register_model(
    "slate2d",
    slate_total_bytes,
    kind="lu",
    grid_family="2d",
    description="SLATE 2D LU — coincides with the ScaLAPACK model",
    memory_sensitive=False,
)
register_model(
    "candmc25d",
    candmc_total_bytes,
    kind="lu",
    grid_family="25d",
    description="CANDMC 2.5D LU: authors' 5 N^3 / (P sqrt(M)) per rank",
)
register_model(
    "conflux",
    conflux_total_bytes,
    kind="lu",
    grid_family="25d",
    description="COnfLUX exact per-step sums (Lemma 10)",
)
register_model(
    "qr2d",
    qr2d_total_bytes,
    kind="qr",
    grid_family="2d",
    description="2D Householder QR: ~ N^2 (Pc + 2 Pr) / 2 elements",
    memory_sensitive=False,
)
register_model(
    "caqr25d",
    caqr25d_total_bytes,
    kind="qr",
    grid_family="25d",
    description="2.5D CAQR per-step model (TSQR trees on panes)",
)
register_model(
    "confqr",
    confqr_total_bytes,
    kind="qr",
    grid_family="25d",
    description=(
        "COnfQR exact per-step model (compact-WY on the compute "
        "layer, 1/c reflector banks) — volume ~ 4 G N^2, G = sqrt(P/c)"
    ),
)


@dataclass(frozen=True)
class Prediction:
    """One evaluated model point, optionally timed under a machine.

    Volume fields are always present; the time fields are ``None``
    unless a machine spec was given.  ``comm_seconds`` is the
    bandwidth-bound estimate β · per-rank bytes (latency needs message
    counts, which the closed forms do not carry — the discrete-event
    clock in :mod:`repro.smpi.timing` models that exactly);
    ``compute_seconds`` is kind-flops / (P γ).  ``predicted_seconds``
    sums the two — a no-overlap upper estimate, so the event-driven
    replay of the same run should come in at or under it.
    """

    name: str
    kind: str
    n: int
    p: int
    m: float
    machine: str | None
    total_bytes: float
    comm_seconds: float | None = None
    compute_seconds: float | None = None

    @property
    def per_rank_bytes(self) -> float:
        return self.total_bytes / self.p

    @property
    def total_gb(self) -> float:
        return self.total_bytes / 1e9

    @property
    def predicted_seconds(self) -> float | None:
        if self.comm_seconds is None or self.compute_seconds is None:
            return None
        return self.comm_seconds + self.compute_seconds

    def describe(self) -> str:
        line = (
            f"{self.name}(N={self.n}, P={self.p}): "
            f"{self.total_gb:.6f} GB total, "
            f"{self.per_rank_bytes:,.1f} B/rank"
        )
        if self.predicted_seconds is not None:
            line += (
                f"; on {self.machine}: {self.predicted_seconds:.3e} s "
                f"(comm {self.comm_seconds:.3e} s + "
                f"compute {self.compute_seconds:.3e} s)"
            )
        return line


def predict(
    name: str,
    n: int,
    p: int | None = None,
    *,
    machine: "Machine | str | None" = None,
    m: float | None = None,
    c: int | None = None,
    **opts,
) -> Prediction:
    """Evaluate the named cost model at (N, P); the one entry point for
    the whole model family, mirroring ``factor()``.

    ``p`` may be omitted when ``machine`` is given — it defaults to the
    machine's rank count.  The per-rank memory ``m`` (elements)
    defaults to the algorithmic memory of the deepest replication the
    setting allows: ``c`` if given, else the Figure 6 rule
    c = P^(1/3) capped by the machine's memory when one is present.
    Remaining keyword options (``v``, ``nb``, ``grid`` ...) pass
    through to the model's closed form.
    """
    info = get_model(name)
    mach = resolve_machine(machine)
    if p is None:
        if mach is None:
            raise ValueError(f"predict({name!r}, ...) needs p= or machine=")
        p = mach.total_ranks
    if n < 1 or p < 1:
        raise ValueError(f"need positive N and P, got N={n}, P={p}")
    if m is None:
        from repro.models.prediction import (
            algorithmic_memory,
            choose_c_max_replication,
        )

        if c is None:
            m_max = mach.memory_per_rank_elements if mach else None
            c = choose_c_max_replication(p, n, m_max=m_max)
        m = algorithmic_memory(n, p, c)
    total = float(info.total_bytes(n, p, m, **opts))
    comm_s = compute_s = None
    if mach is not None:
        comm_s = mach.beta * total / p
        flops = _KIND_FLOPS[info.kind](n)
        compute_s = (
            0.0 if mach.gamma_flops == float("inf")
            else flops / (p * mach.gamma_flops)
        )
    return Prediction(
        name=name,
        kind=info.kind,
        n=n,
        p=p,
        m=float(m),
        machine=mach.name if mach else None,
        total_bytes=total,
        comm_seconds=comm_s,
        compute_seconds=compute_s,
    )
