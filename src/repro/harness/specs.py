"""Built-in sweep tasks and the named spec registry.

Every canned experiment of the reproduction — the Table 2 cells, the
Figure 6a/6b scaling sweeps, the Figure 7 reduction grid, the lower
bound gap study and the blocking-parameter ablation — is expressed
here as a :class:`~repro.harness.sweep.SweepSpec` over one of the
registered tasks:

=================  =======================================================
task               one point computes
=================  =======================================================
``measured``       a simulator run of one implementation at (N, P) plus
                   its analytic model (a Table 2 cell / Figure 6 sample)
``model``          one implementation's Table 2 model at (N, P)
``reduction``      best-vs-second-best reduction at (N, P) (Figure 7)
``lower_bound_gap``  measured COnfLUX volume vs the Section 6 bound
``block_size``     a COnfLUX run at one blocking parameter v (ablation)
``qr_lower_bound_gap``  measured 2.5D CAQR volume vs the QR I/O bound
``chaos``          one factorization under a canned fault-injection
                   plan, its outcome classified against ground truth
=================  =======================================================

The QR family (``qr2d``, ``caqr25d``) rides the same ``measured`` task;
its sweeps are ``qr-strong``, ``qr-weak`` and ``qr-lower-bound-gap``.

``SPECS`` maps the public sweep names (``python -m repro sweep --list``)
to zero-argument factories producing the default instance of each
experiment; the factories also take parameters so the harness functions
in :mod:`repro.harness.experiments` can build reduced-scale variants.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.harness.sweep import SweepSpec, task

# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------


@task("measured", schema_version=2)
def measured_task(
    impl: str,
    n: int,
    p: int,
    seed: int = 0,
    v: int | None = None,
    nb: int | None = None,
    machine: str | None = None,
) -> dict:
    """Factor an N x N matrix with ``impl`` on ``p`` simulated ranks.

    ``machine`` (a preset name) additionally runs the discrete-event
    clock, adding predicted seconds to the row.  Points that do not set
    it leave it out of their parameters, so their cache keys do not
    depend on it.
    """
    from repro.harness.runner import run_experiment

    rec = run_experiment(
        impl, n, p, seed=seed, v=v, nb=nb, machine=machine
    )
    return rec.to_row()


@task("model")
def model_task(
    impl: str, n: int, p: int, leading_only: bool = False
) -> dict:
    """One implementation's Table 2 model at (N, P)."""
    from repro.models.prediction import sweep_models

    vol = sweep_models(n, p, leading_only=leading_only)[impl]
    return {
        "impl": impl,
        "n": n,
        "p": p,
        "total_bytes": vol,
        "per_rank_bytes": vol / p,
        "model_gb": vol / 1e9,
    }


@task("reduction")
def reduction_task(n: int, p: int, leading_only: bool = True) -> dict:
    """Figure 7: reduction of the best model vs the second best."""
    from repro.models.prediction import reduction_vs_second_best

    point = reduction_vs_second_best(n, p, leading_only=leading_only)
    best_vol = min(point.volumes.values())
    return {
        "n": n,
        "p": p,
        "best": point.best,
        "second_best": point.second_best,
        "reduction": point.reduction,
        "conflux_vs_best": point.volumes["conflux"] / best_vol,
    }


@task("lower_bound_gap")
def lower_bound_gap_task(n: int, p: int, seed: int = 0) -> dict:
    """Section 6: measured COnfLUX volume over the parallel bound."""
    from repro.harness.runner import run_experiment
    from repro.models.prediction import algorithmic_memory
    from repro.theory.bounds import lu_parallel_lower_bound_leading

    rec = run_experiment("conflux", n, p, seed=seed)
    g, _, c = rec.grid
    m = algorithmic_memory(n, g * g * c, c)
    bound_total = (
        lu_parallel_lower_bound_leading(n, m, g * g * c) * (g * g * c)
    )
    return {
        "n": n,
        "p": p,
        "grid": list(rec.grid),
        "measured_elements": rec.measured_bytes / 8,
        "bound_elements": bound_total,
        "gap": (rec.measured_bytes / 8) / bound_total,
    }


@task("qr_lower_bound_gap")
def qr_lower_bound_gap_task(n: int, p: int, seed: int = 0) -> dict:
    """Measured 2.5D CAQR volume over the parallel QR I/O bound."""
    from repro.harness.runner import run_experiment
    from repro.models.prediction import algorithmic_memory
    from repro.theory.bounds import qr_parallel_lower_bound

    rec = run_experiment("caqr25d", n, p, seed=seed)
    g, _, c = rec.grid
    active = g * g * c
    m = algorithmic_memory(n, active, c)
    bound_total = qr_parallel_lower_bound(n, m, active) * active
    return {
        "n": n,
        "p": p,
        "grid": list(rec.grid),
        "measured_elements": rec.measured_bytes / 8,
        "bound_elements": bound_total,
        "gap": (rec.measured_bytes / 8) / bound_total,
    }


@task("qr_confqr_gap")
def qr_confqr_gap_task(
    n: int, g: int, c: int, v: int = 4, seed: int = 0,
) -> dict:
    """COnfQR vs 2.5D CAQR at one explicit [G, G, c] grid.

    Reports measured vs exact-model COnfQR volume, the
    factorization-only slice (explicit-Q assembly phases carry a
    ``q_`` prefix in the ledger), CAQR at the same grid, and the gap
    over the parallel QR I/O lower bound.  Swept over grids of equal
    P, the COnfQR total keeps falling as c grows while CAQR's rises —
    the optimum moves past c = 2.
    """
    import numpy as np

    from repro.algorithms import factor
    from repro.models.costmodels import (
        caqr25d_total_bytes,
        confqr_total_bytes,
    )
    from repro.models.prediction import algorithmic_memory
    from repro.theory.bounds import qr_parallel_lower_bound

    p = g * g * c
    a = np.random.default_rng(seed).standard_normal((n, n))
    confqr = factor("confqr", a, grid=(g, g, c), v=v)
    caqr = factor("caqr25d", a, grid=(g, g, c), v=v)
    measured = confqr.volume.total_bytes
    factor_only = sum(
        nbytes
        for phase, nbytes in confqr.volume.phase_bytes.items()
        if not phase.startswith("q_")
    )
    model = confqr_total_bytes(n, p, c=c, v=v, grid_rows=g)
    m = algorithmic_memory(n, p, c)
    bound_total = qr_parallel_lower_bound(n, m, p) * p
    return {
        "n": n,
        "g": g,
        "c": c,
        "p": p,
        "v": v,
        "confqr_bytes": measured,
        "confqr_model_bytes": model,
        "model_error": abs(measured - model) / model if model else 0.0,
        "confqr_factor_bytes": factor_only,
        "caqr25d_bytes": caqr.volume.total_bytes,
        "caqr25d_model_bytes": caqr25d_total_bytes(
            n, p, c=c, v=v, grid_rows=g
        ),
        "volume_ratio": caqr.volume.total_bytes / measured if measured
        else 1.0,
        "gap": (measured / 8) / bound_total,
    }


@task("block_size")
def block_size_task(n: int, g: int, c: int, v: int, seed: int = 3) -> dict:
    """Blocking-parameter ablation: one COnfLUX run at block size v."""
    import numpy as np

    from repro.algorithms import factor

    a = np.random.default_rng(seed).standard_normal((n, n))
    res = factor("conflux", a, grid=(g, g, c), v=v)
    return {
        "v": v,
        "n": n,
        "steps": -(-n // v),
        "total_bytes": res.volume.total_bytes,
        "bcast_a00": res.volume.phase_bytes["bcast_a00"],
        "tournament": res.volume.phase_bytes["tournament"],
    }


#: Outcome labels of one ``chaos`` point.
CHAOS_DETECTED = "detected"
CHAOS_RECOVERED = "recovered"
CHAOS_SILENT = "silent-corruption"
CHAOS_NOT_INJECTED = "not-injected"

#: Fault classes the ``chaos-*`` sweeps span (mirrors
#: ``repro.faults.ACTIONS``; a test keeps the two aligned without an
#: import at module scope).
CHAOS_FAULT_CLASSES = (
    "delay", "drop", "duplicate", "reorder", "bitflip", "crash",
)


@task("chaos", schema_version=2)
def chaos_task(
    impl: str,
    n: int,
    p: int,
    fault_class: str,
    fault_seed: int = 0,
    seed: int = 0,
    v: int | None = None,
    timeout_s: float = 2.0,
    residual_tol: float = 1e-8,
) -> dict:
    """One fault-injection run: factor under a canned one-rule plan
    and classify the outcome against ground truth.

    Outcomes:

    * ``detected`` — the run raised (rank crash surfaced as
      :class:`RankFailure`, a dropped message surfaced as
      :class:`DeadlockError`, corruption caught by the assembler's
      own verification, ...);
    * ``recovered`` — the run completed, at least one fault fired, and
      the true residual is within ``residual_tol`` (delays and
      duplicates are absorbed);
    * ``silent-corruption`` — the run completed but the factors are
      wrong (a bit flip slipped past structural checks);
    * ``not-injected`` — the run completed correctly but the plan's
      rule never fired, so the point says nothing about tolerance.

    ``fault_log_digest`` hashes the canonical fault log, so comparing
    two rows compares the *entire* injection history, not just counts.
    """
    import hashlib

    import numpy as np

    from repro.algorithms import factor
    from repro.algorithms.base import FactorVerificationError
    from repro.faults import canned_plan
    from repro.harness.cache import canonical_json
    from repro.smpi import SmpiError

    plan = canned_plan(fault_class, seed=fault_seed)
    a = np.random.default_rng(seed).standard_normal((n, n))
    row = {
        "impl": impl,
        "n": n,
        "p": p,
        "fault_class": fault_class,
        "fault_seed": fault_seed,
        "outcome": "",
        "detail": "",
        "residual": None,
        "n_injected": None,
        "by_action": None,
        "fault_log_digest": None,
    }
    try:
        res = factor(
            impl, a, p, v=v, faults=plan, timeout_s=timeout_s
        )
    except (SmpiError, FactorVerificationError) as exc:
        # The injector dies with the run, so the log is unreachable
        # here; the exception's first line stands in for it.  (Only
        # the first line: the blocked-rank census below it is a
        # diagnostic snapshot taken while watchdogs race, not part of
        # the deterministic outcome.)
        row["outcome"] = CHAOS_DETECTED
        row["detail"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
        return row
    faults_report = res.volume.faults or {
        "n_injected": 0, "by_action": {}, "events": [],
    }
    row["residual"] = float(res.residual)
    row["n_injected"] = faults_report["n_injected"]
    row["by_action"] = faults_report["by_action"]
    row["fault_log_digest"] = hashlib.blake2b(
        canonical_json(faults_report["events"]).encode(),
        digest_size=16,
    ).hexdigest()
    if res.residual > residual_tol:
        row["outcome"] = CHAOS_SILENT
        row["detail"] = (
            f"residual {res.residual:.2e} > {residual_tol:.1e} "
            "but no invariant tripped"
        )
    elif faults_report["n_injected"] == 0:
        row["outcome"] = CHAOS_NOT_INJECTED
    else:
        row["outcome"] = CHAOS_RECOVERED
    return row


# --------------------------------------------------------------------------
# spec factories
# --------------------------------------------------------------------------

#: Implementations measured in Table 2 (import-cycle-free copy check in
#: tests keeps this aligned with runner.IMPLEMENTATION_NAMES).
DEFAULT_IMPLS = ("scalapack2d", "slate2d", "candmc25d", "conflux")

#: Reduced-scale stand-ins for the paper's Table 2 (N, P) cells — the
#: simulator-scale substitution DESIGN.md documents.
TABLE2_MEASURED_POINTS = ((128, 16), (256, 16))

#: The paper's exact Table 2 cells (model evaluation).
TABLE2_PAPER_POINTS = (
    (4096, 64),
    (4096, 1024),
    (16384, 64),
    (16384, 1024),
)


def _np_axis(points: Sequence[tuple[int, int]]) -> dict:
    """Axis over (N, P) pairs, unpacked into n/p by ``_split_np``."""
    return {"np": [list(np_pair) for np_pair in points]}


def _split_np(params: dict) -> dict:
    np_pair = params.pop("np")
    params["n"], params["p"] = int(np_pair[0]), int(np_pair[1])
    return params


def table2_measured_spec(
    points: Sequence[tuple[int, int]] = TABLE2_MEASURED_POINTS,
    impls: Sequence[str] = DEFAULT_IMPLS,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="table2",
        task="measured",
        axes={**_np_axis(points), "impl": list(impls)},
        fixed={"seed": seed},
        derive=_split_np,
        description=(
            "Table 2, measured: simulator runs vs analytic models "
            "(prediction %) at reduced (N, P)"
        ),
    )


def table2_models_spec(
    points: Sequence[tuple[int, int]] = TABLE2_PAPER_POINTS,
    impls: Sequence[str] = DEFAULT_IMPLS,
) -> SweepSpec:
    return SweepSpec(
        name="table2-models",
        task="model",
        axes={**_np_axis(points), "impl": list(impls)},
        derive=_split_np,
        description=(
            "Table 2, modeled: the paper's exact (N, P) cells through "
            "our Table 2 models"
        ),
    )


def fig6a_measured_spec(
    n: int = 256,
    p_values: Sequence[int] = (4, 8, 16, 32, 64),
    impls: Sequence[str] = DEFAULT_IMPLS,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="fig6a",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"n": n, "seed": seed},
        description=(
            "Figure 6a, measured: per-rank volume vs P at fixed N "
            "(strong scaling)"
        ),
    )


def fig6a_model_spec(
    n: int = 16384,
    p_values: Sequence[int] = (16, 64, 256, 1024, 4096, 16384),
    impls: Sequence[str] = DEFAULT_IMPLS,
) -> SweepSpec:
    return SweepSpec(
        name="fig6a-model",
        task="model",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"n": n},
        description=(
            "Figure 6a, model curves at the paper's N = 16,384"
        ),
    )


def _weak_scaling_measured_n(p: int, n0: int) -> int:
    from repro.models.prediction import weak_scaling_n

    n = max(weak_scaling_n(p, n0), 16)
    return int(math.ceil(n / 8) * 8)  # keep blocks tidy


def fig6b_measured_spec(
    n0: int = 64,
    p_values: Sequence[int] = (4, 8, 27, 64),
    impls: Sequence[str] = DEFAULT_IMPLS,
    seed: int = 0,
) -> SweepSpec:
    def derive(params: dict) -> dict:
        params["n"] = _weak_scaling_measured_n(params["p"], n0)
        return params

    return SweepSpec(
        name="fig6b",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"seed": seed},
        derive=derive,
        description=(
            "Figure 6b, measured: weak scaling N = N0 P^(1/3) "
            f"(N0 = {n0})"
        ),
    )


def fig6b_model_spec(
    n0: int = 3200,
    p_values: Sequence[int] = (8, 64, 512, 4096, 32768),
    impls: Sequence[str] = DEFAULT_IMPLS,
) -> SweepSpec:
    def derive(params: dict) -> dict:
        from repro.models.prediction import weak_scaling_n

        params["n"] = weak_scaling_n(params["p"], n0)
        return params

    return SweepSpec(
        name="fig6b-model",
        task="model",
        axes={"p": list(p_values), "impl": list(impls)},
        derive=derive,
        description=(
            f"Figure 6b, model curves at the paper's N0 = {n0}"
        ),
    )


def fig7_spec(
    n_values: Sequence[int] = (4096, 8192, 16384),
    p_values: Sequence[int] = (
        64, 256, 1024, 4096, 16384, 65536, 262144,
    ),
    leading_only: bool = True,
) -> SweepSpec:
    return SweepSpec(
        name="fig7",
        task="reduction",
        axes={"n": list(n_values), "p": list(p_values)},
        fixed={"leading_only": leading_only},
        description=(
            "Figure 7: predicted reduction vs the second-best "
            "implementation over the (P, N) grid"
        ),
    )


def lower_bound_gap_spec(
    n_values: Sequence[int] = (64, 128, 256),
    p: int = 16,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="lower-bound-gap",
        task="lower_bound_gap",
        axes={"n": list(n_values)},
        fixed={"p": p, "seed": seed},
        description=(
            "Section 6: measured COnfLUX volume vs the parallel I/O "
            "lower bound"
        ),
    )


def block_size_spec(
    n: int = 128,
    g: int = 2,
    c: int = 2,
    v_values: Sequence[int] = (2, 4, 8, 16, 32),
    seed: int = 3,
) -> SweepSpec:
    return SweepSpec(
        name="ablation-block-size",
        task="block_size",
        axes={"v": list(v_values)},
        fixed={"n": n, "g": g, "c": c, "seed": seed},
        description=(
            "Ablation: COnfLUX volume vs the blocking parameter v "
            "(Section 7.2)"
        ),
    )


#: The QR family measured through the shared ``measured`` task
#: (import-cycle-free copy check in tests keeps this aligned with
#: runner.QR_IMPLEMENTATION_NAMES, like DEFAULT_IMPLS above).
QR_IMPLS = ("qr2d", "caqr25d", "confqr")


def qr_strong_scaling_spec(
    n: int = 96,
    p_values: Sequence[int] = (4, 8, 16),
    impls: Sequence[str] = QR_IMPLS,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="qr-strong",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"n": n, "seed": seed},
        description=(
            "QR strong scaling: per-rank volume vs P at fixed N "
            "(2D Householder vs 2.5D CAQR)"
        ),
    )


def qr_weak_scaling_spec(
    n0: int = 32,
    p_values: Sequence[int] = (4, 8, 27),
    impls: Sequence[str] = QR_IMPLS,
    seed: int = 0,
) -> SweepSpec:
    def derive(params: dict) -> dict:
        params["n"] = _weak_scaling_measured_n(params["p"], n0)
        return params

    return SweepSpec(
        name="qr-weak",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"seed": seed},
        derive=derive,
        description=(
            f"QR weak scaling: N = N0 P^(1/3) (N0 = {n0}), 2D "
            "Householder vs 2.5D CAQR"
        ),
    )


def qr_lower_bound_gap_spec(
    n_values: Sequence[int] = (48, 64, 96),
    p: int = 16,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="qr-lower-bound-gap",
        task="qr_lower_bound_gap",
        axes={"n": list(n_values)},
        fixed={"p": p, "seed": seed},
        description=(
            "Measured 2.5D CAQR volume vs the parallel QR I/O lower "
            "bound (constant-factor gap)"
        ),
    )


def qr_confqr_gap_spec(
    gc_points: Sequence[tuple[int, int]] = ((8, 1), (4, 4), (2, 16)),
    n: int = 48,
    v: int = 4,
    seed: int = 0,
) -> SweepSpec:
    def split_gc(params: dict) -> dict:
        gc = params.pop("gc")
        params["g"], params["c"] = int(gc[0]), int(gc[1])
        return params

    return SweepSpec(
        name="qr-confqr-gap",
        task="qr_confqr_gap",
        axes={"gc": [list(gc) for gc in gc_points]},
        fixed={"n": n, "v": v, "seed": seed},
        derive=split_gc,
        description=(
            "COnfQR vs 2.5D CAQR over equal-P [G, G, c] grids: "
            "measured vs exact model, factor-only slice, QR bound "
            "gap — the optimum moves past c = 2"
        ),
    )


#: Machine presets the ``*-time`` sweeps predict under (two, so the
#: α-β sensitivity is visible point by point).
TIME_MACHINES = ("daint-xc50", "summit")


def table2_time_spec(
    points: Sequence[tuple[int, int]] = TABLE2_MEASURED_POINTS,
    impls: Sequence[str] = DEFAULT_IMPLS,
    machines: Sequence[str] = TIME_MACHINES,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="table2-time",
        task="measured",
        axes={
            **_np_axis(points),
            "impl": list(impls),
            "machine": list(machines),
        },
        fixed={"seed": seed},
        derive=_split_np,
        description=(
            "Table 2 grid under the discrete-event clock: predicted "
            "seconds (per rank, per phase) on each machine preset"
        ),
    )


def qr_strong_time_spec(
    n: int = 96,
    p_values: Sequence[int] = (4, 8, 16),
    impls: Sequence[str] = QR_IMPLS,
    machines: Sequence[str] = TIME_MACHINES,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="qr-strong-time",
        task="measured",
        axes={
            "p": list(p_values),
            "impl": list(impls),
            "machine": list(machines),
        },
        fixed={"n": n, "seed": seed},
        description=(
            "QR strong scaling under the discrete-event clock: "
            "predicted seconds vs P on each machine preset"
        ),
    )


def chaos_lu_spec(
    n: int = 64,
    p: int = 8,
    fault_classes: Sequence[str] = CHAOS_FAULT_CLASSES,
    fault_seeds: Sequence[int] = (0, 1, 2),
    seed: int = 0,
    timeout_s: float = 2.0,
) -> SweepSpec:
    return SweepSpec(
        name="chaos-lu",
        task="chaos",
        axes={
            "fault_class": list(fault_classes),
            "fault_seed": list(fault_seeds),
        },
        fixed={
            "impl": "conflux",
            "n": n,
            "p": p,
            "seed": seed,
            "timeout_s": timeout_s,
        },
        description=(
            "Chaos grid: COnfLUX under each canned fault class x "
            "seed; outcomes classified against ground truth"
        ),
    )


def chaos_qr_spec(
    n: int = 48,
    p: int = 8,
    fault_classes: Sequence[str] = CHAOS_FAULT_CLASSES,
    fault_seeds: Sequence[int] = (0, 1, 2),
    seed: int = 0,
    timeout_s: float = 2.0,
) -> SweepSpec:
    return SweepSpec(
        name="chaos-qr",
        task="chaos",
        axes={
            "fault_class": list(fault_classes),
            "fault_seed": list(fault_seeds),
        },
        fixed={
            "impl": "caqr25d",
            "n": n,
            "p": p,
            "seed": seed,
            "timeout_s": timeout_s,
        },
        description=(
            "Chaos grid: 2.5D CAQR under each canned fault class x "
            "seed; outcomes classified against ground truth"
        ),
    )


#: Public sweep names: ``python -m repro sweep --run <name>``.
SPECS = {
    "table2": table2_measured_spec,
    "table2-models": table2_models_spec,
    "fig6a": fig6a_measured_spec,
    "fig6a-model": fig6a_model_spec,
    "fig6b": fig6b_measured_spec,
    "fig6b-model": fig6b_model_spec,
    "fig7": fig7_spec,
    "lower-bound-gap": lower_bound_gap_spec,
    "ablation-block-size": block_size_spec,
    "table2-time": table2_time_spec,
    "qr-strong": qr_strong_scaling_spec,
    "qr-strong-time": qr_strong_time_spec,
    "qr-weak": qr_weak_scaling_spec,
    "qr-lower-bound-gap": qr_lower_bound_gap_spec,
    "qr-confqr-gap": qr_confqr_gap_spec,
    "chaos-lu": chaos_lu_spec,
    "chaos-qr": chaos_qr_spec,
}


def named_spec(name: str) -> SweepSpec:
    """Instantiate a registry spec by name (KeyError lists options)."""
    try:
        factory = SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {', '.join(sorted(SPECS))}"
        ) from None
    return factory()
