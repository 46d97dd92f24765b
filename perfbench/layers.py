"""Layers the traced run wraps, and the per-layer metrics it reports.

Layers are named after the ``src/repro`` modules.  Every metric in
:data:`METRICS` states the end-to-end metric and workload it should
move (``moves``); a change that claims a gain in one layer names the
row here that ought to show it.  Counts and seconds are per timed op
(per request on ``service-zipf``).  Seconds add up over threads, so with
16 rank threads a layer's ``busy_s`` or ``wait_s`` can exceed the op's
wall time.
"""

from __future__ import annotations

import statistics
import time

from perfbench.tracer import Target
from repro.faults import RankCrashed

FACTOR_IMPLS = (
    "conflux", "candmc25d", "scalapack2d", "slate2d",
    "qr2d", "caqr25d", "confqr",
)
SCHEDULE = (
    "fetch_rows_piece", "fetch_cols_piece", "scatter_pivot_cols",
    "scatter_rows", "assemble_rows", "reduce_to_layer", "bcast_from",
    "pane_bcast",
)
KERNELS = (
    ("lu_seq", "lu_partial_pivot"),
    ("tournament", "local_candidates"),
    ("tournament", "merge_candidates"),
    ("linalg", "trsm_lower_unit"),
    ("linalg", "trsm_upper"),
    ("tsqr", "householder_qr"),
    ("tsqr", "tsqr"),
    ("tsqr", "apply_qt"),
    ("tsqr", "compact_wy"),
)
COLLECTIVES = ("bcast", "reduce", "allreduce", "allgather")


# -- hooks: counts taken where the work happens ------------------------
def _flops(tracer, args, result, exc):
    tracer.add("kernels.flops", args[1])


def _sent_bytes(tracer, args, result, exc):
    tracer.add("smpi.runtime.Comm.send.bytes", args[2])


def _cache_hit(tracer, args, result, exc):
    if result is not None:
        tracer.add("harness.cache.SweepCache.get.hits", 1)


def _queue_wait(tracer, args, result, exc):
    if isinstance(result, list):
        now = time.perf_counter()
        for job in result:
            tracer.sample("service.queue_wait", now - job.submitted_at)


def _crash(tracer, args, result, exc):
    if isinstance(exc, RankCrashed):
        tracer.add("faults.crashes_fired", 1)
        tracer.sample("faults.crash_at", time.perf_counter())


def _targets() -> list[Target]:
    t = [
        Target(
            f"algorithms.schedule25d.Schedule25D.{m}",
            "repro.algorithms.schedule25d", f"Schedule25D.{m}",
        )
        for m in SCHEDULE
    ]
    t += [
        Target(
            f"algorithms.schedule25d.Rank25D.{m}",
            "repro.algorithms.schedule25d", f"Rank25D.{m}",
        )
        for m in ("panel_op", "trailing_op")
    ]
    t += [
        Target(f"kernels.{mod}.{fn}", f"repro.kernels.{mod}", fn)
        for mod, fn in KERNELS
    ]
    rt = "repro.smpi.runtime"
    t += [
        Target("smpi.runtime.run_spmd", rt, "run_spmd"),
        Target("smpi.runtime.Comm.send", rt, "Comm.send"),
        Target("smpi.runtime.Comm.recv_status", rt, "Comm.recv_status"),
        Target("smpi.runtime.Comm.barrier", rt, "Comm.barrier"),
        Target("kernels.flops", rt, "Comm.compute", _flops, span=False),
    ]
    t += [
        Target(f"smpi.collectives.{c}", "repro.smpi.collectives", c)
        for c in COLLECTIVES
    ]
    t += [
        Target(
            "smpi.volume.VolumeLedger.record_send", "repro.smpi.volume",
            "VolumeLedger.record_send", _sent_bytes,
        ),
        Target(
            "smpi.volume.VolumeLedger.record_recv", "repro.smpi.volume",
            "VolumeLedger.record_recv",
        ),
    ]
    t += [
        Target(
            "smpi.timing.EventTrace", "repro.smpi.timing",
            f"EventTrace.record_{kind}",
        )
        for kind in ("send", "recv", "compute", "sync")
    ]
    t += [
        Target("smpi.timing.simulate", "repro.smpi.timing", "simulate"),
        Target(
            "algorithms.base.verify_factors", "repro.algorithms.base",
            "verify_factors",
        ),
        Target(
            "algorithms.base.verify_qr_factors", "repro.algorithms.base",
            "verify_qr_factors",
        ),
        Target(
            "harness.cache.SweepCache.get", "repro.harness.cache",
            "SweepCache.get", _cache_hit,
        ),
        Target(
            "harness.cache.SweepCache.put", "repro.harness.cache",
            "SweepCache.put",
        ),
        Target(
            "harness.runner.run_experiment", "repro.harness.runner",
            "run_experiment",
        ),
        Target(
            "service.worker.run_factor_job", "repro.service.worker",
            "run_factor_job",
        ),
        Target(
            "service.queue_wait", "repro.service.dispatch",
            "FifoPolicy.get", _queue_wait, span=False,
        ),
        Target(
            "faults.FaultInjector.process_send", "repro.faults",
            "FaultInjector.process_send", _crash,
        ),
    ]
    return t


TARGETS = _targets()

_ALL_CLEAN = "op_p50_s on table2-lu, qr-clock and service-zipf"


def _metrics() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) for every per-layer metric."""
    m = []
    for impl in FACTOR_IMPLS:
        where = "qr-clock" if impl in ("qr2d", "caqr25d", "confqr") else (
            "table2-lu"
        )
        m.append((
            f"algorithms.api.factor.{impl}.p50_s", "s", "lower",
            f"op_p50_s on {where}",
        ))
    moves = "op_p50_s and cpu_s_per_op on table2-lu; none on qr-clock"
    for meth in SCHEDULE:
        base = f"algorithms.schedule25d.Schedule25D.{meth}"
        m.append((f"{base}.calls", "count/op", "lower", moves))
        m.append((f"{base}.self_s", "s/op", "lower", moves))
    for meth in ("panel_op", "trailing_op"):
        m.append((
            f"algorithms.schedule25d.Rank25D.{meth}.self_s", "s/op",
            "lower", moves,
        ))
    moves = "op_p50_s on qr-clock and table2-lu"
    for mod, fn in KERNELS:
        m.append((f"kernels.{mod}.{fn}.calls", "count/op", "lower", moves))
        m.append((f"kernels.{mod}.{fn}.busy_s", "s/op", "lower", moves))
    m.append(("kernels.flops", "flop/op", "lower", moves))
    m += [
        ("smpi.runtime.run_spmd.busy_s", "s/op", "lower", _ALL_CLEAN),
        ("smpi.runtime.Comm.send.calls", "count/op", "lower", _ALL_CLEAN),
        ("smpi.runtime.Comm.send.bytes", "bytes/op", "lower", _ALL_CLEAN),
        ("smpi.runtime.Comm.send.busy_s", "s/op", "lower", _ALL_CLEAN),
        (
            "smpi.runtime.Comm.recv_status.calls", "count/op", "lower",
            _ALL_CLEAN,
        ),
        ("smpi.runtime.Comm.recv_status.wait_s", "s/op", "lower", _ALL_CLEAN),
        ("smpi.runtime.Comm.barrier.wait_s", "s/op", "lower", _ALL_CLEAN),
    ]
    for c in COLLECTIVES:
        m.append((f"smpi.collectives.{c}.calls", "count/op", "lower",
                  _ALL_CLEAN))
        m.append((f"smpi.collectives.{c}.busy_s", "s/op", "lower",
                  _ALL_CLEAN))
    for meth in ("record_send", "record_recv"):
        base = f"smpi.volume.VolumeLedger.{meth}"
        m.append((f"{base}.calls", "count/op", "lower",
                  "op_p50_s on table2-lu"))
        m.append((f"{base}.busy_s", "s/op", "lower", "op_p50_s on table2-lu"))
    moves = "op_p50_s on qr-clock"
    m += [
        ("smpi.timing.EventTrace.calls", "count/op", "lower", moves),
        ("smpi.timing.EventTrace.busy_s", "s/op", "lower", moves),
        ("smpi.timing.simulate.busy_s", "s/op", "lower", moves),
        # Model output of the discrete-event clock, never measured time.
        ("smpi.timing.predicted_makespan_s", "s/op", "lower", moves),
    ]
    moves = "op_p50_s on table2-lu and qr-clock"
    m += [
        ("algorithms.base.verify_factors.busy_s", "s/op", "lower", moves),
        ("algorithms.base.verify_qr_factors.busy_s", "s/op", "lower", moves),
    ]
    moves = "ops_per_s and op_p50_s on service-zipf"
    m += [
        ("harness.cache.SweepCache.get.calls", "count/op", "lower", moves),
        ("harness.cache.SweepCache.get.hits", "count/op", "higher", moves),
        ("harness.cache.SweepCache.get.busy_s", "s/op", "lower", moves),
        ("harness.cache.SweepCache.put.calls", "count/op", "lower", moves),
        ("harness.cache.SweepCache.put.busy_s", "s/op", "lower", moves),
        ("harness.cache.hit_ratio", "ratio", "higher", moves),
        ("harness.runner.run_experiment.calls", "count/op", "lower", moves),
        ("harness.runner.run_experiment.busy_s", "s/op", "lower", moves),
    ]
    moves = "ops_per_s and op_tail_s on service-zipf"
    m += [
        ("service.queue_wait_s", "s", "lower", moves),
        ("service.worker.run_factor_job.calls", "count/op", "lower", moves),
        ("service.worker.run_factor_job.busy_s", "s/op", "lower", moves),
        ("service.served_without_compute_ratio", "ratio", "higher", moves),
        ("service.coalesced", "count/op", "higher", moves),
        ("service.max_queue_depth", "count", "lower", moves),
    ]
    moves = "op_p50_s on chaos-crash; 0 on clean workloads"
    m += [
        ("faults.FaultInjector.process_send.calls", "count/op", "lower",
         moves),
        ("faults.crashes_fired", "count/op", "higher", moves),
        ("faults.crash_to_raise_s", "s", "lower", moves),
        ("trace.overhead_s", "s", "lower",
         "nothing; traced minus untraced op_p50_s"),
    ]
    return m


METRICS = _metrics()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    """Every metric in :data:`METRICS` from one traced phase.

    ``untraced`` and ``traced`` are the two phases' batch lists; the
    ``factor()`` medians come from the untraced one.
    """
    summary = tracer.summary()
    ops = [op for b in traced for op in b.ops]
    n_ops = max(1, len(ops))

    def span(name: str, field: str) -> float:
        row = summary.get(name)
        return row[field] / n_ops if row else 0.0

    out: dict[str, float] = {}
    for impl in FACTOR_IMPLS:
        out[f"algorithms.api.factor.{impl}.p50_s"] = _median(
            op.factor_s[impl]
            for b in untraced for op in b.ops if impl in op.factor_s
        )
    for meth in SCHEDULE:
        base = f"algorithms.schedule25d.Schedule25D.{meth}"
        out[f"{base}.calls"] = span(base, "calls")
        out[f"{base}.self_s"] = span(base, "self_s")
    for meth in ("panel_op", "trailing_op"):
        base = f"algorithms.schedule25d.Rank25D.{meth}"
        out[f"{base}.self_s"] = span(base, "self_s")
    for mod, fn in KERNELS:
        base = f"kernels.{mod}.{fn}"
        out[f"{base}.calls"] = span(base, "calls")
        out[f"{base}.busy_s"] = span(base, "busy_s")
    total = tracer.total
    out["kernels.flops"] = total("kernels.flops") / n_ops
    rt = "smpi.runtime"
    out[f"{rt}.run_spmd.busy_s"] = span(f"{rt}.run_spmd", "busy_s")
    out[f"{rt}.Comm.send.calls"] = span(f"{rt}.Comm.send", "calls")
    out[f"{rt}.Comm.send.bytes"] = total(f"{rt}.Comm.send.bytes") / n_ops
    out[f"{rt}.Comm.send.busy_s"] = span(f"{rt}.Comm.send", "busy_s")
    out[f"{rt}.Comm.recv_status.calls"] = span(
        f"{rt}.Comm.recv_status", "calls"
    )
    out[f"{rt}.Comm.recv_status.wait_s"] = span(
        f"{rt}.Comm.recv_status", "busy_s"
    )
    out[f"{rt}.Comm.barrier.wait_s"] = span(f"{rt}.Comm.barrier", "busy_s")
    for c in COLLECTIVES:
        out[f"smpi.collectives.{c}.calls"] = span(
            f"smpi.collectives.{c}", "calls"
        )
        out[f"smpi.collectives.{c}.busy_s"] = span(
            f"smpi.collectives.{c}", "busy_s"
        )
    for meth in ("record_send", "record_recv"):
        base = f"smpi.volume.VolumeLedger.{meth}"
        out[f"{base}.calls"] = span(base, "calls")
        out[f"{base}.busy_s"] = span(base, "busy_s")
    out["smpi.timing.EventTrace.calls"] = span(
        "smpi.timing.EventTrace", "calls"
    )
    out["smpi.timing.EventTrace.busy_s"] = span(
        "smpi.timing.EventTrace", "busy_s"
    )
    out["smpi.timing.simulate.busy_s"] = span("smpi.timing.simulate", "busy_s")
    out["smpi.timing.predicted_makespan_s"] = sum(
        b.extra.get("predicted_s", 0.0) for b in traced
    ) / n_ops
    for fn in ("verify_factors", "verify_qr_factors"):
        out[f"algorithms.base.{fn}.busy_s"] = span(
            f"algorithms.base.{fn}", "busy_s"
        )
    cache = "harness.cache.SweepCache"
    gets = summary.get(f"{cache}.get", {}).get("calls", 0)
    hits = total(f"{cache}.get.hits")
    out[f"{cache}.get.calls"] = span(f"{cache}.get", "calls")
    out[f"{cache}.get.hits"] = hits / n_ops
    out[f"{cache}.get.busy_s"] = span(f"{cache}.get", "busy_s")
    out[f"{cache}.put.calls"] = span(f"{cache}.put", "calls")
    out[f"{cache}.put.busy_s"] = span(f"{cache}.put", "busy_s")
    out["harness.cache.hit_ratio"] = hits / gets if gets else 0.0
    runner = "harness.runner.run_experiment"
    out[f"{runner}.calls"] = span(runner, "calls")
    out[f"{runner}.busy_s"] = span(runner, "busy_s")
    out["service.queue_wait_s"] = _median(tracer.samples["service.queue_wait"])
    job = "service.worker.run_factor_job"
    out[f"{job}.calls"] = span(job, "calls")
    out[f"{job}.busy_s"] = span(job, "busy_s")
    requests = sum(b.counts.get("requests", 0) for b in traced)
    served = sum(b.counts.get("served_without_compute", 0) for b in traced)
    out["service.served_without_compute_ratio"] = (
        served / requests if requests else 0.0
    )
    out["service.coalesced"] = sum(
        b.extra.get("coalesced", 0) for b in traced
    ) / n_ops
    out["service.max_queue_depth"] = max(
        (b.extra.get("max_queue_depth", 0) for b in traced), default=0
    )
    out["faults.FaultInjector.process_send.calls"] = span(
        "faults.FaultInjector.process_send", "calls"
    )
    out["faults.crashes_fired"] = total("faults.crashes_fired") / n_ops
    out["faults.crash_to_raise_s"] = _median(
        op.extra["crash_to_raise_s"]
        for op in ops if "crash_to_raise_s" in op.extra
    )
    out["trace.overhead_s"] = _median(op.latency_s for op in ops) - _median(
        op.latency_s for b in untraced for op in b.ops
    )
    return out
