"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload table2-lu --seed 1 --seconds 15 \\
        --trace 0

With ``--trace 0`` the timed loop runs untraced and the last line of
standard output carries the end-to-end metrics.  With ``--trace 1`` an
untraced phase and a traced phase each get half the seconds; the last
line carries the per-layer metrics, the spans go to
``.perfbench/trace-<workload>-seed<seed>.json`` as Chrome trace events,
and the traced and untraced runs must agree on every count.  Above the
last line the run prints readable blocks: environment, end-to-end
metrics, deterministic counts and, for a traced run, the layers.  The
exit code is 1 when any output check fails.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit of the end-to-end metrics in the result line, in the
#: order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "comm_bytes_per_rank": "bytes",
}
#: Set-ups measured per run; setup_s takes their median.
SETUP_REPEATS = 3
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


class Phase:
    """Batches of one timed loop with its wall and process CPU time."""

    def __init__(self, batches, wall_s: float, cpu_s: float) -> None:
        self.batches = batches
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.ops = [op for b in batches for op in b.ops]

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def p50(self) -> float:
        return statistics.median(op.latency_s for op in self.ops)


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run batches until ``seconds`` have passed (at least one)."""
    batches = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while not batches or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.op = len(batches)
        batches.append(workload.batch(len(batches), tracer))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    workload.finish(batches)
    return Phase(batches, wall, cpu)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile that
    leaves TAIL_BEYOND samples above it, or None for too few samples."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """All eight end-to-end metrics of one untraced phase."""
    ops = phase.ops
    return {
        "setup_s": setup_s,
        "op_p50_s": phase.p50(),
        "op_tail_s": tail([op.latency_s for op in ops]),
        "ops_per_s": (len(ops) - phase.failed) / phase.wall_s,
        "fail_frac": phase.failed / len(ops),
        "cpu_s_per_op": phase.cpu_s / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "comm_bytes_per_rank": phase.batches[0].bytes_per_rank,
    }


def count_mismatches(workload, warm, phases, traced=None) -> list[str]:
    """Deterministic counts that differ where they must repeat.

    ``traced`` maps each traced batch index to the span calls and hook
    counters the tracer took during it.
    """
    problems = []
    first = phases[0].batches[0].counts
    if workload.same_input:
        expected = [("warm-up", warm)] if warm is not None else []
        for phase in phases:
            expected += [(f"batch {i}", b) for i, b in
                         enumerate(phase.batches)]
        for label, b in expected:
            if b.counts != first:
                problems.append(f"{label}: {b.counts} != {first}")
    if len(phases) == 2:
        for i, (u, t) in enumerate(zip(phases[0].batches,
                                       phases[1].batches)):
            if u.counts != t.counts:
                problems.append(
                    f"batch {i} traced {t.counts} != untraced {u.counts}"
                )
    if traced:
        for i, b in enumerate(phases[1].batches):
            seen = traced.get(i, {}).get("smpi.runtime.Comm.send.bytes", 0)
            if b.sent_bytes is not None and seen != b.sent_bytes:
                problems.append(
                    f"traced batch {i}: tracer saw {seen} bytes sent, "
                    f"ledger {b.sent_bytes}"
                )
            if workload.same_input and traced.get(i) != traced.get(0):
                problems.append(f"traced batch {i}: calls or flops differ")
    return problems


def blas_threads() -> str:
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(workload) -> list[str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"nproc: {len(os.sched_getaffinity(0))} "
        f"(os.cpu_count {os.cpu_count()})",
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')}",
        f"BLAS threads as found: {blas_threads()} "
        f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')})",
        f"reference, context only: {reference_time(workload)}",
    ]


def reference_time(workload) -> str:
    """One caller thread running the plain library call at the
    workload's n; the benchmark leaves BLAS threads as found."""
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(workload.seed).standard_normal(
        (workload.n, workload.n)
    )
    call = {
        "scipy.linalg.lu_factor": scipy.linalg.lu_factor,
        "numpy.linalg.qr": np.linalg.qr,
    }[workload.reference]
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        call(a)
        times.append(time.perf_counter() - t0)
    return (
        f"{workload.reference} n={workload.n}: "
        f"median {statistics.median(times) * 1e3:.3f} ms of 50"
    )


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _START

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(WORKLOADS[args.workload], args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cls, args, import_s: float, workdir: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(args.seed, workdir)
        warm = workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [run_phase(workload, seconds)]
    e2e = end_to_end(phases[0], setup_s)
    tracer = None
    if args.trace:
        from perfbench.layers import TARGETS
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            phases.append(run_phase(workload, seconds, tracer))
        finally:
            tracer.uninstall()

    print(f"== perfbench {cls.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in environment(workload):
        print(f"  {line}")
    print("== end to end (untraced)")
    print(f"  setup_s: {setup_s:.4f} s (imports {import_s:.3f} s + median "
          f"of {len(setups)} set-ups {[round(s, 3) for s in setups]})")
    for name in ("op_p50_s", "ops_per_s", "cpu_s_per_op", "peak_rss_mb",
                 "comm_bytes_per_rank"):
        print(f"  {name}: {e2e[name]:.6g} {END_TO_END[name]}")
    if e2e["op_tail_s"] is None:
        print(f"  op_tail_s: omitted, {len(phases[0].ops)} ops leave no "
              f"percentile with {TAIL_BEYOND} samples beyond it")
    else:
        q, value = e2e["op_tail_s"]
        print(f"  op_tail_s: p{q:.4g} = {value:.6g} s "
              f"({len(phases[0].ops)} ops, {TAIL_BEYOND} beyond)")
    print(f"  fail_frac: {e2e['fail_frac']:.4g} "
          f"({phases[0].failed} of {len(phases[0].ops)})")
    print(f"  cpu/wall: {phases[0].cpu_s / phases[0].wall_s:.3f} "
          f"({phases[0].cpu_s:.2f} s CPU over {phases[0].wall_s:.2f} s)")

    traced = tracer.op_counts() if tracer is not None else None
    mismatches = count_mismatches(workload, warm, phases, traced)
    print("== deterministic counts (first batch)")
    print(f"  {json.dumps(phases[0].batches[0].counts, sort_keys=True)}")
    if traced:
        first = traced.get(0, {})
        print(f"  traced: {sum(first.get('calls', {}).values())} span calls, "
              f"{first.get('kernels.flops', 0):.6g} flops computed, "
              f"{first.get('smpi.runtime.Comm.send.bytes', 0):.6g} bytes "
              f"sent")
    print(f"  repeats compared: {sum(len(p.batches) for p in phases)} "
          f"batches; mismatches: {len(mismatches)}")
    for m in mismatches:
        print(f"  MISMATCH {m}")

    failures = [op.error for p in phases for op in p.ops if not op.ok]
    for error in sorted(set(failures))[:10]:
        print(f"  FAILED {error}")

    if tracer is not None:
        from perfbench.layers import METRICS, per_layer

        values = per_layer(tracer, phases[0].batches, phases[1].batches)
        trace_path = (
            ROOT / ".perfbench" / f"trace-{cls.name}-seed{args.seed}.json"
        )
        tracer.write_chrome_trace(trace_path)
        print(f"== layers (traced, per op; {len(tracer.spans)} spans "
              f"in {trace_path.relative_to(ROOT)})")
        print(f"  tracing overhead: traced {phases[1].p50():.6g} s - "
              f"untraced {phases[0].p50():.6g} s = "
              f"{values['trace.overhead_s']:.6g} s op_p50")
        for name, unit, _, moves in METRICS:
            if values[name]:
                print(f"  {name}: {values[name]:.6g} {unit}  -> {moves}")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in METRICS
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    correct = not failures and not mismatches
    attempted = sum(len(p.ops) for p in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
