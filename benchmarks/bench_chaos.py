"""E15 — fault-injection trajectory: ``BENCH_chaos.json``.

The ``chaos-lu`` / ``chaos-qr`` sweeps factor under every canned fault
class (delay, drop, duplicate, reorder, bitflip, crash) and classify
each run against ground truth: *detected* (a typed error surfaced),
*recovered* (a fault fired, completed, residual within tolerance),
*silent-corruption* (completed wrong) or *not-injected* (the rule
never fired, so the run says nothing).  This benchmark freezes the
per-class detection / recovery / silent-corruption rates — and a
digest of every run's canonical fault log — into a machine-readable
artifact, following the ``BENCH_service.json`` pattern.

Everything but each run's ``observed`` wall clock is a pure function
of the plan seeds: the injector draws every fault decision from a
keyed hash, the runtime schedules deliveries deterministically, and
``--check-determinism`` proves it by executing the whole grid twice
and comparing the artifacts byte for byte.

Also runnable standalone (the CI chaos-smoke job does exactly this)::

    python benchmarks/bench_chaos.py --check-determinism
    python benchmarks/bench_chaos.py --out BENCH_chaos.json
    python benchmarks/bench_chaos.py --validate BENCH_chaos.json
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

SCHEMA_VERSION = 2

#: Sweeps each benchmark run exercises (registry names).
CHAOS_SWEEPS = ("chaos-lu", "chaos-qr")

OUTCOMES = ("detected", "recovered", "silent-corruption", "not-injected")

#: Per-point fields carried into the artifact.  ``elapsed`` and other
#: wall-clock observables are deliberately absent — a point row must
#: be identical across replays of the same seed.
_POINT_FIELDS = (
    "fault_class", "fault_seed", "outcome", "detail", "residual",
    "n_injected", "fault_log_digest",
)


def chaos_runs(
    sweeps=CHAOS_SWEEPS, fault_seeds=(0, 1, 2)
) -> list[dict]:
    """Execute each chaos sweep uncached and summarise per class."""
    from repro.harness.specs import SPECS
    from repro.harness.sweep import run_sweep

    runs = []
    for name in sweeps:
        spec = SPECS[name](fault_seeds=tuple(fault_seeds))
        result = run_sweep(spec, workers=1)
        failed = [r for r in result.results if r.status != "ok"]
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{name}: {len(failed)} point(s) failed to classify; "
                f"first: {first.point.params}: {first.error}"
            )
        points = [
            {field: r.result[field] for field in _POINT_FIELDS}
            for r in result.results
        ]
        points.sort(
            key=lambda p: (p["fault_class"], p["fault_seed"])
        )
        rates: dict[str, dict] = {}
        for point in points:
            cls = rates.setdefault(
                point["fault_class"],
                {outcome: 0 for outcome in OUTCOMES} | {"points": 0},
            )
            cls[point["outcome"]] += 1
            cls["points"] += 1
        runs.append(
            {
                "sweep": name,
                "params": dict(spec.fixed),
                "rates": rates,
                "points": points,
                "observed": {"wall_s": result.elapsed_s},
            }
        )
    return runs


def build_artifact(runs: list[dict]) -> dict:
    """The BENCH_chaos.json document for a set of chaos sweep runs."""
    return {
        "schema_version": SCHEMA_VERSION,
        "sweeps": sorted(r["sweep"] for r in runs),
        "outcomes": list(OUTCOMES),
        "runs": sorted(runs, key=lambda r: r["sweep"]),
    }


def strip_observed(doc: dict) -> dict:
    """The deterministic projection of an artifact: everything except
    each run's measured-wall-clock ``observed`` block.  Two runs over
    the same plan seeds must agree on this byte for byte."""
    out = copy.deepcopy(doc)
    for run in out.get("runs", []):
        run.pop("observed", None)
    return out


def validate_artifact(doc: dict) -> list[str]:
    """Schema check; returns a list of violations (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}"
        )
    for key in ("sweeps", "outcomes", "runs"):
        if not isinstance(doc.get(key), list):
            errors.append(f"missing or non-list field {key!r}")
    if errors:
        return errors
    if not doc["runs"]:
        errors.append("no runs")
    for i, run in enumerate(doc["runs"]):
        sweep = run.get("sweep")
        if sweep not in doc["sweeps"]:
            errors.append(
                f"runs[{i}].sweep {sweep!r} not in the sweeps list"
            )
        points = run.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"runs[{i}].points missing or empty")
            continue
        counted: dict[str, dict[str, int]] = {}
        for j, point in enumerate(points):
            outcome = point.get("outcome")
            if outcome not in OUTCOMES:
                errors.append(
                    f"runs[{i}].points[{j}].outcome {outcome!r} "
                    f"not in {OUTCOMES}"
                )
                continue
            digest = point.get("fault_log_digest")
            injected = point.get("n_injected")
            if outcome == "detected":
                if digest is not None or injected is not None:
                    errors.append(
                        f"runs[{i}].points[{j}]: a detected point "
                        f"has no reachable fault log, yet carries one"
                    )
            else:
                if not isinstance(digest, str) or not digest:
                    errors.append(
                        f"runs[{i}].points[{j}].fault_log_digest: "
                        f"expected hex string, got {digest!r}"
                    )
                if not isinstance(injected, int) or injected < 0:
                    errors.append(
                        f"runs[{i}].points[{j}].n_injected: expected "
                        f"non-negative int, got {injected!r}"
                    )
            cls = counted.setdefault(
                str(point.get("fault_class")),
                {o: 0 for o in OUTCOMES},
            )
            cls[outcome] += 1
        rates = run.get("rates")
        if not isinstance(rates, dict):
            errors.append(f"runs[{i}].rates missing or non-dict")
            continue
        for fault_class, tallied in counted.items():
            stated = rates.get(fault_class)
            if not isinstance(stated, dict):
                errors.append(
                    f"runs[{i}].rates missing class {fault_class!r}"
                )
                continue
            for outcome in OUTCOMES:
                if stated.get(outcome) != tallied[outcome]:
                    errors.append(
                        f"runs[{i}].rates[{fault_class!r}].{outcome} "
                        f"= {stated.get(outcome)!r} but the points "
                        f"tally {tallied[outcome]}"
                    )
            if stated.get("points") != sum(tallied.values()):
                errors.append(
                    f"runs[{i}].rates[{fault_class!r}].points != "
                    f"its outcome tallies"
                )
    return errors


# --------------------------------------------------------------------------
# pytest entry point
# --------------------------------------------------------------------------


def test_chaos_trajectory_artifact(benchmark, show):
    runs = benchmark.pedantic(
        chaos_runs,
        kwargs={"fault_seeds": (0, 1)},
        rounds=1,
        iterations=1,
    )
    doc = build_artifact(runs)
    assert validate_artifact(doc) == []
    from repro.harness import format_table

    rows = [
        {
            "sweep": run["sweep"],
            "fault_class": fault_class,
            "detected": cls["detected"],
            "recovered": cls["recovered"],
            "silent": cls["silent-corruption"],
            "not_injected": cls["not-injected"],
        }
        for run in doc["runs"]
        for fault_class, cls in sorted(run["rates"].items())
    ]
    show(format_table(
        rows,
        [
            ("sweep", "sweep"),
            ("fault_class", "fault class"),
            ("detected", "detected"),
            ("recovered", "recovered"),
            ("silent", "silent corruption"),
            ("not_injected", "not injected"),
        ],
        title="Chaos trajectory (outcomes per fault class)",
    ))
    for run in doc["runs"]:
        # a plan whose rule never fired must leave the run clean, and
        # is never counted as a recovery
        for point in run["points"]:
            if point["n_injected"] == 0:
                assert point["outcome"] == "not-injected"
            if point["outcome"] == "recovered":
                assert point["n_injected"] > 0
        if run["sweep"] == "chaos-lu":
            # pure delays never corrupt values; lost messages must
            # surface as typed errors, never as silent corruption
            assert run["rates"]["delay"]["recovered"] \
                == run["rates"]["delay"]["points"]
            assert run["rates"]["drop"]["detected"] \
                == run["rates"]["drop"]["points"]


# --------------------------------------------------------------------------
# standalone CLI (used by the CI chaos-smoke job)
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="generate / validate the BENCH_chaos.json artifact"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="PATH",
                      help="run the chaos sweeps and write the artifact")
    mode.add_argument("--validate", metavar="PATH",
                      help="schema-check an existing artifact")
    mode.add_argument("--check-determinism", action="store_true",
                      help="execute the grid twice and require "
                           "identical fault logs and outcomes")
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="fault seeds per class (default 3)",
    )
    args = parser.parse_args(argv)
    fault_seeds = tuple(range(args.seeds))

    if args.validate:
        with open(args.validate) as fh:
            doc = json.load(fh)
        errors = validate_artifact(doc)
        if errors:
            for err in errors:
                print(f"INVALID: {err}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid ({len(doc['runs'])} sweeps, "
            f"{sum(len(r['points']) for r in doc['runs'])} points)"
        )
        return 0

    if args.check_determinism:
        first = strip_observed(
            build_artifact(chaos_runs(fault_seeds=fault_seeds))
        )
        second = strip_observed(
            build_artifact(chaos_runs(fault_seeds=fault_seeds))
        )
        blob1 = json.dumps(first, sort_keys=True)
        blob2 = json.dumps(second, sort_keys=True)
        if blob1 != blob2:
            print(
                "NON-DETERMINISTIC: two executions of the chaos grid "
                "disagree",
                file=sys.stderr,
            )
            for run1, run2 in zip(first["runs"], second["runs"]):
                for p1, p2 in zip(run1["points"], run2["points"]):
                    if p1 != p2:
                        print(
                            f"  {run1['sweep']} "
                            f"{p1['fault_class']}/{p1['fault_seed']}: "
                            f"{p1} != {p2}",
                            file=sys.stderr,
                        )
            return 1
        n_points = sum(len(r["points"]) for r in first["runs"])
        print(
            f"deterministic: {n_points} chaos points replayed "
            f"identically (fault logs and outcomes)"
        )
        return 0

    doc = build_artifact(chaos_runs(fault_seeds=fault_seeds))
    errors = validate_artifact(doc)
    if errors:
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {sum(len(r['points']) for r in doc['runs'])} chaos "
        f"points to {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
