"""E7-E9 — the QR workload: 2D Householder vs 2.5D CAQR scaling and
the QR I/O lower-bound gap.

Three checks:

* strong scaling: the 2D baseline's per-rank volume grows with P while
  CAQR's tree schedule tracks its exact per-step model (prediction %
  within a few points, like Table 2's COnfLUX column);
* replication: at equal P, a replicated [G, G, c] CAQR grid moves
  fewer bytes than the 2D Householder baseline — the 2.5D promise
  carried over from LU to QR;
* lower bound: measured CAQR volume stays within a small constant
  factor (<= 4x, observed ~1.1-1.3x) of the parallel QR bound
  4 N^3 / (3 P sqrt(M)), and the finite-N overhead shrinks as N grows.
"""

import numpy as np
import pytest

from repro.harness import (
    format_table,
    qr_confqr_gap,
    qr_lower_bound_gap,
    qr_strong_scaling,
)


def test_qr_strong_scaling_prediction(benchmark, show, sweep_cache):
    rows = benchmark.pedantic(
        qr_strong_scaling,
        kwargs={"n": 96, "p_values": (4, 8, 16), "cache": sweep_cache},
        rounds=1,
        iterations=1,
    )
    show(format_table(
        rows,
        [
            ("impl", "impl"),
            ("p", "P"),
            ("grid", "grid"),
            ("per_rank_bytes", "per-rank [B]"),
            ("prediction_pct", "prediction %"),
        ],
        title="QR strong scaling, N=96 (measured vs per-step models)",
    ))
    for row in rows:
        assert row["residual"] < 1e-10
        assert 90.0 < row["prediction_pct"] < 115.0
    by_impl = {}
    for row in rows:
        by_impl.setdefault(row["impl"], []).append(row)
    qr2d = sorted(by_impl["qr2d"], key=lambda r: r["p"])
    # The 2D baseline's total volume grows ~ sqrt(P).
    assert qr2d[-1]["total_bytes"] > qr2d[0]["total_bytes"]


def test_caqr_grid_choice_beats_2d_baseline(benchmark, show):
    """Offered 16 ranks, a [2, 2, 2] CAQR grid (8 active — the
    Processor Grid Optimization move: disable ranks for less traffic)
    moves ~40% fewer bytes than the 2D Householder baseline using all
    16: leading terms N^2 (Gc + 2G)/2 = 4 N^2 vs N^2 (Pc + 2Pr)/2 =
    6 N^2."""
    from repro.algorithms import factor

    def run():
        a = np.random.default_rng(7).standard_normal((64, 64))
        caqr = factor("caqr25d", a, 16, grid=(2, 2, 2), v=4)
        qr2d = factor("qr2d", a, 16, grid=(4, 4), nb=4)
        return caqr, qr2d

    caqr, qr2d = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        f"P=16, N=64: caqr25d[2,2,2] {caqr.volume.total_bytes:,} B vs "
        f"qr2d[4,4] {qr2d.volume.total_bytes:,} B "
        f"({qr2d.volume.total_bytes / caqr.volume.total_bytes:.2f}x)"
    )
    assert caqr.volume.total_bytes < qr2d.volume.total_bytes


def test_qr_gap_within_constant_of_bound(benchmark, show, sweep_cache):
    rows = benchmark.pedantic(
        qr_lower_bound_gap,
        kwargs={"n_values": (48, 64, 96), "p": 16,
                "cache": sweep_cache},
        rounds=1,
        iterations=1,
    )
    show(format_table(
        rows,
        [
            ("n", "N"),
            ("grid", "grid"),
            ("measured_elements", "measured [el]"),
            ("bound_elements", "bound [el]"),
            ("gap", "measured/bound"),
        ],
        title="Measured 2.5D CAQR vs the parallel QR I/O lower bound",
    ))
    for row in rows:
        assert row["gap"] > 1.0  # no schedule may beat the bound
        assert row["gap"] <= 4.0  # the constant-factor acceptance bar
    gaps = [row["gap"] for row in rows]
    assert gaps[-1] < gaps[0]  # finite-N overhead shrinks with N


def test_confqr_optimum_moves_past_c2(benchmark, show, sweep_cache):
    """E10 — the COnfQR headline: over equal-P [G, G, c] grids the
    compact-WY schedule's total volume is *strictly decreasing* in c
    (every term scales with G = sqrt(P/c)), where CAQR's panel fan-out
    flattens at c = 2 and then rises; and the measured volume sits on
    the exact per-step model (<= 5% is the acceptance bar; the model
    is exact by construction)."""
    rows = benchmark.pedantic(
        qr_confqr_gap,
        kwargs={"gc_points": ((8, 1), (4, 4), (2, 16)), "n": 48,
                "v": 4, "cache": sweep_cache},
        rounds=1,
        iterations=1,
    )
    show(format_table(
        rows,
        [
            ("g", "G"),
            ("c", "c"),
            ("confqr_bytes", "confqr [B]"),
            ("confqr_factor_bytes", "factor-only [B]"),
            ("caqr25d_bytes", "caqr25d [B]"),
            ("volume_ratio", "caqr/confqr"),
            ("gap", "confqr/bound"),
        ],
        title="COnfQR vs 2.5D CAQR at P=64 across replication depths",
    ))
    rows = sorted(rows, key=lambda r: r["c"])
    for row in rows:
        assert row["model_error"] <= 0.05
        assert row["gap"] > 1.0
    for shallow, deep in zip(rows, rows[1:]):
        # COnfQR keeps winning from replication past c = 2 ...
        assert deep["confqr_bytes"] < shallow["confqr_bytes"]
        assert deep["confqr_factor_bytes"] < shallow["confqr_factor_bytes"]
        # ... while CAQR's volume rises again.
        assert deep["caqr25d_bytes"] > shallow["caqr25d_bytes"]
    assert rows[-1]["volume_ratio"] > 4.0


def test_qr_bound_is_twice_lu_bound(benchmark):
    """The QR trailing update performs twice LU's multiplications on
    the same wedge, so the bounds sit in a clean 2:1 ratio."""
    from repro.theory.bounds import lu_s2_lower_bound, qr_io_lower_bound

    def ratio():
        n, m = 1 << 14, 1 << 20
        return qr_io_lower_bound(n, m) / lu_s2_lower_bound(n, m)

    r = benchmark(ratio)
    assert r == pytest.approx(2.0, rel=1e-3)
