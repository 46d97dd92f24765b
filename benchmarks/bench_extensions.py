"""E11 — Extensions: the paper's future work on the same substrate.

* 2.5D Cholesky (Section 11: "mandates the exploration of the parallel
  pebbling strategy to algorithms such as Cholesky factorization"):
  measured volume vs the theory bound N^3/(3 sqrt(M)) that
  repro.theory derives for the Cholesky DAAP.
* 2.5D MMM ([42], the method's origin): measured volume sits on the
  2 N^3/(P sqrt(M)) bound — communication-optimal, the reference point
  for COnfLUX's 1.5x.
"""

import numpy as np
import pytest

from repro.algorithms import factor, mmm25d
from repro.harness import format_table
from repro.theory.bounds import (
    cholesky_io_lower_bound,
    mmm_parallel_lower_bound,
)


def _spd(n: int, seed: int = 0) -> np.ndarray:
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def test_cholesky_vs_lu_volume(benchmark, show):
    """Cholesky moves less data than LU on the same grid (half the
    flops, no pivoting machinery)."""
    g, c, v = 2, 2, 8
    p = g * g * c

    def run():
        rows = []
        for n in (64, 128, 192):
            a = _spd(n, seed=n)
            chol = factor("cholesky25d", a, p, grid=(g, g, c), v=v)
            lu = factor("conflux", a, p, grid=(g, g, c), v=v)
            rows.append(
                {
                    "n": n,
                    "cholesky_bytes": chol.volume.total_bytes,
                    "lu_bytes": lu.volume.total_bytes,
                    "ratio": chol.volume.total_bytes
                    / lu.volume.total_bytes,
                    "chol_residual": chol.residual,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        rows,
        [
            ("n", "N"),
            ("cholesky_bytes", "Cholesky [B]"),
            ("lu_bytes", "LU [B]"),
            ("ratio", "Chol/LU"),
            ("chol_residual", "residual"),
        ],
        title=f"2.5D Cholesky vs COnfLUX LU (grid ({g},{g},{c}), v={v})",
    ))
    for row in rows:
        assert row["ratio"] < 1.0
        assert row["chol_residual"] < 1e-11


def test_cholesky_above_its_bound(benchmark, show):
    """Measured Cholesky volume respects the theory module's bound
    N^3/(3 sqrt(M)) (sequential, /P in parallel)."""
    g, c, v, n = 2, 2, 8, 192
    p = g * g * c

    def run():
        return factor("cholesky25d", _spd(n, seed=1), p, grid=(g, g, c), v=v)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    m = c * n * n / p
    bound_total = cholesky_io_lower_bound(n, m) * 8  # bytes, all ranks
    gap = res.volume.total_bytes / bound_total
    show(f"Cholesky N={n}: measured {res.volume.total_bytes:,} B, "
         f"bound {bound_total:,.0f} B, gap {gap:.2f}x")
    assert gap > 1.0


def test_mmm_sits_on_its_bound(benchmark, show):
    """The [42] result on our substrate: 2.5D MMM within ~7% of
    2 N^3/(P sqrt(M)) — the optimality reference for LU's 1.5x."""
    g, c, n = 8, 2, 128
    p = g * g * c

    def run():
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, n, n))
        return mmm25d(a, b, p, grid=(g, g, c))

    out, report, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    m = c * n * n / p
    bound = mmm_parallel_lower_bound(n, m, p) * p * 8
    ratio = report.total_bytes / bound
    show(f"2.5D MMM (G={g}, c={c}, N={n}): measured/bound = {ratio:.3f} "
         f"(LU's COnfLUX: 1.5)")
    assert ratio == pytest.approx(17 / 16, rel=0.02)
