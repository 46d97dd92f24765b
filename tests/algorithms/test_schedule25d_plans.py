"""Property layer for Schedule25D's 1D <-> 2.5D redistribution plans.

Drives the four plans — ``scatter_rows``, ``scatter_pivot_cols``,
``fetch_rows_piece`` and ``fetch_cols_piece`` — under ``run_spmd`` on
small [g, g, c] grids with both chunking strategies and random problem
sizes, panel widths and pools.  Payload values encode their (row, col)
coordinates, so every rank can check that it received exactly the
rows and columns it needs, with the right values.  The ledger's byte
total then shows each value crossed the wire once: sent bytes must
equal 8 B x the values whose sender is not their receiver (a message
to this rank stays a local), and every sent byte must be received.

The plans carry no index metadata: senders and receivers derive the
same packing independently, so a vectorisation off-by-one shows up
here as a wrong value, a wrong shape or a deadlock.  Every test runs
with ``derandomize=True`` (see ``tests/kernels/test_properties.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.schedule25d import Schedule25D
from repro.smpi import run_spmd

DET = settings(max_examples=40, deadline=None, derandomize=True)

GRIDS = dict(
    g=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=1, max_value=2),
    chunking=st.sampled_from(("split", "replicate")),
    n=st.integers(min_value=1, max_value=24),
    v=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

#: The two ``need_rows_of`` predicates the algorithms use: a rank needs
#: the rows of its grid row (LU's A10, Cholesky's row piece) or the
#: rows falling in its column tiles (Cholesky's transposed piece).
NEEDS = {
    "grid_row": lambda g, v: lambda rows, i, j: rows[(rows % g) == i],
    "tile_col": lambda g, v: lambda rows, i, j: rows[
        ((rows // v) % g) == j
    ],
}


def _code(rows, cols) -> np.ndarray:
    """Nonzero value naming its (row, col): a missed delivery stays 0."""
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    return 1000.0 * (rows[:, None] + 1) + cols[None, :]


def _pool(rng, n: int) -> np.ndarray:
    """A random subset of range(n) in random order."""
    return rng.permutation(n)[: rng.integers(0, n + 1)]


def _run(g, c, chunking, n, v, body):
    """Run ``body(sched)`` on every rank; returns the per-rank results
    (each ``(ok, off_rank_values)``) and the run's volume report."""

    def fn(comm):
        return body(Schedule25D(comm, n, g, c, v, chunking=chunking))

    results, report = run_spmd(g * g * c, fn, timeout=10.0)
    return results, report


def _check(results, report):
    for rank, (ok, _) in enumerate(results):
        assert ok, f"rank {rank} received wrong rows/values"
    off_rank = sum(k for _, k in results)
    assert report.total_bytes == 8 * off_rank
    assert sum(report.recv_bytes) == report.total_bytes


class TestFetchPlans:
    @DET
    @given(need=st.sampled_from(sorted(NEEDS)), **GRIDS)
    def test_rows_reach_every_rank_that_needs_them(
        self, need, g, c, chunking, n, v, seed
    ):
        rng = np.random.default_rng(seed)
        pool = _pool(rng, n)
        w = int(rng.integers(1, v + 1))
        need_rows_of = NEEDS[need](g, v)

        def body(sched):
            me = sched.grid_rank
            chunk = sched.sender_chunks(w)[sched.layer]
            vals_1d = _code(sched.assign_1d(pool, me), np.arange(w))
            piece, rows = sched.fetch_rows_piece(
                "p", 0, pool, vals_1d, chunk, need_rows_of
            )
            want = need_rows_of(pool, sched.pi, sched.pj)
            ok = np.array_equal(rows, want) and np.array_equal(
                piece, _code(want, chunk)
            )
            owner = {int(r): k % sched.p_active for k, r in enumerate(pool)}
            off = sum(owner[int(r)] != me for r in want) * len(chunk)
            return ok, off

        _check(*_run(g, c, chunking, n, v, body))

    @DET
    @given(**GRIDS)
    def test_cols_reach_every_rank_that_needs_them(
        self, g, c, chunking, n, v, seed
    ):
        rng = np.random.default_rng(seed)
        pool = _pool(rng, n)
        w = int(rng.integers(1, v + 1))

        def body(sched):
            me = sched.grid_rank
            chunk = sched.sender_chunks(w)[sched.layer]
            vals_1d = _code(np.arange(w), sched.assign_1d(pool, me))
            piece, cols = sched.fetch_cols_piece(
                "p", 0, pool, vals_1d, chunk
            )
            want = pool[((pool // v) % g) == sched.pj]
            ok = np.array_equal(cols, want) and np.array_equal(
                piece, _code(chunk, want)
            )
            owner = {int(x): k % sched.p_active for k, x in enumerate(pool)}
            off = sum(owner[int(x)] != me for x in want) * len(chunk)
            return ok, off

        _check(*_run(g, c, chunking, n, v, body))


class TestScatterPlans:
    @DET
    @given(**GRIDS)
    def test_rows_reach_their_1d_owner(self, g, c, chunking, n, v, seed):
        rng = np.random.default_rng(seed)
        pool = _pool(rng, n)
        w = int(rng.integers(1, v + 1))
        holders = rng.integers(0, g * g * c, size=len(pool))
        # a holder's value rows come in its own order and may include
        # rows outside the pool, which it must not send
        spare = np.setdiff1d(np.arange(n), pool)

        def body(sched):
            me = sched.grid_rank
            held = np.concatenate([pool[holders == me], spare[me::3]])
            value_rows = np.random.default_rng([seed, me]).permutation(held)
            values = None
            if (holders == me).any():
                values = _code(value_rows, np.arange(w))
            rows = sched.scatter_rows(
                "s", 0, pool, holders, values, value_rows, w
            )
            want = sched.assign_1d(pool, me)
            ok = np.array_equal(rows, _code(want, np.arange(w)))
            src = holders[np.arange(len(pool)) % sched.p_active == me]
            return ok, int((src != me).sum()) * w

        _check(*_run(g, c, chunking, n, v, body))

    @DET
    @given(**GRIDS)
    def test_pivot_cols_reach_their_1d_owner(
        self, g, c, chunking, n, v, seed
    ):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(0, (n + v - 1) // v))
        pivot_ids = rng.permutation(n)[: rng.integers(1, min(v, n) + 1)]
        trailing = np.arange((t + 1) * v, n)

        def body(sched):
            me, grid = sched.grid_rank, sched.grid
            my_trail_cols = trailing[((trailing // v) % g) == sched.pj]
            my_pivot_rows = pivot_ids[(pivot_ids % g) == sched.pi]
            pivot_true = None
            if (
                sched.layer == t % c
                and len(my_pivot_rows)
                and len(my_trail_cols)
            ):
                pivot_true = _code(my_pivot_rows, my_trail_cols)
            assigned = sched.assign_1d(trailing, me)
            out = sched.scatter_pivot_cols(
                t, "s", 0, pivot_ids, pivot_true, assigned
            )
            ok = np.array_equal(out, _code(pivot_ids, assigned))
            off = sum(
                grid.rank_of(int(r) % g, int(col // v) % g, t % c) != me
                for r in pivot_ids
                for col in assigned
            )
            return ok, off

        _check(*_run(g, c, chunking, n, v, body))
