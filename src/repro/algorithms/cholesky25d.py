"""COnfLUX-style 2.5D Cholesky factorization (paper Section 11's
future work: "this promising result mandates the exploration of the
parallel pebbling strategy to algorithms such as Cholesky
factorization").

Cholesky needs no pivoting, which strips Algorithm 1 down to its data-
movement core on the same [G, G, c] decomposition:

1.  reduce_column   — fiber-reduce the true panel values to layer l_t
2.  gather_diag     — collect the v x v diagonal block on one rank,
                      factor it (dpotrf)
3.  bcast_l00       — broadcast L00 to all ranks
4.  scatter_l21     — panel rows below the diagonal -> 1D layout
5.  trsm            — local: L21 <- C L00^{-T}
6.  panel_rows /    — each (i, j, l) fetches L21[rows of grid row i,
    panel_cols        chunk_l] and L21[rows matching its columns,
                      chunk_l] (the symmetric rank-v update needs the
                      panel twice)
7.  syrk update     — local: A_l -= L21_rows[:, chunk] L21_cols[:, chunk]^T

Phases 1-3 are the :meth:`panel_op` hook and 4-7 the
:meth:`trailing_op` hook of the shared :class:`Rank25D` template; the
scatter and both panel fetches are the same :class:`Schedule25D` plans
COnfLUX uses (the column-tile fetch is just a different row selector).

The theory side (repro.theory.bounds.cholesky_io_lower_bound) gives
Q >= N^3/(3 sqrt(M)); like LU, the 2.5D schedule's leading term is
N^3/(P sqrt(M)) — a factor 3 over the Cholesky bound (Cholesky touches
a sixth of the cube but the panel exchange cannot exploit symmetry
without halving the layout, a known open trade-off).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky as dense_cholesky, solve_triangular

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import FactorResult, validate_input_matrix
from repro.algorithms.gridopt import optimize_grid_25d
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.smpi import run_spmd

_TAG_DIAG = 1
_TAG_L21 = 2
_TAG_ROWS = 3
_TAG_COLS = 4


class _CholeskyRank(Rank25D):
    """Per-rank 2.5D Cholesky program on the shared schedule."""

    def setup(self, a: np.ndarray) -> None:
        sched = self.sched
        sched.init_cyclic_layout()
        self.my_rows = sched.my_rows
        self.my_cols = sched.my_cols
        self.row_g2l = sched.row_g2l
        self.col_g2l = sched.col_g2l
        self.aloc = sched.local_block(a)
        self.l_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.l00_blocks: list[tuple[int, np.ndarray]] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "l_pieces": self.l_pieces,
            "l00_blocks": self.l00_blocks,
        }

    # -- phases 1-3: reduce the panel, dpotrf the diagonal, bcast L00 --
    def panel_op(self, ctx: StepContext):
        comm, gd, sched = self.comm, self.grid, self.sched
        g = self.g
        t, q, lt, k0, k1 = ctx.t, ctx.q, ctx.lt, ctx.k0, ctx.k1
        active_rows = np.arange(k0, self.n)

        on_panel_col = self.pj == q
        mine = active_rows[(active_rows % g) == self.pi]
        mine_local = self.row_g2l[mine]

        # 1. reduce the panel to layer lt
        panel_true = None
        if on_panel_col:
            contrib = self.aloc[
                np.ix_(mine_local, self.col_g2l[ctx.panel_cols])
            ]
            panel_true = sched.reduce_to_layer(
                "reduce_column", contrib, lt
            )

        # 2. gather the diagonal block on (0, q, lt) and factor it
        root = gd.rank_of(0, q, lt)
        l00 = None
        if panel_true is not None:
            diag_mask = (mine >= k0) & (mine < k1)
            with comm.phase("gather_diag"):
                if self.pi == 0:
                    diag_vals = panel_true[diag_mask]
                    rows = {int(r): diag_vals[i]
                            for i, r in enumerate(mine[diag_mask])}
                    for src_i in range(g):
                        if src_i == 0:
                            continue
                        src_rows = [
                            r for r in range(k0, k1) if r % g == src_i
                        ]
                        if not src_rows:
                            continue
                        vals = gd.grid_comm.recv(
                            gd.rank_of(src_i, q, lt),
                            sched.tag(_TAG_DIAG, t),
                        )
                        for i, r in enumerate(src_rows):
                            rows[r] = vals[i]
                    diag = np.vstack([rows[r] for r in range(k0, k1)])
                    # dpotrf on the v x v diagonal block
                    l00 = dense_cholesky(diag, lower=True)
                else:
                    if diag_mask.any():
                        gd.grid_comm.send(
                            panel_true[diag_mask],
                            root,
                            sched.tag(_TAG_DIAG, t),
                        )

        # 3. broadcast L00 to everyone
        with comm.phase("bcast_l00"):
            l00 = gd.grid_comm.bcast(l00, root=root)
        if self.grid_rank == 0:
            self.l00_blocks.append((t, l00.copy()))
        return l00, panel_true, mine

    # -- phases 4-7: scatter L21, trsm, panel fetches, syrk update -----
    def trailing_op(self, ctx: StepContext, panel) -> None:
        gd, sched = self.grid, self.sched
        g = self.g
        t, q, lt, k1, w = ctx.t, ctx.q, ctx.lt, ctx.k1, ctx.w
        l00, panel_true, mine = panel
        below_rows = np.arange(k1, self.n)

        # 4. scatter the below-diagonal panel rows to the 1D layout
        my_l21_rows = sched.assign_1d(below_rows, self.grid_rank)
        received = sched.scatter_rows(
            t,
            phase="scatter_l21",
            tag=sched.tag(_TAG_L21, t),
            row_pool=below_rows,
            holder=lambda r: gd.rank_of(r % g, q, lt),
            values=panel_true,
            value_rows=mine if panel_true is not None else None,
        )
        c_rows = sched.assemble_rows(received, my_l21_rows, w)

        # 5. local trsm: L21 = C L00^{-T}
        if len(my_l21_rows):
            l21 = solve_triangular(l00, c_rows.T, lower=True).T
            self.l_pieces.append((t, my_l21_rows.copy(), l21))
        else:
            l21 = np.zeros((0, w))

        if k1 >= self.n:
            return

        # 6. panel fetches for the symmetric rank-v update
        chunk = sched.my_chunk(w)
        rows_piece, need_rows = sched.fetch_rows_piece(
            t,
            phase="panel_rows",
            tag=sched.tag(_TAG_ROWS, t),
            pool=below_rows,
            vals_1d=l21,
            my_1d_rows=my_l21_rows,
            chunk=chunk,
            need_rows_of=lambda rows, i, j: rows[(rows % g) == i],
        )
        v = self.v
        cols_piece, need_cols = sched.fetch_rows_piece(
            t,
            phase="panel_cols",
            tag=sched.tag(_TAG_COLS, t),
            pool=below_rows,
            vals_1d=l21,
            my_1d_rows=my_l21_rows,
            chunk=chunk,
            need_rows_of=lambda rows, i, j: rows[
                ((rows // v) % g) == j
            ],
        )

        # 7. local symmetric update of this layer's partials
        if rows_piece.size and cols_piece.size and len(chunk):
            rloc = self.row_g2l[need_rows]
            cloc = self.col_g2l[need_cols]
            self.aloc[np.ix_(rloc, cloc)] -= rows_piece @ cols_piece.T


def _cholesky_rank_fn(comm, a, g, c, v):
    return _CholeskyRank(comm, a, g, c, v).run()


def _assemble_cholesky(n: int, v: int, results: list[dict]) -> np.ndarray:
    l00_blocks = None
    for r in results:
        if r.get("active") and r.get("l00_blocks"):
            l00_blocks = r["l00_blocks"]
            break
    if l00_blocks is None:
        raise RuntimeError("no rank recorded the diagonal blocks")
    lower = np.zeros((n, n))
    for t, l00 in l00_blocks:
        k0 = t * v
        w = l00.shape[0]
        lower[k0 : k0 + w, k0 : k0 + w] = l00
    for r in results:
        if not r.get("active"):
            continue
        for t, rows, vals in r["l_pieces"]:
            k0 = t * v
            w = vals.shape[1]
            lower[np.ix_(rows, np.arange(k0, k0 + w))] = vals
    return lower


@register_algorithm(
    "cholesky25d",
    kind="chol",
    grid_family="25d",
    description="COnfLUX-style 2.5D Cholesky (pivot-free Algorithm 1 "
    "data-movement core)",
)
def _factor_cholesky25d(
    a: np.ndarray,
    nranks: int,
    grid: tuple[int, int, int] | None = None,
    v: int | None = None,
    timeout: float = 600.0,
    machine=None,
    faults=None,
) -> FactorResult:
    """2.5D Cholesky of an SPD matrix; returns L with A = L L^T.

    The FactorResult reuses the LU container: ``lower`` is L, ``upper``
    is L^T, ``perm`` is the identity (no pivoting), and ``residual`` is
    ``||A - L L^T||_F / ||A||_F``.
    """
    a = validate_input_matrix(a)
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("Cholesky requires a symmetric matrix")
    n = a.shape[0]
    if grid is None:
        choice = optimize_grid_25d(nranks, n)
        g, c = choice.grid_rows, choice.layers
    else:
        g, gg, c = grid
        if g != gg:
            raise ValueError(f"grid must be square in rows/cols, got {grid}")
        if g * g * c > nranks:
            raise ValueError(
                f"grid {grid} needs {g * g * c} ranks, have {nranks}"
            )
    if v is None:
        v = max(c, 2)
    if v < c:
        raise ValueError(f"v={v} must be >= c={c}")
    if n < v:
        v = n
    results, report = run_spmd(
        nranks, _cholesky_rank_fn, a, g, c, v,
        timeout=timeout, machine=machine, faults=faults,
    )
    lower = _assemble_cholesky(n, v, results)
    residual = float(
        np.linalg.norm(a - lower @ lower.T) / np.linalg.norm(a)
    )
    if residual > 1e-10:
        raise RuntimeError(
            f"cholesky25d residual {residual:.2e} — factorization broken"
        )
    return FactorResult(
        name="cholesky25d",
        n=n,
        nranks=nranks,
        grid=(g, g, c),
        block=v,
        lower=lower,
        upper=lower.T.copy(),
        perm=np.arange(n),
        volume=report,
        residual=residual,
        meta={"active_ranks": g * g * c},
    )
