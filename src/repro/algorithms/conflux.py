"""COnfLUX — near-communication-optimal LU (paper Section 7, Algorithm 1).

Decomposition (Figure 5): P = G * G * c ranks in a [G, G, c] grid.

* **Rows** are distributed *cyclically* over grid rows (global row r
  lives on grid row ``r mod G``) — cyclic layout keeps work balanced no
  matter which rows the tournament masks out (Section 7.3's row masking).
* **Columns** are distributed in v-wide tiles, tile b on grid column
  ``b mod G`` — so each step's panel lives on exactly one grid column,
  the G ranks the paper has run tournament pivoting.
* **Layers** hold *partial sums*: layer 0 starts with the matrix, layers
  1..c-1 with zeros; each layer applies only its 1/c chunk of every
  rank-v Schur update, and the true value of any entry is the sum over
  layers.  Only the data the next step needs (the next panel and the
  pivot rows) is ever reduced — the "reduce next block column" trick
  that keeps the leading cost at N^3/(P sqrt(M)).

Per step t (tile q = t mod G, layer l = t mod c, width w):

1.  reduce_column      — fiber-reduce the panel's true values to layer l
2.  tournament         — TSLU over the G panel ranks (tree merge +
                         broadcast of candidate sets)
3.  bcast_a00          — broadcast pivot ids + factored A00 to all P
4.  scatter_a10        — panel rows not chosen as pivots -> 1D layout
5.  reduce_pivot_rows  — fiber-reduce the v pivot rows' trailing values
6.  scatter_a01        — reduced pivot rows -> 1D layout over columns
7.  trsm A10           — local:  A10 <- C U00^{-1}
8.  panel_a10          — each (i, j, l) fetches its rows x chunk_l piece
9.  trsm A01           — local:  A01 <- L00^{-1} C
10. panel_a01          — each (i, j, l) fetches chunk_l x its-cols piece
11. schur update       — local:  A_l -= A10[:, chunk_l] A01[chunk_l, :]

Pivot rows are never swapped — only their indices travel (row masking),
so the O(N^3 / (P sqrt(M))) swap traffic a 2.5D layout would pay
(Section 7.3, "Row Swapping vs Row Masking") never materializes.

Steps 1-3 are the :meth:`panel_op` hook and steps 4-11 the
:meth:`trailing_op` hook of the shared :class:`Rank25D` template; all
grid choreography (scatters, fetches, reductions, tags) lives in
:mod:`repro.algorithms.schedule25d`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import (
    FactorResult,
    validate_input_matrix,
    verify_factors,
)
from repro.algorithms.gridopt import optimize_grid_25d
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.linalg import (
    permutation_from_pivots,
    trsm_lower_unit,
    trsm_upper,
)
from repro.kernels.lu_seq import lu_partial_pivot, split_lu
from repro.kernels.tournament import (
    PivotCandidates,
    local_candidates,
    merge_candidates,
)
from repro.smpi import run_spmd

_TAG_A10_SCATTER = 1
_TAG_A01_SCATTER = 2
_TAG_A10_PANEL = 3
_TAG_A01_PANEL = 4


def _merge_op(w: int):
    """Reduction operator over (values, ids) candidate tuples."""

    def op(a, b):
        merged = merge_candidates(
            PivotCandidates(values=a[0], row_ids=a[1]),
            PivotCandidates(values=b[0], row_ids=b[1]),
            w,
        )
        return (merged.values, merged.row_ids)

    return op


class _ConfluxRank(Rank25D):
    """Per-rank COnfLUX program on the shared 2.5D schedule."""

    def setup(self, a: np.ndarray) -> None:
        sched = self.sched
        sched.init_cyclic_layout()
        self.my_rows = sched.my_rows
        self.my_cols = sched.my_cols
        self.row_g2l = sched.row_g2l
        self.col_g2l = sched.col_g2l
        self.aloc = sched.local_block(a)
        self.pivoted = np.zeros(self.n, dtype=bool)
        self.l_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.u_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.a00_blocks: list[tuple[int, np.ndarray, np.ndarray]] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "l_pieces": self.l_pieces,
            "u_pieces": self.u_pieces,
            "a00_blocks": self.a00_blocks,
        }

    # -- steps 1-3: reduce the panel, run the tournament, factor A00 ---
    def panel_op(self, ctx: StepContext):
        comm, gd, sched = self.comm, self.grid, self.sched
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w
        active_rows = np.where(~self.pivoted)[0]

        on_panel_col = self.pj == q
        my_active_local = self.row_g2l[active_rows]
        my_active_rows = active_rows[my_active_local >= 0]
        my_active_local = my_active_local[my_active_local >= 0]

        # -- step 1: reduce next block column to layer lt ---------------
        panel_true = None
        if on_panel_col:
            contrib = self.aloc[
                np.ix_(my_active_local, self.col_g2l[ctx.panel_cols])
            ]
            panel_true = sched.reduce_to_layer(
                "reduce_column", contrib, lt
            )

        # -- step 2: tournament pivoting over the G panel ranks ---------
        if panel_true is not None:
            with comm.phase("tournament"):
                cand = local_candidates(panel_true, my_active_rows, w)
                payload = (cand.values, cand.row_ids)
                win = gd.col_comm.reduce(payload, root=0, op=_merge_op(w))
                win = gd.col_comm.bcast(win, root=0)
            winner = PivotCandidates(values=win[0], row_ids=win[1])
            lu00, piv = lu_partial_pivot(winner.values[:, :w])
            order = permutation_from_pivots(piv, winner.count)
            pivot_ids = winner.row_ids[order][:w]
            payload = (pivot_ids, lu00)
        else:
            payload = None

        # -- step 3: broadcast A00 + pivot ids to all active ranks ------
        pivot_ids, a00 = sched.bcast_from(
            "bcast_a00", payload, (0, q, lt)
        )
        if self.grid_rank == 0:
            self.a00_blocks.append((t, pivot_ids.copy(), a00.copy()))
        return (
            pivot_ids,
            a00,
            panel_true,
            my_active_rows,
            active_rows,
        )

    # -- steps 4-11: scatter, trsm, panel fetches, Schur update --------
    def trailing_op(self, ctx: StepContext, panel) -> None:
        gd, sched = self.grid, self.sched
        g, v, n = self.g, self.v, self.n
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w
        pivot_ids, a00, panel_true, my_active_rows, active_rows = panel
        pivot_set = set(pivot_ids.tolist())
        nonpivot_rows = np.array(
            [r for r in active_rows if r not in pivot_set], dtype=int
        )

        # -- step 4: scatter A10 (non-pivot panel rows) to 1D layout ----
        a10_rows = sched.assign_1d(nonpivot_rows, self.grid_rank)
        recv_plan_a10 = sched.scatter_rows(
            t,
            phase="scatter_a10",
            tag=sched.tag(_TAG_A10_SCATTER, t),
            row_pool=nonpivot_rows,
            holder=lambda r: gd.rank_of(r % g, q, lt),
            values=panel_true,
            value_rows=my_active_rows
            if panel_true is not None
            else None,
        )
        # -- step 7: local trsm A10 <- C U00^{-1} ------------------------
        _, u00 = split_lu(a00)
        if len(a10_rows):
            c_rows = sched.assemble_rows(recv_plan_a10, a10_rows, w)
            a10_vals = trsm_upper(u00, c_rows, side="right")
            self.l_pieces.append((t, a10_rows.copy(), a10_vals))
        else:
            a10_vals = np.zeros((0, w))

        # -- step 5: reduce the pivot rows' trailing values -------------
        trail_local = sched.trailing_local_cols(t)
        trail_cols = self.my_cols[trail_local]
        my_pivot_rows = pivot_ids[(pivot_ids % g) == self.pi]
        pivot_true = None
        if len(my_pivot_rows) and len(trail_local):
            contrib = self.aloc[
                np.ix_(self.row_g2l[my_pivot_rows], trail_local)
            ]
            pivot_true = sched.reduce_to_layer(
                "reduce_pivot_rows", contrib, lt
            )

        # -- step 6: scatter A01 to a 1D layout over trailing columns ---
        all_trailing = np.arange((t + 1) * v, n)
        a01_cols = sched.assign_1d(all_trailing, self.grid_rank)
        assembled_a01 = sched.scatter_pivot_cols(
            t,
            phase="scatter_a01",
            tag=sched.tag(_TAG_A01_SCATTER, t),
            pivot_ids=pivot_ids,
            pivot_true=pivot_true,
            my_pivot_rows=my_pivot_rows,
            my_trail_cols=trail_cols,
            my_assigned_cols=a01_cols,
        )
        # -- step 9: local trsm A01 <- L00^{-1} C ------------------------
        if len(a01_cols):
            a01_vals = trsm_lower_unit(a00, assembled_a01)
            self.u_pieces.append((t, a01_cols.copy(), a01_vals))
        else:
            a01_vals = np.zeros((w, 0))

        # -- steps 8 + 10: fetch 2.5D panel pieces ----------------------
        chunk = sched.sender_chunks(w)[self.layer]
        a10_piece, piece_rows = sched.fetch_rows_piece(
            t,
            phase="panel_a10",
            tag=sched.tag(_TAG_A10_PANEL, t),
            pool=nonpivot_rows,
            vals_1d=a10_vals,
            my_1d_rows=a10_rows,
            chunk=chunk,
            need_rows_of=lambda rows, i, j: rows[(rows % g) == i],
        )
        a01_piece, piece_cols = sched.fetch_cols_piece(
            t,
            phase="panel_a01",
            tag=sched.tag(_TAG_A01_PANEL, t),
            pool=all_trailing,
            vals_1d=a01_vals,
            my_1d_cols=a01_cols,
            chunk=chunk,
        )

        # -- step 11: local Schur update on this layer's partials -------
        # The layer applies only its 1/c slice even when the shipped
        # pieces are wider (the CANDMC-like variant over-fetches).
        applied = sched.my_chunk(w)
        if a10_piece.size and a01_piece.size and len(applied):
            rel = np.searchsorted(chunk, applied)
            rloc = self.row_g2l[piece_rows]
            cloc = self.col_g2l[piece_cols]
            self.aloc[np.ix_(rloc, cloc)] -= (
                a10_piece[:, rel] @ a01_piece[rel, :]
            )

        self.pivoted[pivot_ids] = True


def _conflux_rank_fn(comm, a, g, c, v):
    return _ConfluxRank(comm, a, g, c, v).run()


def _assemble(
    n: int, v: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble global L, U and the permutation from per-rank pieces."""
    a00_blocks = None
    for r in results:
        if r.get("active") and r.get("a00_blocks"):
            a00_blocks = r["a00_blocks"]
            break
    if a00_blocks is None:
        raise RuntimeError("no rank recorded the A00 blocks")

    perm_parts = [ids for _, ids, _ in sorted(a00_blocks)]
    perm = np.concatenate(perm_parts)
    if sorted(perm.tolist()) != list(range(n)):
        raise RuntimeError("pivot ids do not form a permutation")
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)

    lower = np.zeros((n, n))
    upper = np.zeros((n, n))
    for t, ids, a00 in sorted(a00_blocks):
        w = len(ids)
        k0 = t * v
        l00, u00 = split_lu(a00)
        block_pos = pos[ids]  # == k0 .. k0+w-1 in order
        lower[np.ix_(block_pos, np.arange(k0, k0 + w))] = l00
        upper[np.ix_(block_pos, np.arange(k0, k0 + w))] = u00

    for r in results:
        if not r.get("active"):
            continue
        for t, row_ids, vals in r["l_pieces"]:
            k0 = t * v
            w = vals.shape[1]
            lower[np.ix_(pos[row_ids], np.arange(k0, k0 + w))] = vals
        for t, col_ids, vals in r["u_pieces"]:
            k0 = t * v
            w = vals.shape[0]
            upper[np.ix_(np.arange(k0, k0 + w), col_ids)] = vals
    return lower, upper, perm


@register_algorithm(
    "conflux",
    kind="lu",
    grid_family="25d",
    description="COnfLUX: 2.5D row-masking tournament-pivoted LU "
    "(paper Algorithm 1)",
)
def _factor_conflux(
    a: np.ndarray,
    nranks: int,
    grid: tuple[int, int, int] | None = None,
    v: int | None = None,
    m_max: float | None = None,
    timeout: float = 600.0,
    machine=None,
    faults=None,
) -> FactorResult:
    """Factor ``a`` with COnfLUX on ``nranks`` simulated ranks.

    ``grid`` fixes (G, G, c) explicitly; otherwise the Processor Grid
    Optimizer picks the best feasible grid (possibly disabling ranks).
    ``v`` is the blocking parameter (default: max(c, N // (4 G)) rounded
    to a multiple of c, at least c).
    """
    a = validate_input_matrix(a)
    n = a.shape[0]
    if grid is None:
        choice = optimize_grid_25d(nranks, n, m_max=m_max)
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
        # Volume-optimal blocking: v = c (the bcast_a00 term grows
        # linearly in v); the paper's v = a*c tunes a for hardware
        # efficiency, which the simulator does not model.
        v = max(c, 2)
    if v < c:
        raise ValueError(f"v={v} must be >= c={c} (Section 7.2)")
    if n < v:
        v = n

    results, report = run_spmd(
        nranks, _conflux_rank_fn, a, g, c, v,
        timeout=timeout, machine=machine, faults=faults,
    )
    lower, upper, perm = _assemble(n, v, results)
    residual = verify_factors(a, lower, upper, perm)
    return FactorResult(
        name="conflux",
        n=n,
        nranks=nranks,
        grid=(g, g, c),
        block=v,
        lower=lower,
        upper=upper,
        perm=perm,
        volume=report,
        residual=residual,
        meta={"active_ranks": g * g * c},
    )
