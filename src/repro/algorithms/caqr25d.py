"""2.5D CAQR — communication-avoiding QR on the [G, G, c] grid.

The journal extension of the source paper generalizes the COnfLUX
machinery beyond LU; CAQR (Demmel et al., arXiv:0808.2664) is the QR
member of that family.  This implementation runs the CAQR schedule on
the simulated MPI substrate over :class:`~repro.smpi.grid.ProcessGrid3D`:

* rows are block-cyclic over the G grid rows with block v, so each
  panel's diagonal block sits on a single grid row — the TSQR tree
  root;
* columns are block-cyclic over the G*c (column, layer) slots, so all
  c layers hold disjoint column panes and every rank works every step
  (the layers act as extra column resources; a COnfQR-style use of
  replication to *reduce* panel traffic is recorded future work);
* each panel is factored by a binary-tree TSQR across the G grid rows
  of its owning pane (:mod:`repro.kernels.tsqr`), and the implicit
  tree Q^T is applied to the trailing matrix by replaying the same
  merge schedule inside every pane — pairwise row-block exchanges
  along ``col_comm``, never a full panel gather.

Per step t (panel width w, active rows n_t, trailing columns w_t):

1.  tsqr_leaf    — local Householder QR of each grid row's panel rows
2.  tsqr_tree    — merge R factors up the binary tree (root = the
                   diagonal-block row): (L_t - 1) sends of w x w
3.  panel_bcast  — each grid row's leaf reflectors (plus the merge
                   reflectors it computed) fan out to the G c - 1
                   sibling panes: (Gc - 1)(n_t w + ~2(L_t - 1) w^2)
4.  tree_apply   — leaf Q^T applied locally, then the merge schedule
                   replayed on the trailing columns: 2 (L_t - 1) w w_t

Steps 1-3 are the :meth:`panel_op` hook and step 4 the
:meth:`trailing_op` hook of the shared :class:`Rank25D` template; the
block-cyclic pane layout and the two-hop pane broadcast come from
:class:`Schedule25D`.

Q is returned *explicitly* in the :class:`FactorResult` (``lower`` = Q,
``upper`` = R, identity ``perm``): like LAPACK's orgqr, the global Q is
assembled host-side from the implicit tree reflectors each rank
returns, so the measured communication volume is the factorization's
own traffic — the quantity the QR lower bound constrains.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import (
    FactorResult,
    FactorVerificationError,
    validate_input_matrix,
    verify_qr_factors,
)
from repro.algorithms.gridopt import optimize_grid_25d
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.tsqr import (
    MergeNode,
    TsqrFactors,
    apply_qt,
    householder_qr,
    merge_plan,
)
from repro.layouts.block_cyclic import BlockCyclic1D
from repro.smpi import run_spmd

_TAG_TREE_R = 1
_TAG_TOP = 2
_TAG_TOP_BACK = 3


class _CaqrRank(Rank25D):
    """Per-rank 2.5D CAQR program on the shared schedule."""

    def setup(self, a: np.ndarray) -> None:
        sched = self.sched
        sched.init_block_cyclic_layout()
        self.rows_by_grid_row = sched.rows_by_grid_row
        self.my_rows = sched.my_rows
        self.my_cols = sched.my_cols
        self.col_g2l = sched.col_g2l
        self.aloc = sched.local_block(a, replicated=True)
        # (t, tree_pos, v, tau) leaf and (t, order, v, tau) node records
        # for host-side Q assembly.
        self.q_log: list[tuple] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "aloc": self.aloc,
            "rows": self.my_rows,
            "cols": self.my_cols,
            "q_log": self.q_log,
        }

    # -- steps 1-3: leaf QR, tree merge, pane broadcast ----------------
    def panel_op(self, ctx: StepContext):
        comm, gd, sched = self.comm, self.grid, self.sched
        g = self.g
        t, k0, k1, w = ctx.t, ctx.k0, ctx.k1, ctx.w
        rt = int(sched.rowmap.owner(k0))
        slot_t = int(sched.colmap.owner(k0))
        qj, ql = slot_t % g, slot_t // g
        on_panel = self.pj == qj and self.layer == ql

        # Active (>= k0) rows, per grid row, in ascending global order.
        counts = [
            len(rows) - int(np.searchsorted(rows, k0))
            for rows in self.rows_by_grid_row
        ]
        tree_counts = [counts[(rt + p) % g] for p in range(g)]
        plan = merge_plan(tree_counts, w)
        my_pos = (self.pi - rt) % g
        start = int(np.searchsorted(self.my_rows, k0))
        act_loc = np.arange(start, len(self.my_rows))

        # 1. local Householder QR of my panel rows (panel pane only)
        leaf = None
        r_mine = None
        if on_panel and len(act_loc):
            panel_lcols = self.col_g2l[np.arange(k0, k1)]
            panel = self.aloc[np.ix_(act_loc, panel_lcols)]
            lv, ltau, r_mine = householder_qr(panel)
            leaf = (lv, ltau)

        # 2. merge R factors up the binary tree (within the panel pane)
        my_nodes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if on_panel:
            with comm.phase("tsqr_tree"):
                for order, step in enumerate(plan):
                    a_row = (rt + step.a) % g
                    b_row = (rt + step.b) % g
                    if self.pi == b_row:
                        gd.col_comm.send(
                            r_mine, a_row, sched.tag(_TAG_TREE_R, t)
                        )
                        r_mine = None
                    elif self.pi == a_row:
                        theirs = gd.col_comm.recv(
                            b_row, sched.tag(_TAG_TREE_R, t)
                        )
                        stacked = np.vstack([r_mine, theirs])
                        nv, ntau, r_mine = householder_qr(stacked)
                        my_nodes[order] = (nv, ntau)
            if self.pi == rt:
                # Final R of the panel: the diagonal block rows.
                panel_lcols = self.col_g2l[np.arange(k0, k1)]
                rows = act_loc[:w]
                self.aloc[np.ix_(rows, panel_lcols)] = r_mine

        # 3. fan the pane's reflectors out to the sibling panes
        pkg = (leaf, my_nodes) if on_panel else None
        pkg = sched.pane_bcast("panel_bcast", pkg, qj, ql)
        leaf, my_nodes = pkg if pkg is not None else (None, {})
        if on_panel:
            if leaf is not None:
                self.q_log.append(("leaf", t, my_pos, leaf[0], leaf[1]))
            for order, (nv, ntau) in my_nodes.items():
                self.q_log.append(("node", t, order, nv, ntau))
        return leaf, my_nodes, plan, rt, act_loc

    def step_flops(self, ctx: StepContext) -> float:
        # Q^T application is two-sided (form Y = V^T B, then B -= V T Y),
        # so roughly 4·rows·w·cols against 2·rows·w·cols for a GEMM
        # trailing update.
        rows = max(self.n - ctx.k0, 0)
        cols = max(self.n - ctx.k1, 0)
        return 4.0 * rows * ctx.w * cols / self.p_active

    # -- step 4: apply the implicit tree Q^T to the trailing columns --
    def trailing_op(self, ctx: StepContext, panel) -> None:
        comm, gd, sched = self.comm, self.grid, self.sched
        g = self.g
        t, k1 = ctx.t, ctx.k1
        leaf, my_nodes, plan, rt, act_loc = panel

        tcols = np.where(self.my_cols >= k1)[0]
        if len(act_loc) == 0:
            return
        with comm.phase("tree_apply"):
            if leaf is not None and len(tcols):
                block = self.aloc[np.ix_(act_loc, tcols)]
                self.aloc[np.ix_(act_loc, tcols)] = apply_qt(
                    leaf[0], leaf[1], block
                )
            if len(tcols) == 0:
                return
            for order, step in enumerate(plan):
                a_row = (rt + step.a) % g
                b_row = (rt + step.b) % g
                if self.pi == b_row:
                    top = act_loc[: step.r_b]
                    gd.col_comm.send(
                        self.aloc[np.ix_(top, tcols)],
                        a_row,
                        sched.tag(_TAG_TOP, t),
                    )
                    updated = gd.col_comm.recv(
                        a_row, sched.tag(_TAG_TOP_BACK, t)
                    )
                    self.aloc[np.ix_(top, tcols)] = updated
                elif self.pi == a_row:
                    nv, ntau = my_nodes[order]
                    top = act_loc[: step.r_a]
                    theirs = gd.col_comm.recv(
                        b_row, sched.tag(_TAG_TOP, t)
                    )
                    stacked = np.vstack(
                        [self.aloc[np.ix_(top, tcols)], theirs]
                    )
                    out = apply_qt(nv, ntau, stacked)
                    self.aloc[np.ix_(top, tcols)] = out[: step.r_a]
                    gd.col_comm.send(
                        out[step.r_a :],
                        b_row,
                        sched.tag(_TAG_TOP_BACK, t),
                    )


def _caqr_rank_fn(comm, a, g, c, v):
    return _CaqrRank(comm, a, g, c, v).run()


def _assemble_r(n: int, results: list[dict]) -> np.ndarray:
    combined = np.zeros((n, n))
    seen = False
    for res in results:
        if not res.get("active"):
            continue
        seen = True
        combined[np.ix_(res["rows"], res["cols"])] = res["aloc"]
    if not seen:
        raise RuntimeError("no active ranks returned results")
    return np.triu(combined)


def _assemble_q(
    n: int, g: int, v: int, results: list[dict]
) -> np.ndarray:
    """Replay the implicit per-step tree reflectors on the identity.

    A = H_0 H_1 ... H_{T-1} R, so Q = H_0 (H_1 (... H_{T-1} I)) — the
    orgqr analogue, built from the reflectors the ranks logged.
    """
    rowmap = BlockCyclic1D(n, g, v)
    rows_by_grid_row = [rowmap.global_indices(i) for i in range(g)]
    leaves: dict[tuple[int, int], tuple] = {}
    nodes: dict[tuple[int, int], tuple] = {}
    for res in results:
        if not res.get("active"):
            continue
        for entry in res["q_log"]:
            if entry[0] == "leaf":
                _, t, pos, lv, ltau = entry
                leaves[(t, pos)] = (lv, ltau)
            else:
                _, t, order, nv, ntau = entry
                nodes[(t, order)] = (nv, ntau)

    q = np.eye(n)
    steps = (n + v - 1) // v
    for t in range(steps - 1, -1, -1):
        k0 = t * v
        w = min(v, n - k0)
        rt = int(rowmap.owner(k0))
        block_rows = []
        tree_counts = []
        for p in range(g):
            rows = rows_by_grid_row[(rt + p) % g]
            rows = rows[rows >= k0]
            block_rows.append(rows)
            tree_counts.append(len(rows))
        plan = merge_plan(tree_counts, w)
        factors = TsqrFactors(
            row_counts=tuple(tree_counts),
            ncols=w,
            leaves=tuple(
                leaves.get((t, p)) for p in range(g)
            ),
            nodes=tuple(
                MergeNode(step=step, v=nodes[(t, order)][0],
                          tau=nodes[(t, order)][1])
                for order, step in enumerate(plan)
            ),
            r=np.zeros((0, w)),
        )
        q = factors.apply_q(q, block_rows=block_rows)
    return q


@register_algorithm(
    "caqr25d",
    kind="qr",
    grid_family="25d",
    description="2.5D CAQR: TSQR panel trees on block-cyclic panes "
    "(the journal extension's QR workload)",
)
def _factor_caqr25d(
    a: np.ndarray,
    nranks: int,
    grid: tuple[int, int, int] | None = None,
    v: int | None = None,
    timeout: float = 600.0,
    machine=None,
    faults=None,
) -> FactorResult:
    """2.5D CAQR of a square matrix; returns explicit Q and R.

    The FactorResult reuses the LU container: ``lower`` is Q (n x n
    orthogonal), ``upper`` is R, ``perm`` is the identity (QR needs no
    pivoting), ``residual`` is ``||A - Q R||_F / ||A||_F`` and
    ``meta["orthogonality"]`` is ``||Q^T Q - I||_F``.
    """
    a = validate_input_matrix(a)
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
        v = max(2, min(8, n))
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if n < v:
        v = n
    results, report = run_spmd(
        nranks, _caqr_rank_fn, a, g, c, v,
        timeout=timeout, machine=machine, faults=faults,
    )
    upper = _assemble_r(n, results)
    q = _assemble_q(n, g, v, results)
    residual, orthogonality = verify_qr_factors(a, q, upper)
    if residual > 1e-10:
        raise FactorVerificationError(
            "residual",
            f"caqr25d ||A - QR||/||A|| = {residual:.2e} > 1e-10",
        )
    if orthogonality > 1e-10:
        raise FactorVerificationError(
            "orthogonality",
            f"caqr25d ||Q^T Q - I|| = {orthogonality:.2e} > 1e-10",
        )
    return FactorResult(
        name="caqr25d",
        n=n,
        nranks=nranks,
        grid=(g, g, c),
        block=v,
        lower=q,
        upper=upper,
        perm=np.arange(n),
        volume=report,
        residual=residual,
        meta={
            "orthogonality": orthogonality,
            "active_ranks": g * g * c,
        },
    )
