"""Shared 2.5D schedule choreography — the [G, G, c] grid machinery.

COnfLUX, the CANDMC-like LU, 2.5D Cholesky and 2.5D CAQR are instances
of *one* near-optimal 2.5D schedule family (the journal extension of
the source paper, arXiv:2108.09337): a [G, G, c] processor grid, a
rotating panel owner, layer-chunked rank-v updates, step-scoped tag
namespaces and a small vocabulary of reduction/scatter/fetch plans.
This module encodes that choreography once; the per-algorithm modules
keep only their numerical payload (tournament pivoting, dpotrf, TSQR
trees) as :class:`Rank25D` panel/trailing hooks.

:class:`Schedule25D` owns, per rank:

* the :class:`~repro.smpi.grid.ProcessGrid3D` and this rank's
  coordinates;
* the **panel-owner rotation** — step t's panel lives on grid column
  ``t mod G`` and is coordinated by layer ``t mod c``;
* the **tag namespace** — every point-to-point phase tags its traffic
  with the step index so a fast rank racing ahead into step t+1 cannot
  intercept step t's messages;
* **layer chunking** — the 1/c split of every rank-v update
  (``chunking="split"``), or CANDMC-style full-width replication
  (``chunking="replicate"``);
* the **data layouts** — cyclic rows with v-wide column tiles (the
  COnfLUX/Cholesky layout) or block-cyclic rows/panes (the CAQR
  layout);
* the **deterministic 1D assignments** every rank computes identically
  (no index metadata ever travels — senders and receivers derive the
  same packing, matching the paper's data-bytes accounting);
* the communication plans: fiber reductions to the coordinating layer,
  2.5D -> 1D scatters of panel rows / pivot-row column slices, and the
  1D -> 2.5D panel fetches feeding the layer-chunked updates.

The port of the rank programs onto this module is wire-identical to
the pre-port implementations — ``tests/algorithms/
test_ledger_regression.py`` pins per-rank bytes, message counts,
phases and tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.layouts.block_cyclic import BlockCyclic1D
from repro.smpi import ProcessGrid3D

#: Tag stride between consecutive steps: each step may use tag bases
#: 0..TAG_STRIDE-1 within its namespace.
TAG_STRIDE = 8


@dataclass(frozen=True)
class StepContext:
    """Geometry of one elimination step, derived identically everywhere.

    ``q`` is the grid column owning the panel tile (owner rotation) and
    ``lt`` the layer coordinating the step's reductions; ``panel_cols``
    are the global columns of the width-``w`` panel ``[k0, k1)``.
    """

    t: int
    q: int
    lt: int
    k0: int
    k1: int
    w: int
    panel_cols: np.ndarray


class Schedule25D:
    """Per-rank view of the shared [G, G, c] schedule.

    Parameters
    ----------
    comm:
        This rank's communicator in the simulated runtime.
    n, g, c, v:
        Problem size, grid rows/cols, replication depth, panel width.
    chunking:
        ``"split"`` ships each layer its 1/c chunk of every panel
        (COnfLUX); ``"replicate"`` ships full-width panels to every
        layer (the CANDMC-like baseline's factor-c overhead).
    """

    def __init__(
        self,
        comm,
        n: int,
        g: int,
        c: int,
        v: int,
        chunking: str = "split",
    ) -> None:
        if chunking not in ("split", "replicate"):
            raise ValueError(f"unknown chunking strategy {chunking!r}")
        self.comm = comm
        self.n = n
        self.g = g
        self.c = c
        self.v = v
        self.chunking = chunking
        self.grid = ProcessGrid3D(comm, g, g, c)
        self.active = self.grid.active
        if not self.active:
            return
        gd = self.grid
        self.pi, self.pj, self.layer = gd.row, gd.col, gd.layer
        self.p_active = g * g * c
        self.grid_rank = gd.grid_comm.rank

    # ------------------------------------------------------------------
    # step geometry: owner rotation + tag namespace
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return (self.n + self.v - 1) // self.v

    def step_context(self, t: int) -> StepContext:
        k0 = t * self.v
        k1 = min(k0 + self.v, self.n)
        return StepContext(
            t=t,
            q=t % self.g,
            lt=t % self.c,
            k0=k0,
            k1=k1,
            w=k1 - k0,
            panel_cols=np.arange(k0, k1),
        )

    def tag(self, base: int, t: int) -> int:
        """Step-scoped tags: a fast rank may race ahead into step t+1,
        so every point-to-point phase tags its traffic with the step."""
        return base + TAG_STRIDE * t

    # ------------------------------------------------------------------
    # layer chunking
    # ------------------------------------------------------------------
    def sender_chunks(self, width: int) -> list[np.ndarray]:
        """Per-layer column/row chunks a panel sender ships to layer l."""
        if self.chunking == "replicate":
            return [np.arange(width) for _ in range(self.c)]
        return np.array_split(np.arange(width), self.c)

    def my_chunk(self, width: int) -> np.ndarray:
        """The slice of the panel THIS rank's layer applies in the
        update (always the 1/c split, regardless of what was shipped —
        the replicate strategy over-fetches)."""
        return np.array_split(np.arange(width), self.c)[self.layer]

    # ------------------------------------------------------------------
    # deterministic 1D assignments (every rank computes them identically)
    # ------------------------------------------------------------------
    def assign_1d(self, items: np.ndarray, d: int) -> np.ndarray:
        """Items assigned to active-grid rank ``d``: cyclic striding."""
        return items[d :: self.p_active]

    # ------------------------------------------------------------------
    # data layouts
    # ------------------------------------------------------------------
    def init_cyclic_layout(self) -> None:
        """COnfLUX/Cholesky layout: rows cyclic over grid rows, columns
        in v-wide tiles with tile b on grid column ``b mod G``."""
        n, g, v = self.n, self.g, self.v
        self.my_rows = np.arange(self.pi, n, g)
        col_blocks = np.arange(self.pj, (n + v - 1) // v, g)
        self.my_col_blocks = col_blocks
        cols = [np.arange(b * v, min((b + 1) * v, n)) for b in col_blocks]
        self.my_cols = (
            np.concatenate(cols) if cols else np.array([], dtype=int)
        )
        # global -> local lookups (dense arrays; -1 = not mine)
        self.row_g2l = np.full(n, -1)
        self.row_g2l[self.my_rows] = np.arange(len(self.my_rows))
        self.col_g2l = np.full(n, -1)
        self.col_g2l[self.my_cols] = np.arange(len(self.my_cols))

    def init_block_cyclic_layout(self) -> None:
        """CAQR layout: rows block-cyclic over the G grid rows (each
        diagonal block owns its TSQR root) and columns block-cyclic over
        the G*c (column, layer) slots so every layer holds a disjoint
        pane and works every step."""
        n, g, c, v = self.n, self.g, self.c, self.v
        self.rowmap = BlockCyclic1D(n, g, v)
        self.colmap = BlockCyclic1D(n, g * c, v)
        self.slot = self.layer * g + self.pj
        self.rows_by_grid_row = [
            self.rowmap.global_indices(i) for i in range(g)
        ]
        self.my_rows = self.rows_by_grid_row[self.pi]
        self.my_cols = self.colmap.global_indices(self.slot)
        self.col_g2l = np.full(n, -1)
        self.col_g2l[self.my_cols] = np.arange(len(self.my_cols))

    def init_compute_layer_layout(self) -> None:
        """COnfQR layout: rows AND columns block-cyclic over the G-square
        *compute layer* (layer 0), block v.

        This is the 2.5D memory-for-communication trade in its QR form:
        instead of giving every layer its own column pane (the CAQR
        layout, which forces full-width reflector fan-out to all G*c
        slots), the factorization runs on the largest 2D grid whose
        blocks fill the per-rank memory budget M = c N^2 / P, and the
        remaining layers act as a *reflector bank* — each holding the
        1/c ``sender_chunks`` slice of every step's panel for the
        distributed explicit-Q assembly sweep.  Coordinate maps are
        shared by all layers; only layer 0 materializes matrix data.
        """
        n, g, v = self.n, self.g, self.v
        self.rowmap = BlockCyclic1D(n, g, v)
        self.colmap = BlockCyclic1D(n, g, v)
        self.rows_by_grid_row = [
            self.rowmap.global_indices(i) for i in range(g)
        ]
        self.my_rows = self.rows_by_grid_row[self.pi]
        self.my_cols = self.colmap.global_indices(self.pj)
        self.col_g2l = np.full(n, -1)
        self.col_g2l[self.my_cols] = np.arange(len(self.my_cols))

    def local_block(self, a: np.ndarray, replicated: bool = False):
        """This rank's initial local block.

        Layer 0 holds the (pre-distributed) matrix; unless the layout is
        ``replicated`` (every layer holds its own pane, as in CAQR), the
        other layers start as zero partial-sum accumulators.
        """
        if replicated or self.layer == 0:
            return a[np.ix_(self.my_rows, self.my_cols)].copy()
        return np.zeros((len(self.my_rows), len(self.my_cols)))

    def trailing_local_cols(self, t: int) -> np.ndarray:
        """Local column indices belonging to tiles > t (cyclic layout)."""
        return np.where(self.my_cols >= (t + 1) * self.v)[0]

    # ------------------------------------------------------------------
    # reduction / broadcast plans
    # ------------------------------------------------------------------
    def reduce_to_layer(self, phase: str, contrib, lt: int):
        """Fiber-reduce partial sums to the coordinating layer; returns
        the true values on layer ``lt``, None elsewhere."""
        with self.comm.phase(phase):
            reduced = self.grid.fiber_comm.reduce(contrib, root=lt)
        return reduced if self.layer == lt else None

    def bcast_from(self, phase: str, payload, root_coords):
        """Broadcast from grid coordinates to all active ranks."""
        with self.comm.phase(phase):
            root = self.grid.rank_of(*root_coords)
            return self.grid.grid_comm.bcast(payload, root=root)

    def pane_bcast(self, phase: str, payload, qj: int, ql: int):
        """Fan a panel pane's payload out to the G*c - 1 sibling panes:
        along the grid row on the owning layer, then along fibers."""
        with self.comm.phase(phase):
            if self.layer == ql:
                payload = self.grid.row_comm.bcast(payload, root=qj)
            return self.grid.fiber_comm.bcast(payload, root=ql)

    # ------------------------------------------------------------------
    # 2.5D <-> 1D redistribution plans
    # ------------------------------------------------------------------
    def _exchange(
        self,
        phase: str,
        tag: int,
        outgoing: list[tuple[int, np.ndarray]],
        sources: list[tuple[int, tuple[int, int]]],
    ) -> list[tuple[int, np.ndarray]]:
        """Move one plan's values-only messages; returns ``(src, block)``
        pairs in ``sources`` order.

        Sends each ``(dest, values)`` of ``outgoing`` in order inside
        ``comm.phase(phase)``, then receives from each ``(src, shape)``
        of ``sources`` in order, outside the phase scope.  A message to
        this rank stays a local and never reaches the wire.  Every
        block is checked against the shape its plan expects.

        Receive-side wait is charged to no phase: the clock attributes
        a blocked receive to the phase open at the ``recv``, and none
        is.  At the ``conflux-n24-g2-c2-v4`` clock pin ``panel_a10``
        therefore reads exactly alpha x 172 messages (2.58e-4 s), and
        ``phase_seconds`` sums to 1.22 ms of 1.74 ms rank-seconds.
        Receiving inside the scope would move every clock pin.
        """
        grid_comm, me = self.grid.grid_comm, self.grid_rank
        to_self = []
        with self.comm.phase(phase):
            for dest, vals in outgoing:
                if dest == me:
                    to_self.append(vals)
                else:
                    grid_comm.send(vals, dest, tag)
        received = []
        for src, shape in sources:
            vals = to_self.pop(0) if src == me else grid_comm.recv(src, tag)
            if vals.shape != shape:
                raise RuntimeError(
                    f"{phase}: block from grid rank {src} has shape "
                    f"{vals.shape}, plan expects {shape}"
                )
            received.append((src, vals))
        return received

    def assemble_rows(
        self,
        row_src: np.ndarray,
        received: list[tuple[int, np.ndarray]],
        width: int,
    ) -> np.ndarray:
        """Stack received blocks into rows: the block from ``src``
        fills, in order, the rows whose ``row_src`` is ``src``."""
        out = np.zeros((len(row_src), width))
        for src, vals in received:
            out[row_src == src] = vals
        return out

    def scatter_rows(
        self,
        phase: str,
        tag: int,
        row_pool: np.ndarray,
        holders: np.ndarray,
        values: np.ndarray | None,
        value_rows: np.ndarray | None,
        w: int,
    ) -> np.ndarray:
        """2.5D -> 1D: holders of true panel rows send each 1D-assigned
        rank its rows.  ``holders[k]`` is the grid rank holding
        ``row_pool[k]``; a holder passes ``values``, one row per entry
        of ``value_rows``, which must include every pool row it holds.
        Returns this rank's ``assign_1d(row_pool)`` rows, ``len x w``,
        in pool order.

        Wire messages carry *values only*: both sides derive the row ids
        from the shared deterministic assignment (pool position -> 1D
        owner) and ``holders``, so no index metadata inflates the
        measured volume — matching the paper's data-bytes accounting.
        """
        me, p = self.grid_rank, self.p_active
        outgoing = []
        if values is not None:
            at = np.zeros(self.n, dtype=int)
            at[value_rows] = np.arange(len(value_rows))
            held = np.flatnonzero(holders == me)
            dests = held % p
            outgoing = [
                (d, values[at[row_pool[held[dests == d]]]])
                for d, _ in _counts_by_source(dests)
            ]
        row_src = holders[me::p]
        received = self._exchange(
            phase, tag, outgoing,
            [(s, (k, w)) for s, k in _counts_by_source(row_src)],
        )
        return self.assemble_rows(row_src, received, w)

    def scatter_pivot_cols(
        self,
        t: int,
        phase: str,
        tag: int,
        pivot_ids: np.ndarray,
        pivot_true: np.ndarray | None,
        my_assigned_cols: np.ndarray,
    ) -> np.ndarray:
        """2.5D -> 1D: reduced pivot-row holders send column slices to
        the 1D-over-columns layout; returns the assembled (w x assigned)
        block in pivot order.

        A holder's ``pivot_true`` has its pivot rows in pivot order and
        the trailing columns of its tiles in ascending order.  Canonical
        packing (derived, never transmitted): rows in pivot order
        restricted to the sender's grid row; columns in trailing-pool
        order restricted to (destination 1D share) x (sender's grid
        column tiles).
        """
        g, v = self.g, self.v
        trailing = np.arange((t + 1) * v, self.n)
        outgoing = []
        if pivot_true is not None:
            mine = (trailing // v) % g == self.pj
            dests = np.flatnonzero(mine) % self.p_active
            outgoing = [
                (d, pivot_true[:, dests == d])
                for d, _ in _counts_by_source(dests)
            ]
        # receive plan: the (grid row i, tile column j) holder on the
        # coordinating layer sends rows of grid row i x cols of tile j
        row_grid = pivot_ids % g
        col_tile = (my_assigned_cols // v) % g
        rows_at = {
            i: np.flatnonzero(row_grid == i)[:, None]
            for i in np.unique(row_grid).tolist()
        }
        cols_at = {
            j: np.flatnonzero(col_tile == j)
            for j in np.unique(col_tile).tolist()
        }
        places = [
            (self.grid.rank_of(i, j, t % self.c), r, cc)
            for j, cc in cols_at.items()
            for i, r in rows_at.items()
        ]
        received = self._exchange(
            phase, tag, outgoing,
            [(src, (len(r), len(cc))) for src, r, cc in places],
        )
        out = np.zeros((len(pivot_ids), len(my_assigned_cols)))
        for (_, r, cc), (_, vals) in zip(places, received):
            out[r, cc] = vals
        return out

    def fetch_rows_piece(
        self,
        phase: str,
        tag: int,
        pool: np.ndarray,
        vals_1d: np.ndarray,
        chunk: np.ndarray,
        need_rows_of,
    ) -> tuple[np.ndarray, np.ndarray]:
        """1D -> 2.5D: redistribute a row panel held as
        ``vals_1d`` (this rank's ``assign_1d(pool)`` rows) to the 2.5D
        layout: destination (i, j, l) receives ``need_rows_of(rows, i,
        j)`` x chunk_l.  Returns ``(piece, needed_rows)``."""
        p = self.p_active
        pos = np.zeros(self.n, dtype=int)
        pos[pool] = np.arange(len(pool))  # pool position of each row
        my_rows = self.assign_1d(pool, self.grid_rank)
        sender_chunks = self.sender_chunks(vals_1d.shape[1])
        outgoing = []
        for i in range(self.g):
            for j in range(self.g):
                at = pos[need_rows_of(my_rows, i, j)][:, None] // p
                if len(at):
                    outgoing += [
                        (self.grid.rank_of(i, j, l), vals_1d[at, lc])
                        for l, lc in enumerate(sender_chunks)
                        if len(lc)
                    ]
        need = need_rows_of(pool, self.pi, self.pj)
        row_src = pos[need] % p
        sources = (
            [(s, (k, len(chunk))) for s, k in _counts_by_source(row_src)]
            if len(chunk)
            else []
        )
        received = self._exchange(phase, tag, outgoing, sources)
        return self.assemble_rows(row_src, received, len(chunk)), need

    def fetch_cols_piece(
        self,
        phase: str,
        tag: int,
        pool: np.ndarray,
        vals_1d: np.ndarray,
        chunk: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column analogue of :meth:`fetch_rows_piece`: every rank needs
        chunk_l x (pool cols in its tiles).  Values-only messages."""
        g, v = self.g, self.v
        my_tiles = (self.assign_1d(pool, self.grid_rank) // v) % g
        sender_chunks = self.sender_chunks(vals_1d.shape[0])
        outgoing = []
        for j in range(g):
            at = np.flatnonzero(my_tiles == j)
            if len(at):
                outgoing += [
                    (self.grid.rank_of(i, j, l), vals_1d[lc[:, None], at])
                    for i in range(g)
                    for l, lc in enumerate(sender_chunks)
                    if len(lc)
                ]
        needed = (pool // v) % g == self.pj
        col_src = np.flatnonzero(needed) % self.p_active
        sources = (
            [(s, (len(chunk), k)) for s, k in _counts_by_source(col_src)]
            if len(chunk)
            else []
        )
        out = np.zeros((len(chunk), len(col_src)))
        for src, vals in self._exchange(phase, tag, outgoing, sources):
            out[:, col_src == src] = vals
        return out, pool[needed]


def _counts_by_source(src_of: np.ndarray) -> list[tuple[int, int]]:
    """``(source, count)`` pairs of a per-item source array, ascending
    by source — the receive order of every redistribution plan."""
    counts = np.bincount(src_of).tolist()
    return [(s, k) for s, k in enumerate(counts) if k]


class Rank25D:
    """Template rank program: one :class:`Schedule25D` + two hooks.

    Subclasses set :attr:`chunking`, build their local state in
    :meth:`setup`, and implement :meth:`panel_op` (factor the step's
    panel — reduce, pivot/factor, broadcast) and :meth:`trailing_op`
    (apply it to the trailing matrix).  ``run`` drives the shared step
    loop; whatever ``panel_op`` returns is handed to ``trailing_op``.
    """

    chunking = "split"

    def __init__(self, comm, a: np.ndarray, g: int, c: int, v: int):
        self.comm = comm
        self.n = a.shape[0]
        self.g = g
        self.c = c
        self.v = v
        self.sched = Schedule25D(
            comm, self.n, g, c, v, chunking=self.chunking
        )
        self.grid = self.sched.grid
        self.active = self.sched.active
        if not self.active:
            return
        sched = self.sched
        self.pi, self.pj, self.layer = sched.pi, sched.pj, sched.layer
        self.p_active = sched.p_active
        self.grid_rank = sched.grid_rank
        self.setup(a)

    # -- subclass surface ----------------------------------------------
    def setup(self, a: np.ndarray) -> None:
        """Build layout-dependent local state (called on active ranks)."""
        raise NotImplementedError

    def panel_op(self, ctx: StepContext):
        """Factor step ``ctx``'s panel; the return value feeds
        :meth:`trailing_op`."""
        raise NotImplementedError

    def trailing_op(self, ctx: StepContext, panel) -> None:
        """Apply the factored panel to the trailing matrix."""
        raise NotImplementedError

    def step_flops(self, ctx: StepContext) -> float:
        """This rank's arithmetic for step ``ctx`` (timing model only).

        The default charges an even 1/(G·G·c) share of the step's
        trailing update — the rank-``w`` GEMM on the (N - k1)-square
        trailing matrix, 2·(N-k1)²·w flops total — which is the
        dominant term for every LU/Cholesky-shaped member.  Subclasses
        with a different update (CAQR's two-sided reflector apply)
        override this.  Feeds :meth:`Comm.compute`, a no-op unless the
        run was given a machine spec.
        """
        trailing = max(self.n - ctx.k1, 0)
        return 2.0 * trailing * trailing * ctx.w / self.p_active

    def finalize(self) -> dict:
        """Per-rank result payload for host-side assembly."""
        return {"active": True}

    # -- template ------------------------------------------------------
    def run(self) -> dict:
        if not self.active:
            return {"active": False}
        for t in range(self.sched.steps):
            ctx = self.sched.step_context(t)
            panel = self.panel_op(ctx)
            self.trailing_op(ctx, panel)
            self.comm.compute(self.step_flops(ctx))
        return self.finalize()
