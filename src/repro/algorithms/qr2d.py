"""2D block-cyclic Householder QR — the ScaLAPACK (pdgeqrf) baseline.

The contrast CAQR was invented for: classic Householder QR on a
Pr x Pc block-cyclic grid factors each panel *column by column*, and
every column costs a column-communicator all-reduce (the norm) plus one
more per update — O(N) latency down the critical path, against
tournament-style TSQR's O(N/v log P).  The volume side mirrors the LU
baselines: panel broadcasts along process rows plus per-reflector
update reductions give ~ N^2 (Pc + 2 Pr) / 2 elements total, the
N^2 sqrt(P) scaling of Table 2's 2D row.

Per step t (panel width w, active rows n_t, trailing columns w_t):

1. panel_fact     — per column: all-reduce of (norm, diagonal entry),
                    then an all-reduce of the row vector updating the
                    remaining panel columns: ~ (Pr-1)(w^2 + 3w)
2. panel_bcast    — the panel's reflector slab (rows >= k0) plus taus
                    to the other process columns: (Pc-1)(n_t w + w)
3. update_reduce  — per reflector: all-reduce of v^T B over process
                    columns: 2 (Pr-1) w w_t

Reflectors are stored below the diagonal exactly like LAPACK geqrf
combined storage, so host-side assembly is an orgqr: R is the upper
triangle of the assembled matrix, Q is the reflector product applied
to the identity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import (
    FactorResult,
    FactorVerificationError,
    validate_input_matrix,
    verify_qr_factors,
)
from repro.algorithms.gridopt import choose_grid_2d
from repro.kernels.tsqr import thin_q
from repro.layouts.block_cyclic import BlockCyclic1D
from repro.smpi import ProcessGrid2D, run_spmd


def _rank_fn(comm, a: np.ndarray, prows: int, pcols: int, nb: int) -> dict:
    n = a.shape[0]
    grid = ProcessGrid2D(comm, prows, pcols)
    if not grid.active:
        return {"active": False}
    pi, pj = grid.row, grid.col
    rowmap = BlockCyclic1D(n, prows, nb)
    colmap = BlockCyclic1D(n, pcols, nb)
    my_rows = rowmap.global_indices(pi)
    my_cols = colmap.global_indices(pj)
    row_g2l = np.full(n, -1)
    row_g2l[my_rows] = np.arange(len(my_rows))
    col_g2l = np.full(n, -1)
    col_g2l[my_cols] = np.arange(len(my_cols))
    aloc = a[np.ix_(my_rows, my_cols)].copy()
    taus: list[float] = []

    nsteps = (n + nb - 1) // nb
    for kb in range(nsteps):
        k0 = kb * nb
        k1 = min(k0 + nb, n)
        w = k1 - k0
        pcol = int(colmap.owner(k0))
        on_pcol = pj == pcol
        panel_lcols = col_g2l[np.arange(k0, k1)] if on_pcol else None
        step_taus = np.zeros(w)

        # ---- panel factorization, column by column --------------------
        if on_pcol:
            for jj in range(w):
                kj = k0 + jj
                lcol = panel_lcols[jj]
                below = my_rows > kj
                own_diag = pi == int(rowmap.owner(kj))
                with comm.phase("panel_fact"):
                    local = np.array([
                        float(aloc[below, lcol] @ aloc[below, lcol]),
                        float(aloc[row_g2l[kj], lcol]) if own_diag else 0.0,
                    ])
                    sigma, alpha = grid.col_comm.allreduce(local)
                if sigma == 0.0:
                    step_taus[jj] = 0.0
                    continue
                beta = -math.copysign(
                    math.hypot(alpha, math.sqrt(sigma)), alpha
                )
                tau = (beta - alpha) / beta
                step_taus[jj] = tau
                aloc[below, lcol] /= alpha - beta
                if own_diag:
                    aloc[row_g2l[kj], lcol] = beta
                # Apply H_jj to the remaining panel columns.
                if jj + 1 < w:
                    rest = panel_lcols[jj + 1 :]
                    with comm.phase("panel_fact"):
                        local_w = aloc[below, lcol] @ aloc[
                            np.ix_(np.where(below)[0], rest)
                        ]
                        if own_diag:
                            local_w = local_w + aloc[row_g2l[kj], rest]
                        wvec = grid.col_comm.allreduce(local_w)
                    aloc[np.ix_(np.where(below)[0], rest)] -= (
                        tau * np.outer(aloc[below, lcol], wvec)
                    )
                    if own_diag:
                        aloc[row_g2l[kj], rest] -= tau * wvec

        # ---- broadcast the reflector slab along process rows ----------
        act = my_rows >= k0
        with comm.phase("panel_bcast"):
            slab = (
                (aloc[np.ix_(np.where(act)[0], panel_lcols)].copy(),
                 step_taus)
                if on_pcol
                else None
            )
            slab, step_taus = grid.row_comm.bcast(slab, root=pcol)
        if on_pcol:
            taus.extend(step_taus.tolist())

        if k1 >= n:
            break

        # ---- trailing update, one reflector at a time -----------------
        trailing = np.where(my_cols >= k1)[0]
        act_idx = np.where(act)[0]
        act_rows = my_rows[act]
        for jj in range(w):
            kj = k0 + jj
            tau = step_taus[jj]
            if tau == 0.0:
                continue
            # Reflector jj restricted to my rows: stored values below
            # the diagonal, an implicit 1 on row kj, zero above.
            vloc = slab[:, jj].copy()
            vloc[act_rows < kj] = 0.0
            vloc[act_rows == kj] = 1.0
            with comm.phase("update_reduce"):
                if len(trailing):
                    local_w = vloc @ aloc[np.ix_(act_idx, trailing)]
                    wvec = grid.col_comm.allreduce(local_w)
                    aloc[np.ix_(act_idx, trailing)] -= tau * np.outer(
                        vloc, wvec
                    )

        # This rank's Q^T-apply share of the step (two-sided, hence
        # the 4x; timing model only — a no-op without a machine spec).
        comm.compute(
            4.0 * (n - k0) * w * (n - k1) / (prows * pcols)
        )

    return {
        "active": True,
        "aloc": aloc,
        "rows": my_rows,
        "cols": my_cols,
        "my_taus": (pj, np.array(taus)),
    }


def _assemble_qr2d(
    n: int, results: list[dict], pcols: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    combined = np.zeros((n, n))
    taus_by_col: dict[int, np.ndarray] = {}
    for res in results:
        if not res.get("active"):
            continue
        combined[np.ix_(res["rows"], res["cols"])] = res["aloc"]
        pj, t = res["my_taus"]
        if len(t) > taus_by_col.get(pj, np.empty(0)).size:
            taus_by_col[pj] = t
    # Reassemble taus in global column order from the per-process-column
    # panel logs (process column pj factored panels kb with owner pj).
    colmap = BlockCyclic1D(n, pcols, nb)
    consumed = dict.fromkeys(taus_by_col, 0)
    tau_full = np.zeros(n)
    nsteps = (n + nb - 1) // nb
    for kb in range(nsteps):
        k0 = kb * nb
        k1 = min(k0 + nb, n)
        pcol = int(colmap.owner(k0))
        w = k1 - k0
        offset = consumed[pcol]
        tau_full[k0:k1] = taus_by_col[pcol][offset : offset + w]
        consumed[pcol] = offset + w
    upper = np.triu(combined)
    v = np.tril(combined, -1)
    np.fill_diagonal(v, 1.0)
    return thin_q(v, tau_full), upper


@register_algorithm(
    "qr2d",
    kind="qr",
    grid_family="2d",
    description="ScaLAPACK-style 2D block-cyclic Householder QR "
    "(pdgeqrf's schedule)",
    block_param="nb",
)
def _factor_qr2d(
    a: np.ndarray,
    nranks: int,
    grid: tuple[int, int] | None = None,
    nb: int = 16,
    timeout: float = 600.0,
    machine=None,
    faults=None,
) -> FactorResult:
    """ScaLAPACK-style 2D Householder QR; returns explicit Q and R.

    Same result contract as ``factor("caqr25d", ...)``:
    ``lower`` is Q, ``upper`` is R, identity ``perm``, and
    ``meta["orthogonality"]`` carries ``||Q^T Q - I||_F``.
    """
    a = validate_input_matrix(a)
    n = a.shape[0]
    if nb < 1:
        raise ValueError(f"nb must be >= 1, got {nb}")
    if grid is None:
        grid = choose_grid_2d(nranks)
    prows, pcols = grid
    if prows * pcols > nranks:
        raise ValueError(
            f"grid {grid} needs {prows * pcols} ranks, have {nranks}"
        )
    results, report = run_spmd(
        nranks, _rank_fn, a, prows, pcols, nb,
        timeout=timeout, machine=machine, faults=faults,
    )
    q, upper = _assemble_qr2d(n, results, pcols, nb)
    residual, orthogonality = verify_qr_factors(a, q, upper)
    if residual > 1e-10:
        raise FactorVerificationError(
            "residual",
            f"qr2d ||A - QR||/||A|| = {residual:.2e} > 1e-10",
        )
    if orthogonality > 1e-10:
        raise FactorVerificationError(
            "orthogonality",
            f"qr2d ||Q^T Q - I|| = {orthogonality:.2e} > 1e-10",
        )
    return FactorResult(
        name="qr2d",
        n=n,
        nranks=nranks,
        grid=(prows, pcols),
        block=nb,
        lower=q,
        upper=upper,
        perm=np.arange(n),
        volume=report,
        residual=residual,
        meta={
            "orthogonality": orthogonality,
            "active_ranks": prows * pcols,
        },
    )
