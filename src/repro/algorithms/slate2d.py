"""SLATE-like 2D LU baseline.

SLATE (Gates et al., SC'19) targets exascale systems but factors LU on
the same 2D decomposition as ScaLAPACK; the paper finds "their
communication volumes are mostly equal, with a slight advantage of
SLATE for non-square processor grids" and models both with
N^2/sqrt(P) + O(N^2/P) per rank.

This wrapper reuses the 2D block-cyclic GEPP engine with SLATE's
defaults (Table 2: block size defaults to 16, "user param. required:
no") and SLATE's tall-grid preference for non-square rank counts.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import FactorResult
from repro.algorithms.scalapack2d import _run_2d


@register_algorithm(
    "slate2d",
    kind="lu",
    grid_family="2d",
    description="SLATE-like 2D LU: same GEPP engine, SLATE defaults "
    "(nb=16, tall grids)",
    block_param="nb",
)
def _factor_slate2d(
    a: np.ndarray,
    nranks: int,
    grid: tuple[int, int] | None = None,
    nb: int = 16,
    timeout: float = 600.0,
    machine=None,
    faults=None,
) -> FactorResult:
    """SLATE-like LU: 2D block layout, default block size 16, no user
    tuning required."""
    return _run_2d(
        "slate2d", a, nranks, grid, nb, True, timeout, machine,
        faults,
    )
