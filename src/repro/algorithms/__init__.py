"""Distributed factorizations on the simulated MPI substrate.

The public entry point is the capability-aware registry in
:mod:`repro.algorithms.api`::

    from repro.algorithms import factor, list_algorithms
    res = factor("conflux", a, grid=(2, 2, 2), v=4)

* :mod:`repro.algorithms.schedule25d` — the shared [G, G, c] grid
  choreography (layouts, panel-owner rotation, layer chunking, tag
  namespaces, reduction/scatter/fetch plans) every 2.5D member runs on.
* :mod:`repro.algorithms.conflux` — COnfLUX (paper Algorithm 1): the
  2.5D, row-masking, tournament-pivoting near-communication-optimal LU.
* :mod:`repro.algorithms.scalapack2d` — the LibSci/ScaLAPACK baseline:
  2D block-cyclic right-looking GEPP with physical row swapping.
* :mod:`repro.algorithms.slate2d` — the SLATE baseline (same 2D family,
  SLATE's defaults: small fixed block size, no user tuning required).
* :mod:`repro.algorithms.candmc25d` — the CANDMC-like 2.5D baseline:
  tournament pivoting with physical row swapping on replicated layers
  and full-width panel replication (cost ~5 N^3 / (P sqrt(M))).
* :mod:`repro.algorithms.gridopt` — Processor Grid Optimization
  (Section 8): pick the cheapest [sqrt(P1), sqrt(P1), c] grid, possibly
  disabling a minor fraction of ranks.

Extensions beyond the paper's evaluation (its stated future work):

* :mod:`repro.algorithms.cholesky25d` — COnfLUX-style 2.5D Cholesky.
* :mod:`repro.algorithms.mmm25d` — the communication-optimal 2.5D MMM
  of the paper's methodological ancestor [42], measured against the
  2 N^3/(P sqrt(M)) bound the theory package derives.
* :mod:`repro.algorithms.caqr25d` — 2.5D CAQR: TSQR panel
  factorizations on the [G, G, c] grid (Demmel et al.'s
  communication-avoiding QR, the journal extension's QR workload).
* :mod:`repro.algorithms.qr2d` — the ScaLAPACK-style 2D block-cyclic
  Householder QR baseline (pdgeqrf's schedule).

Every factorization returns a
:class:`~repro.algorithms.base.FactorResult` carrying assembled global
factors, the row permutation, the residual ``||P A - L U|| / ||A||``
(for QR: ``||A - Q R|| / ||A||`` with the orthogonality defect in
``meta``) and the full communication-volume report.
"""

from repro.algorithms.api import (
    AlgorithmInfo,
    REGISTRY,
    factor,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.algorithms.base import (
    FactorCheck,
    FactorResult,
    FactorVerificationError,
    check_factors,
    verify_factors,
    verify_qr_factors,
)
from repro.algorithms.schedule25d import Rank25D, Schedule25D
# Importing each implementation module registers it in REGISTRY.
from repro.algorithms import (  # noqa: F401
    candmc25d,
    caqr25d,
    cholesky25d,
    confqr,
    conflux,
    qr2d,
    scalapack2d,
    slate2d,
)
from repro.algorithms.mmm25d import mmm25d, mmm25d_model_bytes
from repro.algorithms.gridopt import (
    GridChoice,
    optimize_grid_25d,
    choose_grid_2d,
)

__all__ = [
    "AlgorithmInfo",
    "FactorCheck",
    "FactorResult",
    "FactorVerificationError",
    "GridChoice",
    "REGISTRY",
    "Rank25D",
    "Schedule25D",
    "check_factors",
    "choose_grid_2d",
    "factor",
    "get_algorithm",
    "list_algorithms",
    "mmm25d",
    "mmm25d_model_bytes",
    "optimize_grid_25d",
    "register_algorithm",
    "verify_factors",
    "verify_qr_factors",
]
