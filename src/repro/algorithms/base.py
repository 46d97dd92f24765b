"""Shared result type and assembly/verification helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.linalg import lu_residual
from repro.smpi.volume import VolumeReport

#: Structural tolerance for triangularity checks — assembled factors are
#: built by masking, so violations indicate assembly bugs, not roundoff.
_STRUCTURE_ATOL = 1e-12


@dataclass(frozen=True)
class FactorResult:
    """Outcome of one distributed LU factorization run.

    Attributes
    ----------
    name:
        Implementation name ("conflux", "scalapack2d", ...).
    n, nranks:
        Problem size and ranks in the communicator (including any ranks
        the grid optimizer disabled).
    grid:
        Grid dimensions actually used ((Pr, Pc) or (G, G, c)).
    block:
        Panel width (v for the 2.5D algorithms, nb for the 2D ones).
    lower, upper:
        Assembled global factors (L unit-lower, U upper) of P A.
    perm:
        Row order: ``P A == A[perm]``.
    volume:
        Per-rank communication ledger snapshot.
    residual:
        ``||P A - L U||_F / ||A||_F``.
    meta:
        Implementation-specific extras (e.g. active rank count).
    """

    name: str
    n: int
    nranks: int
    grid: tuple[int, ...]
    block: int
    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    volume: VolumeReport
    residual: float
    meta: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.volume.total_bytes

    @property
    def per_rank_bytes(self) -> float:
        return self.volume.per_rank_bytes

    def describe(self) -> str:
        return (
            f"{self.name}: N={self.n} P={self.nranks} grid={self.grid} "
            f"block={self.block} residual={self.residual:.2e} "
            f"volume={self.volume.total_bytes:,} B"
        )


class FactorVerificationError(ValueError):
    """An assembled factorization violates a named invariant.

    ``invariant`` identifies the first failed check ("shape",
    "permutation", "lower_triangular", "upper_triangular",
    "orthogonality" or "residual") so a failing run reports *what*
    broke, not just that something did.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


@dataclass(frozen=True)
class FactorCheck:
    """Outcome of :func:`check_factors`: per-invariant diagnosis.

    ``failed`` lists the violated invariants in check order (empty when
    everything holds); ``residual`` is always computed so callers can
    report it even for structurally broken factors.
    """

    residual: float
    failed: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failed

    def describe(self) -> str:
        if self.ok:
            return f"ok (residual {self.residual:.2e})"
        parts = "; ".join(f"{name}: {detail}" for name, detail in self.failed)
        return f"FAILED [{parts}] (residual {self.residual:.2e})"

    def raise_if_failed(self) -> None:
        if self.failed:
            raise FactorVerificationError(*self.failed[0])


def check_factors(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray,
    residual_tol: float | None = None,
) -> FactorCheck:
    """Diagnose an assembled LU-style factorization invariant by
    invariant: shapes, permutation validity, L unit-lower-triangularity,
    U upper-triangularity and (when ``residual_tol`` is given) the
    relative residual ``||P A - L U|| / ||A||``."""
    n = a.shape[0]
    failed: list[tuple[str, str]] = []
    if lower.shape != (n, n) or upper.shape != (n, n):
        raise FactorVerificationError(
            "shape",
            f"factor shapes {lower.shape}/{upper.shape} != ({n},{n})",
        )
    if sorted(np.asarray(perm).tolist()) != list(range(n)):
        failed.append(
            ("permutation", "perm is not a permutation of 0..N-1")
        )
    strict_upper = np.abs(np.triu(lower, 1)).max(initial=0.0)
    diag_err = np.abs(np.diag(lower) - 1.0).max(initial=0.0)
    if strict_upper > _STRUCTURE_ATOL or diag_err > _STRUCTURE_ATOL:
        failed.append(
            (
                "lower_triangular",
                "L is not unit lower triangular "
                f"(above-diagonal max {strict_upper:.2e}, "
                f"unit-diagonal error {diag_err:.2e})",
            )
        )
    strict_lower = np.abs(np.tril(upper, -1)).max(initial=0.0)
    if strict_lower > _STRUCTURE_ATOL:
        failed.append(
            (
                "upper_triangular",
                f"U has below-diagonal mass {strict_lower:.2e}",
            )
        )
    if failed and any(name == "permutation" for name, _ in failed):
        residual = lu_residual(a, lower, upper, None)
    else:
        residual = lu_residual(a, lower, upper, perm)
    if residual_tol is not None and residual > residual_tol:
        failed.append(
            (
                "residual",
                f"||PA - LU||/||A|| = {residual:.2e} > {residual_tol:.1e}",
            )
        )
    return FactorCheck(residual=residual, failed=tuple(failed))


def verify_factors(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray,
    residual_tol: float | None = None,
) -> float:
    """Residual of assembled factors.

    Raises :class:`FactorVerificationError` naming the first violated
    invariant (shape / permutation / triangularity / residual) instead
    of returning a silently wrong residual.
    """
    check = check_factors(a, lower, upper, perm, residual_tol)
    check.raise_if_failed()
    return check.residual


def verify_qr_factors(
    a: np.ndarray, q: np.ndarray, r: np.ndarray
) -> tuple[float, float]:
    """Residual and orthogonality of an assembled QR factorization.

    Returns ``(||A - Q R|| / ||A||, ||Q^T Q - I||)``; raises
    :class:`FactorVerificationError` on shape mismatch or a
    non-upper-triangular R (structural breakage, never roundoff).
    """
    n = a.shape[0]
    if q.shape != (n, n) or r.shape != (n, n):
        raise FactorVerificationError(
            "shape", f"factor shapes {q.shape}/{r.shape} != ({n},{n})"
        )
    strict_lower = np.abs(np.tril(r, -1)).max(initial=0.0)
    if strict_lower > _STRUCTURE_ATOL:
        raise FactorVerificationError(
            "upper_triangular",
            f"R has below-diagonal mass {strict_lower:.2e}",
        )
    den = np.linalg.norm(a)
    residual = float(np.linalg.norm(a - q @ r))
    if den:
        residual /= den
    orthogonality = float(np.linalg.norm(q.T @ q - np.eye(n)))
    return residual, orthogonality


def validate_input_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr

