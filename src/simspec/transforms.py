"""Block-diagonal projection and the commutator inverse on a partition.

For a diagonal free operator A and a partition Sigma of its eigenvalue
indices (the central group |n| <= m and singletons, see
:class:`~simspec.opmatrix.Partition`), two transforms drive everything:

* ``block_diagonal`` keeps the diagonal blocks (the part commuting with
  every group projection),
* ``commutator_inverse`` solves A Y - Y A = X - block_diagonal(X) for
  the unique Y with zero diagonal blocks; entrywise this divides the
  cross-group entries by the eigenvalue differences.

The commutator inverse is always evaluated at the eigen-index level and
then zeroed inside groups, so partitions of every radius share one
divisor table.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .opmatrix import (
    BlockMatrix,
    Partition,
    gap_inverse_square_sum,
    spectral_gap,
)

__all__ = [
    "TransformContext",
    "block_diagonal",
    "off_diagonal_part",
    "commutator_inverse",
    "commutator_residual",
]


class TransformContext:
    """A partition plus cached eigenvalue-difference tables."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.spectrum = partition.spectrum
        self._divisors = None
        self._delta = None
        self._eta = None

    @property
    def delta(self) -> float:
        """Minimal eigenvalue separation of the underlying spectrum."""
        if self._delta is None:
            self._delta = spectral_gap(self.spectrum)
        return self._delta

    @property
    def eta(self) -> float:
        """Largest row sum of inverse square gaps."""
        if self._eta is None:
            self._eta = gap_inverse_square_sum(self.spectrum)
        return self._eta

    def divisors(self) -> np.ndarray:
        """lambda_row - lambda_col with same-group entries set to 1.

        Same-group entries are placeholders; callers must zero those
        entries separately (they are never legitimate divisions).
        """
        if self._divisors is None:
            lam = self.spectrum.position_values
            diff = lam[:, None] - lam[None, :]
            same = self.partition.same_group_mask()
            diff[same] = 1.0
            self._divisors = diff
        return self._divisors

    def _require(self, x: BlockMatrix):
        if x.partition is not self.partition and not x.partition.equivalent(self.partition):
            raise InvalidInputError("matrix does not live on the context partition")


def block_diagonal(ctx: TransformContext, x: BlockMatrix) -> BlockMatrix:
    """Diagonal-block part of ``x`` (one block per group kept)."""
    ctx._require(x)
    same = ctx.partition.same_group_mask()
    data = np.where(same, x.data, 0.0)
    return BlockMatrix(ctx.partition, data)


def off_diagonal_part(ctx: TransformContext, x: BlockMatrix) -> BlockMatrix:
    """``x`` minus its diagonal blocks."""
    ctx._require(x)
    same = ctx.partition.same_group_mask()
    data = np.where(same, 0.0, x.data)
    return BlockMatrix(ctx.partition, data)


def commutator_inverse(ctx: TransformContext, x: BlockMatrix) -> BlockMatrix:
    """Solve A Y - Y A = x - block_diagonal(x) with zero diagonal blocks.

    Entry (p, q) of the result is ``x[p, q] / (lambda_p - lambda_q)`` for
    positions in different groups and exactly zero inside a group.
    """
    ctx._require(x)
    same = ctx.partition.same_group_mask()
    data = np.where(same, 0.0, x.data / ctx.divisors())
    return BlockMatrix(ctx.partition, data)


def commutator_residual(ctx: TransformContext, x: BlockMatrix) -> float:
    """Frobenius residual of A Y - Y A = x - block_diagonal(x) for Y = commutator_inverse(x)."""
    y = commutator_inverse(ctx, x)
    lam = ctx.spectrum.position_values
    lhs = lam[:, None] * y.data - y.data * lam[None, :]
    rhs = off_diagonal_part(ctx, x).data
    return float(np.linalg.norm(lhs - rhs))
