"""Block-diagonal projection and the commutator inverse on a partition.

For a diagonal free operator A and a partition Sigma of its eigenvalue
indices (the central group |n| <= m and singletons, see
:class:`~simspec.opmatrix.Partition`), two transforms drive everything:

* ``block_diagonal`` keeps the diagonal blocks (the part commuting with
  every group projection),
* ``commutator_inverse`` solves A Y - Y A = X - block_diagonal(X) for
  the unique Y with zero diagonal blocks; entrywise this divides the
  cross-group entries by the eigenvalue differences.

A transform acts on the partition of the matrix it is given; the result
lives on that same partition.  The commutator inverse divides by the
partition's divisor table, which the partition builds once and caches,
as it does its same-group mask.
"""

from __future__ import annotations

import numpy as np

from .opmatrix import BlockMatrix

__all__ = [
    "block_diagonal",
    "off_diagonal_part",
    "commutator_inverse",
    "commutator_residual",
]


def block_diagonal(x: BlockMatrix) -> BlockMatrix:
    """Diagonal-block part of ``x`` (one block per group kept)."""
    same = x.partition.same_group_mask()
    return BlockMatrix(x.partition, np.where(same, x.data, 0.0))


def off_diagonal_part(x: BlockMatrix) -> BlockMatrix:
    """``x`` minus its diagonal blocks."""
    same = x.partition.same_group_mask()
    return BlockMatrix(x.partition, np.where(same, 0.0, x.data))


def commutator_inverse(x: BlockMatrix) -> BlockMatrix:
    """Solve A Y - Y A = x - block_diagonal(x) with zero diagonal blocks.

    Entry (p, q) of the result is ``x[p, q] / (lambda_p - lambda_q)`` for
    positions in different groups and exactly zero inside a group.
    """
    part = x.partition
    data = np.where(part.same_group_mask(), 0.0, x.data / part.divisors())
    return BlockMatrix(part, data)


def commutator_residual(x: BlockMatrix) -> float:
    """Frobenius residual of A Y - Y A = x - block_diagonal(x) for Y = commutator_inverse(x)."""
    y = commutator_inverse(x)
    lam = x.partition.spectrum.position_values
    lhs = lam[:, None] * y.data - y.data * lam[None, :]
    rhs = off_diagonal_part(x).data
    return float(np.linalg.norm(lhs - rhs))
