"""Block-diagonal projection and the commutator inverse on a partition.

For a diagonal free operator A and a partition Sigma of its eigenvalue
indices (the central group |n| <= m and singletons, see
:class:`~simspec.opmatrix.Partition`), two transforms drive everything:

* ``block_diagonal`` keeps the diagonal blocks (the part commuting with
  every group projection),
* ``commutator_inverse`` solves A Y - Y A = X - block_diagonal(X) for
  the unique Y with zero diagonal blocks; entrywise this divides the
  cross-group entries by the eigenvalue differences.

Two products with a block-diagonal factor take no dense product:
``times_block_diagonal`` forms X J(M) and ``block_diagonal_of_product``
forms J(X Y).  On a width-1 group the first is a column scaling and the
second a row-column dot product; the groups of each wider width take
one batched product.

A transform acts on the partition of the matrix it is given; the result
lives on that same partition.  The commutator inverse divides by the
partition's divisor table, which the partition builds once and caches,
as it does its same-group mask and its width classes.
"""

from __future__ import annotations

import numpy as np

from .opmatrix import BlockMatrix

__all__ = [
    "block_diagonal",
    "times_block_diagonal",
    "block_diagonal_of_product",
    "off_diagonal_part",
    "commutator_inverse",
    "commutator_residual",
]


def block_diagonal(x: BlockMatrix) -> BlockMatrix:
    """Diagonal-block part of ``x`` (one block per group kept)."""
    same = x.partition.same_group_mask()
    return BlockMatrix(x.partition, np.where(same, x.data, 0.0))


def times_block_diagonal(x: BlockMatrix, m: BlockMatrix) -> BlockMatrix:
    """``x @ block_diagonal(m)`` without a dense product.

    Column p of the result, for p in a width-1 group, is column p of
    ``x`` scaled by ``m[p, p]``; the columns of each wider group are
    ``x[:, group] @ m[group, group]``, one batched product per width.
    """
    x._require_same(m)
    out = x.data * np.diagonal(m.data)
    for _, pos in x.partition.wide_classes():
        blocks = m.data[pos[:, :, None], pos[:, None, :]]
        out[:, pos] = np.matmul(x.data[:, pos].transpose(1, 0, 2), blocks).transpose(1, 0, 2)
    return BlockMatrix(x.partition, out)


def block_diagonal_of_product(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """``block_diagonal(x @ y)`` without a dense product.

    Entry (p, p), for p in a width-1 group, is row p of ``x`` dotted
    with column p of ``y``; each wider group takes
    ``x[group, :] @ y[:, group]``, one batched product per width.
    """
    x._require_same(y)
    part = x.partition
    out = np.zeros_like(x.data)
    p = np.flatnonzero(part.narrow)
    out[p, p] = np.einsum("pk,kp->p", x.data, y.data)[p]
    for _, pos in part.wide_classes():
        blocks = np.matmul(x.data[pos], y.data[:, pos].transpose(1, 0, 2))
        out[pos[:, :, None], pos[:, None, :]] = blocks
    return BlockMatrix(part, out)


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
