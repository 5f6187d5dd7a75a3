"""Truncated operator matrices split into blocks by spectral groups.

A free operator is described by its spectrum: contiguous integer
indices, one (distinct) eigenvalue and one multiplicity per index.  Its
dense positions run in index order, each index taking as many as its
multiplicity.  The table of eigenvalue gaps that the contraction bounds
read is derived from the spectrum once and cached on it.
Perturbations are dense complex matrices carved into blocks by a
partition of the indices.  Everything downstream (transforms, weights,
pipelines) works on these three types:

* :class:`Spectrum` -- indices, eigenvalues and multiplicities,
* :class:`Partition` -- a spectrum plus a coarsening radius m: the
  indices |n| <= m form one central group and every other index is a
  group of its own (m = -1: singletons only); groups are numbered in
  index order, so each group is one run of dense positions; the
  partition caches no d x d table, only its groups of each width above
  1 and the positions of the entries inside its diagonal blocks,
* :class:`BlockMatrix` -- an immutable dense matrix read block by block.

A perturbation of finite rank r may also be held by its generators,
B = P Q^H with P and Q of d x r (:class:`LowRank`).  That form is not a
second block operator: nothing of the block algebra reads it.  It
serves the readers that need B only through a few entries, products
with vectors and its Frobenius norm, in O(d r) instead of O(d^2).

A block operator has one representation, its dense matrix, so products
and norms run at numpy speed.  The matrix is read-only once wrapped, so
its Frobenius norm is a property of the object: it is taken once, in
one contiguous BLAS pass over the float64 view of the entries, and
stored.  A block is absent exactly when all its entries are exact
zeros; no separate record of presence is kept, and the algebra keeps
absent blocks absent because sums and products of exact zeros are exact
zeros.  Per-block spectral norms take no Python loop
over blocks: a block with one row or one column is a vector, whose
spectral norm is its Frobenius norm, 2 x 2 blocks have a closed form,
and the nonzero other blocks go through one batched SVD per pair of
width classes.  ``hs_sigma`` needs only their sum, so it takes the
squares of the entries outside the wide-by-wide blocks in one pass and
builds no G x G table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidInputError,
    NotInvertibleError,
    PartitionMismatchError,
)

COND_LIMIT = 1e12
INV_RESIDUAL_LIMIT = 1e-10

__all__ = [
    "Spectrum",
    "Partition",
    "BlockMatrix",
    "LowRank",
    "spectral_gap",
    "gap_inverse_square_sum",
    "inv_identity_plus",
]


class Spectrum:
    """Distinct eigenvalues of a diagonal free operator.

    Parameters
    ----------
    indices : array of int
        Contiguous ascending integer labels.  Model builders always
        produce the symmetric range -N..N; internally re-derived spectra
        may be off-center by one.
    values : array of complex
        Finite, pairwise distinct eigenvalues, one per index.
    mults : array of int, optional
        Multiplicities (default all 1).

    ``position_index`` and ``position_values`` give the index and the
    eigenvalue of each of the ``dim`` dense positions, in index order.
    """

    def __init__(self, indices, values, mults=None):
        indices = np.asarray(indices, dtype=int)
        values = np.asarray(values, dtype=complex)
        if indices.ndim != 1 or values.shape != indices.shape:
            raise InvalidInputError("indices and values must be 1-d and equal length")
        if indices.size == 0:
            raise InvalidInputError("spectrum must be nonempty")
        if not np.array_equal(indices, np.arange(indices[0], indices[0] + indices.size)):
            raise InvalidInputError("indices must form a contiguous ascending range")
        if mults is None:
            mults = np.ones(indices.size, dtype=int)
        else:
            mults = np.asarray(mults, dtype=int)
            if mults.shape != indices.shape or np.any(mults < 1):
                raise InvalidInputError("mults must be positive, one per index")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("eigenvalues must be finite")
        # equal values are neighbours once sorted by real, then imaginary part
        ordered = values[np.lexsort((values.imag, values.real))]
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidInputError("eigenvalues must be pairwise distinct")
        self.indices = indices
        self.values = values
        self.mults = mults
        self.dim = int(mults.sum())
        self.position_index = np.repeat(indices, mults)
        self.position_values = np.repeat(values, mults)
        self._gaps = None

    def ordinal(self, n: int) -> int:
        """Array position of index ``n``."""
        i = int(n) - int(self.indices[0])
        if not 0 <= i < self.indices.size:
            raise InvalidInputError(f"index {n} outside spectrum range")
        return i

    def positions_of(self, n: int) -> np.ndarray:
        """Dense positions occupied by index ``n``."""
        return np.flatnonzero(self.position_index == self.indices[self.ordinal(n)])

    def value_of(self, n: int) -> complex:
        return complex(self.values[self.ordinal(n)])

    def interior_indices(self, fraction: float = 0.5) -> np.ndarray:
        """The indices |n| <= max(1, floor(N * fraction)), N = max |n|;
        ``fraction`` lies in (0, 1]."""
        if not (0.0 < fraction <= 1.0):
            raise InvalidInputError("interior fraction must lie in (0, 1]")
        top = int(np.abs(self.indices).max())
        lim = max(1, int(math.floor(top * fraction)))
        return self.indices[np.abs(self.indices) <= lim]

    def gaps(self) -> np.ndarray:
        """Table |lambda_j - lambda_l| over index pairs, inf on the diagonal.

        Built on first use and cached read-only.
        """
        if self._gaps is None:
            v = self.values
            diff = np.abs(v[:, None] - v[None, :])
            np.fill_diagonal(diff, np.inf)
            diff.flags.writeable = False
            self._gaps = diff
        return self._gaps

    def same_entries(self, other: "Spectrum") -> bool:
        # values are finite, so a spectrum always equals itself
        return other is self or (
            np.array_equal(self.indices, other.indices)
            and np.array_equal(self.mults, other.mults)
            and np.array_equal(self.values, other.values)
        )


def spectral_gap(spectrum: Spectrum) -> float:
    """Minimal distance between two distinct eigenvalues (inf for one)."""
    return float(spectrum.gaps().min())


def gap_inverse_square_sum(spectrum: Spectrum) -> float:
    """Largest row sum of inverse square gaps, max_j sum_{n != j} |l_n - l_j|^-2
    (0 for one eigenvalue)."""
    return float((1.0 / spectrum.gaps() ** 2).sum(axis=0).max())


class Partition:
    """Spectrum indices grouped around the center at a coarsening radius.

    Radius m >= 0 merges the indices |n| <= m into one central group;
    every other index is a group of its own.  Radius -1 (``trivial``)
    has no central group.  Groups are numbered in index order, the
    central group at its natural place, so group g is the run of dense
    positions ``bounds[g] .. bounds[g] + dims[g] - 1``.
    """

    def __init__(self, spectrum: Spectrum, radius: int):
        radius = int(radius)
        if radius < -1:
            raise InvalidInputError("partition radius must be >= -1")
        self.spectrum = spectrum
        self.radius = radius
        central = np.abs(spectrum.indices) <= radius
        # a new group starts at every index but a central one after another
        starts = np.ones(central.size, dtype=int)
        starts[1:] -= central[1:] & central[:-1]
        gid = np.cumsum(starts) - 1
        self.n_groups = int(gid[-1]) + 1
        self.gid_of_position = np.repeat(gid, spectrum.mults)
        self.dims = np.bincount(self.gid_of_position, minlength=self.n_groups)
        self.bounds = np.concatenate(([0], np.cumsum(self.dims)))[:-1]
        # positions of the groups of width 1
        self.narrow = self.dims[self.gid_of_position] == 1
        self._wide = None
        self._in_block = None

    @classmethod
    def trivial(cls, spectrum: Spectrum) -> "Partition":
        """One group per index."""
        return cls(spectrum, -1)

    @classmethod
    def coarse(cls, spectrum: Spectrum, m: int) -> "Partition":
        """Indices |n| <= m merged into the central group, rest singletons."""
        if m < 0:
            raise InvalidInputError("coarsening radius must be >= 0")
        if not np.any(np.abs(spectrum.indices) <= m):
            raise InvalidInputError("central group is empty")
        return cls(spectrum, m)

    def wide_classes(self) -> list:
        """``(group ids, positions)`` per group width above 1, ascending.

        ``positions`` is a k x w array whose row i holds the dense
        positions of group ``group ids[i]``; every group of width w is
        in one class, so a batched operation covers all its blocks.
        """
        if self._wide is None:
            self._wide = []
            # np.unique imports numpy.ma on its first call, which a pipeline then pays for
            widths = np.flatnonzero(np.bincount(self.dims))
            for w in widths[widths > 1]:
                gids = np.flatnonzero(self.dims == w)
                self._wide.append((gids, self.bounds[gids][:, None] + np.arange(w)))
        return self._wide

    def block_entries(self) -> tuple:
        """``(rows, cols)`` of every entry inside a diagonal block: the
        width-1 groups, then the w x w blocks of each width class."""
        if self._in_block is None:
            p = np.flatnonzero(self.narrow)
            rows, cols = [p], [p]
            for _, pos in self.wide_classes():
                w = pos.shape[1]
                rows.append(np.repeat(pos, w, axis=1).ravel())
                cols.append(np.tile(pos, w).ravel())
            self._in_block = (np.concatenate(rows), np.concatenate(cols))
        return self._in_block

    def equivalent(self, other: "Partition") -> bool:
        """Same groups in the same order over the same spectrum."""
        return (
            np.array_equal(self.gid_of_position, other.gid_of_position)
            and self.spectrum.same_entries(other.spectrum)
        )


def op_norm(a: np.ndarray) -> float:
    """Exact operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(a, 2))


# bench/tracing.py wraps `operator_norm_estimate` by name; the alias goes
# when a benchmark change drops that name from its TRACED table.
operator_norm_estimate = op_norm


def _block_frobenius_sq(data: np.ndarray, partition: Partition) -> np.ndarray:
    """G x G matrix of per-block squared Frobenius norms."""
    absq = data.real**2 + data.imag**2
    s = np.add.reduceat(absq, partition.bounds, axis=0)
    return np.add.reduceat(s, partition.bounds, axis=1)


def _spectral_sq_2x2(stack: np.ndarray) -> np.ndarray:
    """Squared largest singular values of a stack of 2 x 2 blocks.

    With p and q the squared row norms and r = row_1 . conj(row_2), the
    eigenvalues of M M* are (p + q)/2 -+ hypot((p - q)/2, |r|).  Every
    term of the larger one is non-negative, so nothing cancels.
    """
    absq = stack.real**2 + stack.imag**2
    p = absq[:, 0, 0] + absq[:, 0, 1]
    q = absq[:, 1, 0] + absq[:, 1, 1]
    r = stack[:, 0, 0] * stack[:, 1, 0].conj() + stack[:, 0, 1] * stack[:, 1, 1].conj()
    return 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(r))


def _wide_spectral_sq(data: np.ndarray, partition: Partition):
    """Squared spectral norms of the nonzero blocks whose two widths both exceed 1.

    Yields ``(row group ids, column group ids, squared norms)`` once per
    pair of width classes: one gather of the class pair's blocks, then
    the closed form for 2 x 2 blocks or one batched SVD for the others.
    """
    wide = partition.wide_classes()
    for gi, rows in wide:
        for gj, cols in wide:
            stack = data[rows[:, None, :, None], cols[None, :, None, :]]
            bi, bj = np.nonzero(stack.any(axis=(2, 3)))
            if bi.size == 0:
                continue
            stack = stack[bi, bj]
            if stack.shape[1:] == (2, 2):
                sq = _spectral_sq_2x2(stack)
            else:
                svals = np.linalg.svd(stack, compute_uv=False)[:, 0]
                sq = svals * svals
            yield gi[bi], gj[bj], sq


class BlockMatrix:
    """Immutable dense complex d x d matrix read in blocks of a partition.

    ``data`` is the whole representation.  A block is absent exactly
    when its entries are all exact zeros; nothing else records presence.
    The constructor marks ``data`` read-only (an array passed in is
    wrapped, not copied, so the caller fills it first), and ``hs()``
    stores the Frobenius norm the first time it is asked for.
    """

    __slots__ = ("partition", "data", "_hs")

    def __init__(self, partition: Partition, data):
        data = np.asarray(data, dtype=complex)
        d = partition.spectrum.dim
        if data.shape != (d, d):
            raise InvalidInputError(f"data must be {d} x {d}")
        data.flags.writeable = False
        self.partition = partition
        self.data = data
        self._hs = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, partition: Partition) -> "BlockMatrix":
        d = partition.spectrum.dim
        return cls(partition, np.zeros((d, d), dtype=complex))

    # -- structure ----------------------------------------------------

    def dense(self) -> np.ndarray:
        return self.data.copy()

    def _require_same(self, other: "BlockMatrix"):
        if self.partition is not other.partition and not self.partition.equivalent(other.partition):
            raise PartitionMismatchError("operands live on different partitions")

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        return BlockMatrix(self.partition, self.data + other.data)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        return BlockMatrix(self.partition, self.data - other.data)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        return BlockMatrix(self.partition, self.data @ other.data)

    # -- norms ----------------------------------------------------------

    def hs(self) -> float:
        """Frobenius norm, taken once per object.

        One dot product of the float64 view with itself: the same
        non-negative squares as ``np.linalg.norm`` in another order, in
        one contiguous pass instead of two strided ones.  A sum that
        overflows gives inf without a warning.
        """
        if self._hs is None:
            f = self.data.ravel(order="K").view(np.float64)
            with np.errstate(over="ignore"):
                self._hs = math.sqrt(f @ f)
        return self._hs

    def block_spectral_sq(self) -> np.ndarray:
        """G x G matrix of squared per-block spectral norms (absent -> 0).

        A block with one row or one column is a vector, whose spectral
        norm is its Frobenius norm, so one ``reduceat`` pass covers every
        such block.  Nonzero blocks with both widths above 1 are then
        overwritten from :func:`_wide_spectral_sq`.
        """
        out = _block_frobenius_sq(self.data, self.partition)
        for gi, gj, sq in _wide_spectral_sq(self.data, self.partition):
            out[gi, gj] = sq
        return out

    def hs_sigma(self) -> float:
        """Root sum of squared per-block spectral norms, in one pass.

        The entries outside the blocks whose two widths both exceed 1
        lie in vectors, so their squares enter as they are: whole rows
        of the width-1 groups, and the width-1 columns of the other
        rows.  Each wider block adds its largest singular value squared
        (:func:`_wide_spectral_sq`).  Every term is non-negative, so
        nothing cancels.
        """
        part = self.partition
        narrow = part.narrow
        f = np.ascontiguousarray(self.data).view(np.float64)
        total = np.einsum("ij,ij->i", f, f)[narrow].sum()
        side = self.data[np.ix_(~narrow, narrow)].view(np.float64)
        total += np.einsum("ij,ij->", side, side)
        for _, _, sq in _wide_spectral_sq(self.data, part):
            total += sq.sum()
        return math.sqrt(total)

    def op(self) -> float:
        return op_norm(self.data)


class LowRank:
    """Immutable d x d matrix B = P Q^H held by its generators.

    ``p`` and ``q`` are d x r and read-only once wrapped, as
    :class:`BlockMatrix` makes its data.  ``hs()`` stores the Frobenius
    norm the first time it is asked for; it reads the r x r Gram
    matrices, ||B||_F^2 = sum_ij (P^H P)_ij (Q^H Q)_ji, so it costs
    O(d r^2) and forms no d x d array.
    """

    __slots__ = ("p", "q", "_hs")

    def __init__(self, p, q):
        p = np.asarray(p, dtype=complex)
        q = np.asarray(q, dtype=complex)
        if p.ndim != 2 or p.shape != q.shape:
            raise InvalidInputError("generators P and Q must both be d x r")
        p.flags.writeable = False
        q.flags.writeable = False
        self.p = p
        self.q = q
        self._hs = None

    def hs(self) -> float:
        """Frobenius norm from the Gram matrices, taken once per object.

        The sum is real and non-negative in exact arithmetic; rounding
        can leave it a little below zero when the terms cancel, which
        reads as 0.  A sum that overflows gives inf or NaN without a
        warning.
        """
        if self._hs is None:
            with np.errstate(over="ignore", invalid="ignore"):
                pp = self.p.conj().T @ self.p
                qq = self.q.conj().T @ self.q
                sq = float(np.sum(pp * qq.T).real)
            self._hs = math.sqrt(sq) if not sq < 0.0 else 0.0
        return self._hs

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """B vec as P (Q^H vec), in O(d r)."""
        return self.p @ (self.q.conj().T @ vec)


def inv_identity_plus(x: BlockMatrix) -> BlockMatrix:
    """Inverse of I + X as a block matrix on the same partition.

    Refuses I + X when LAPACK finds it singular or when
    kappa_F = ||I+X||_F ||(I+X)^-1||_F exceeds 1e12; kappa_F bounds the
    spectral condition number from above, so nothing with a condition
    number above the limit passes.  Then enforces the residual gate
    ||(I+X)(I+X)^-1 - I||_F <= 1e-10.  The Frobenius norm bounds the
    operator norm from above, so the gate never passes a residual whose
    operator norm exceeds the limit.
    """
    d = x.partition.spectrum.dim
    m = np.eye(d, dtype=complex) + x.data
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise NotInvertibleError("I + X is singular", cond=math.inf) from None
    cond = float(np.linalg.norm(m) * np.linalg.norm(inv))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise NotInvertibleError("I + X is numerically singular", cond=cond)
    residual = float(np.linalg.norm(m @ inv - np.eye(d)))
    if residual > INV_RESIDUAL_LIMIT:
        raise NotInvertibleError(
            f"inverse residual {residual:.3e} above {INV_RESIDUAL_LIMIT:g}", cond=cond
        )
    return BlockMatrix(x.partition, inv)
