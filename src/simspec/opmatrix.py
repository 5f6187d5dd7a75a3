"""Truncated operator matrices split into blocks by spectral groups.

A free operator is described by its spectrum: contiguous integer
indices, one (distinct) eigenvalue and one multiplicity per index.
Perturbations are dense complex matrices carved into blocks by a
partition of the indices.  Everything downstream (transforms, weights,
pipelines) works on these three types:

* :class:`Spectrum` -- indices, eigenvalues and multiplicities,
* :class:`Partition` -- a spectrum plus a coarsening radius m: the
  indices |n| <= m form one central group and every other index is a
  group of its own (m = -1: singletons only); it caches the tables the
  transforms read, its same-group mask and its divisor table,
* :class:`BlockMatrix` -- a dense matrix read block by block.

A block operator has one representation, its dense matrix, so products
and norms run at numpy speed.  A block is absent exactly when all its
entries are exact zeros; no separate record of presence is kept, and the
algebra keeps absent blocks absent because sums and products of exact
zeros are exact zeros.  Per-block spectral norms take no Python loop
over blocks: a block with one row or one column is a vector, whose
spectral norm is its Frobenius norm, and the nonzero other blocks go
through one batched SVD per pair of width classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NotInvertibleError,
    PartitionMismatchError,
)

_COND_LIMIT = 1e12
_INV_RESIDUAL_LIMIT = 1e-10

__all__ = [
    "Spectrum",
    "Partition",
    "BlockMatrix",
    "NormReport",
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
    interior_fraction : float
        In (0, 1]; the indices |n| <= max(1, floor(N * interior_fraction)),
        N = max |n|, are the interior that a spectrum report shows.
    """

    def __init__(self, indices, values, mults=None, interior_fraction=0.5):
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
        if np.unique(values).size < values.size:
            raise InvalidInputError("eigenvalues must be pairwise distinct")
        if not (0.0 < interior_fraction <= 1.0):
            raise InvalidInputError("interior_fraction must lie in (0, 1]")
        self.indices = indices
        self.values = values
        self.mults = mults
        self.interior_fraction = interior_fraction
        self.dim = int(mults.sum())
        # dense layout: index order, each index occupying `mult` positions
        self.offsets = np.concatenate(([0], np.cumsum(mults)))[:-1]
        self.position_entry = np.repeat(np.arange(indices.size), mults)
        self.position_values = np.repeat(values, mults)

    def __len__(self):
        return self.indices.size

    def ordinal(self, n: int) -> int:
        """Array position of index ``n``."""
        i = int(n) - int(self.indices[0])
        if not 0 <= i < self.indices.size:
            raise InvalidInputError(f"index {n} outside spectrum range")
        return i

    def positions_of(self, n: int) -> np.ndarray:
        """Dense positions occupied by index ``n``."""
        i = self.ordinal(n)
        return np.arange(self.offsets[i], self.offsets[i] + self.mults[i])

    def value_of(self, n: int) -> complex:
        return complex(self.values[self.ordinal(n)])

    def interior_indices(self) -> np.ndarray:
        top = int(np.abs(self.indices).max())
        lim = max(1, int(math.floor(top * self.interior_fraction)))
        return self.indices[np.abs(self.indices) <= lim]

    def same_entries(self, other: "Spectrum") -> bool:
        return (
            np.array_equal(self.indices, other.indices)
            and np.array_equal(self.mults, other.mults)
            and np.array_equal(self.values, other.values)
        )


def spectral_gap(spectrum: Spectrum) -> float:
    """Minimal distance between two distinct eigenvalues."""
    v = spectrum.values
    if v.size < 2:
        return math.inf
    diff = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def gap_inverse_square_sum(spectrum: Spectrum) -> float:
    """Largest row sum of inverse square gaps, max_j sum_{n != j} |l_n - l_j|^-2."""
    v = spectrum.values
    if v.size < 2:
        return 0.0
    diff = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(diff, np.inf)
    return float((1.0 / diff**2).sum(axis=0).max())


class Partition:
    """Spectrum indices grouped around the center at a coarsening radius.

    Radius m >= 0 merges the indices |n| <= m into one central group;
    every other index is a group of its own.  Radius -1 (``trivial``)
    has no central group.  Groups are numbered central group first, then
    the singletons by index.  Groups never reorder the dense layout; they
    only tag positions.
    """

    def __init__(self, spectrum: Spectrum, radius: int):
        radius = int(radius)
        if radius < -1:
            raise InvalidInputError("partition radius must be >= -1")
        self.spectrum = spectrum
        self.radius = radius
        central = np.abs(spectrum.indices) <= radius
        has_center = int(central.any())
        # group per index: 0 for the center, singletons counted in index order
        gid = np.cumsum(~central) - 1 + has_center
        gid[central] = 0
        self.n_groups = int((~central).sum()) + has_center
        self.gid_of_position = gid[spectrum.position_entry]
        self.dims = np.bincount(self.gid_of_position, minlength=self.n_groups)
        # positions group by group: the center is contiguous and the
        # singletons keep position order; bounds[g] is where group g starts
        at_center = central[spectrum.position_entry]
        self.perm = np.concatenate((np.flatnonzero(at_center), np.flatnonzero(~at_center)))
        self.bounds = np.concatenate(([0], np.cumsum(self.dims)))[:-1]
        self._same_group = None
        self._divisors = None

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

    def same_group_mask(self) -> np.ndarray:
        """Boolean D x D mask, True where row and column share a group."""
        if self._same_group is None:
            g = self.gid_of_position
            self._same_group = g[:, None] == g[None, :]
        return self._same_group

    def divisors(self) -> np.ndarray:
        """D x D table lambda_row - lambda_col with same-group entries set to 1.

        Same-group entries are placeholders, never legitimate divisions;
        the commutator inverse zeroes them.
        """
        if self._divisors is None:
            lam = self.spectrum.position_values
            diff = lam[:, None] - lam[None, :]
            diff[self.same_group_mask()] = 1.0
            self._divisors = diff
        return self._divisors

    def group_positions(self, g: int) -> np.ndarray:
        """Dense positions of group ``g``, ascending."""
        return self.perm[self.bounds[g]:self.bounds[g] + self.dims[g]]

    def equivalent(self, other: "Partition") -> bool:
        """Same groups in the same order over the same spectrum."""
        return (
            np.array_equal(self.gid_of_position, other.gid_of_position)
            and self.spectrum.same_entries(other.spectrum)
        )


@dataclass(frozen=True)
class NormReport:
    """The three norms of a block matrix.

    ``hs`` is the Frobenius norm, ``hs_sigma`` the root sum of squared
    per-block spectral norms, ``op`` the full operator norm; the chain
    op <= hs_sigma <= hs always holds.
    """

    hs: float
    hs_sigma: float
    op: float


def op_norm(a: np.ndarray) -> float:
    """Exact operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(a, 2))


# bench/tracing.py wraps `operator_norm_estimate` by name; the alias goes
# when a benchmark change drops that name from its TRACED table.
operator_norm_estimate = op_norm


def _block_frobenius_sq(data: np.ndarray, partition: Partition) -> np.ndarray:
    """G x G matrix of per-block squared Frobenius norms."""
    absq = data.real**2 + data.imag**2
    perm, bounds = partition.perm, partition.bounds
    if perm.size and not np.array_equal(perm, np.arange(perm.size)):
        absq = absq[np.ix_(perm, perm)]
    s = np.add.reduceat(absq, bounds, axis=0)
    return np.add.reduceat(s, bounds, axis=1)


class BlockMatrix:
    """Dense complex d x d matrix read in blocks of a partition.

    ``data`` is the whole representation.  A block is absent exactly
    when its entries are all exact zeros; nothing else records presence.
    """

    __slots__ = ("partition", "data")

    def __init__(self, partition: Partition, data):
        data = np.asarray(data, dtype=complex)
        d = partition.spectrum.dim
        if data.shape != (d, d):
            raise InvalidInputError(f"data must be {d} x {d}")
        self.partition = partition
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, partition: Partition) -> "BlockMatrix":
        d = partition.spectrum.dim
        return cls(partition, np.zeros((d, d), dtype=complex))

    @classmethod
    def identity(cls, partition: Partition) -> "BlockMatrix":
        d = partition.spectrum.dim
        return cls(partition, np.eye(d, dtype=complex))

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
        return float(np.linalg.norm(self.data))

    def block_spectral_sq(self) -> np.ndarray:
        """G x G matrix of squared per-block spectral norms (absent -> 0).

        A block with one row or one column is a vector, whose spectral
        norm is its Frobenius norm, so one ``reduceat`` pass covers every
        such block.  Nonzero blocks with both widths above 1 are then
        overwritten by one gather and one batched SVD per pair of width
        classes.
        """
        part = self.partition
        out = _block_frobenius_sq(self.data, part)
        # (group ids, stacked positions) per width class above 1
        wide = []
        for w in np.unique(part.dims[part.dims > 1]):
            gids = np.flatnonzero(part.dims == w)
            wide.append((gids, part.perm[part.bounds[gids][:, None] + np.arange(w)]))
        for gi, rows in wide:
            for gj, cols in wide:
                bi, bj = np.nonzero(out[np.ix_(gi, gj)] > 0.0)
                if bi.size == 0:
                    continue
                stack = self.data[rows[bi][:, :, None], cols[bj][:, None, :]]
                svals = np.linalg.svd(stack, compute_uv=False)[:, 0]
                out[gi[bi], gj[bj]] = svals * svals
        return out

    def hs_sigma(self) -> float:
        return float(math.sqrt(self.block_spectral_sq().sum()))

    def op(self) -> float:
        return op_norm(self.data)

    def norms(self) -> NormReport:
        return NormReport(self.hs(), self.hs_sigma(), self.op())


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
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise NotInvertibleError("I + X is numerically singular", cond=cond)
    residual = float(np.linalg.norm(m @ inv - np.eye(d)))
    if residual > _INV_RESIDUAL_LIMIT:
        raise NotInvertibleError(
            f"inverse residual {residual:.3e} above {_INV_RESIDUAL_LIMIT:g}", cond=cond
        )
    return BlockMatrix(x.partition, inv)
