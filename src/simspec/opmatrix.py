"""Truncated operator matrices split into blocks by spectral groups.

A free operator is described by its (distinct) eigenvalues on a symmetric
truncation window; perturbations are dense complex matrices carved into
blocks by a partition of the eigenvalue indices.  Everything downstream
(transforms, weights, pipelines) works on these three types:

* :class:`Spectrum` -- eigenvalues, multiplicities and the window,
* :class:`Partition` -- ordered disjoint groups of spectrum indices,
* :class:`BlockMatrix` -- a matrix plus a presence mask at block level.

Blocks that are absent from the mask are exact zeros, and block products
skip absent operands; the numeric payload is kept dense so that products
and norms run at numpy speed.  Per-block spectral norms take no Python
loop over blocks: a block with one row or one column is a vector, whose
spectral norm is its Frobenius norm, and the other blocks go through one
batched SVD per pair of width classes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    InvariantBreachError,
    NotInvertibleError,
    ParseError,
    PartitionMismatchError,
)

_COND_LIMIT = 1e12
_INV_RESIDUAL_LIMIT = 1e-10

__all__ = [
    "TruncationWindow",
    "Spectrum",
    "Partition",
    "BlockMatrix",
    "NormReport",
    "spectral_gap",
    "gap_inverse_square_sum",
    "free_diagonal",
    "inv_identity_plus",
    "operator_norm_estimate",
]


@dataclass(frozen=True)
class TruncationWindow:
    """Symmetric index window [-N, N] with an interior reporting zone.

    Parameters
    ----------
    half_width : int
        N; the window covers integer indices -N..N.
    interior_fraction : float
        Fraction of the window treated as truncation-safe for reporting;
        indices with ``|n| <= interior_limit`` count as interior.
    """

    half_width: int
    interior_fraction: float = 0.5

    def __post_init__(self):
        if self.half_width < 1:
            raise InvalidInputError("window half_width must be >= 1")
        if not (0.0 < self.interior_fraction <= 1.0):
            raise InvalidInputError("interior_fraction must lie in (0, 1]")

    @property
    def interior_limit(self) -> int:
        return max(1, int(math.floor(self.half_width * self.interior_fraction)))

    def indices(self) -> np.ndarray:
        n = self.half_width
        return np.arange(-n, n + 1)


class Spectrum:
    """Distinct eigenvalues of a diagonal free operator on a window.

    Parameters
    ----------
    indices : array of int
        Contiguous ascending integer labels.  Model builders always
        produce the symmetric range -N..N; internally re-derived spectra
        may be off-center by one.
    values : array of complex
        Pairwise distinct eigenvalues, one per index.
    mults : array of int, optional
        Multiplicities (default all 1).
    window : TruncationWindow, optional
        Defaults to the smallest window covering the indices.
    """

    def __init__(self, indices, values, mults=None, window=None):
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
        if indices.size > 1:
            diff = np.abs(values[:, None] - values[None, :])
            np.fill_diagonal(diff, np.inf)
            if diff.min() == 0.0:
                raise InvalidInputError("eigenvalues must be pairwise distinct")
        if window is None:
            window = TruncationWindow(max(1, int(max(-indices[0], indices[-1]))))
        self.indices = indices
        self.values = values
        self.mults = mults
        self.window = window
        self.dim = int(mults.sum())
        # dense layout: index order, each index occupying `mult` positions
        self.offsets = np.concatenate(([0], np.cumsum(mults)))[:-1]
        self.position_entry = np.repeat(np.arange(indices.size), mults)
        self.position_values = np.repeat(values, mults)
        self._ord = {int(n): i for i, n in enumerate(indices)}

    def __len__(self):
        return self.indices.size

    def ordinal(self, n: int) -> int:
        """Array position of index ``n``."""
        try:
            return self._ord[int(n)]
        except KeyError:
            raise InvalidInputError(f"index {n} outside spectrum range") from None

    def positions_of(self, n: int) -> np.ndarray:
        """Dense positions occupied by index ``n``."""
        i = self.ordinal(n)
        return np.arange(self.offsets[i], self.offsets[i] + self.mults[i])

    def value_of(self, n: int) -> complex:
        return complex(self.values[self.ordinal(n)])

    def interior_indices(self) -> np.ndarray:
        lim = self.window.interior_limit
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


def free_diagonal(spectrum: Spectrum) -> np.ndarray:
    """Dense diagonal of the free operator (eigenvalue per position)."""
    return spectrum.position_values.copy()


class Partition:
    """Ordered disjoint groups of spectrum indices with integer labels.

    Groups never reorder the dense layout; they only tag positions.  The
    label of a group is the integer the weight machinery sees (tails are
    taken over ``|label| >= |n|``), so trivial partitions label groups by
    their spectrum index and a central merge keeps label 0.
    """

    def __init__(self, spectrum: Spectrum, groups, labels, kind="custom"):
        self.spectrum = spectrum
        groups = tuple(tuple(int(i) for i in g) for g in groups)
        labels = tuple(int(l) for l in labels)
        if len(groups) != len(labels):
            raise InvalidInputError("one label per group required")
        if len(set(labels)) != len(labels):
            raise InvalidInputError("group labels must be unique")
        seen = [i for g in groups for i in g]
        if sorted(seen) != sorted(int(n) for n in spectrum.indices):
            raise InvalidInputError("groups must partition the spectrum indices")
        self.groups = groups
        self.labels = labels
        self.kind = kind
        self.n_groups = len(groups)
        self.positions = [
            np.concatenate([spectrum.positions_of(i) for i in sorted(g)]) for g in groups
        ]
        self.dims = np.array([p.size for p in self.positions])
        gid = np.empty(spectrum.dim, dtype=int)
        for g, pos in enumerate(self.positions):
            gid[pos] = g
        self.gid_of_position = gid
        self._label_to_gid = {l: g for g, l in enumerate(labels)}
        self._same_group = None
        self._perm = None

    # -- constructors -------------------------------------------------

    @classmethod
    def trivial(cls, spectrum: Spectrum) -> "Partition":
        """One group per index, labelled by the index."""
        return cls(spectrum, [(int(n),) for n in spectrum.indices], spectrum.indices, "trivial")

    @classmethod
    def two_part(cls, spectrum: Spectrum, k: int) -> "Partition":
        """({k}, complement); the singled-out index gets label 0."""
        rest = tuple(int(n) for n in spectrum.indices if n != k)
        if len(rest) == len(spectrum):
            raise InvalidInputError(f"index {k} not in spectrum")
        return cls(spectrum, [(int(k),), rest], (0, 1), "two_part")

    @classmethod
    def coarse(cls, spectrum: Spectrum, m: int) -> "Partition":
        """Indices |n| <= m merged into one group (label 0), rest singletons."""
        if m < 0:
            raise InvalidInputError("coarsening radius must be >= 0")
        center = tuple(int(n) for n in spectrum.indices if abs(n) <= m)
        if not center:
            raise InvalidInputError("central group is empty")
        groups = [center]
        labels = [0]
        for n in spectrum.indices:
            if abs(n) > m:
                groups.append((int(n),))
                labels.append(int(n))
        return cls(spectrum, groups, labels, "coarse")

    # -- helpers ------------------------------------------------------

    def gid(self, label: int) -> int:
        try:
            return self._label_to_gid[int(label)]
        except KeyError:
            raise InvalidInputError(f"no group labelled {label}") from None

    def group_indices(self, label: int):
        return self.groups[self.gid(label)]

    def label_array(self) -> np.ndarray:
        return np.array(self.labels)

    def same_group_mask(self) -> np.ndarray:
        """Boolean D x D mask, True where row and column share a group."""
        if self._same_group is None:
            g = self.gid_of_position
            self._same_group = g[:, None] == g[None, :]
        return self._same_group

    def grouping_permutation(self):
        """(perm, boundaries) ordering positions group by group."""
        if self._perm is None:
            perm = np.concatenate(self.positions)
            boundaries = np.concatenate(([0], np.cumsum(self.dims)))[:-1]
            self._perm = (perm, boundaries)
        return self._perm

    def equivalent(self, other: "Partition") -> bool:
        return (
            self.groups == other.groups
            and self.labels == other.labels
            and self.spectrum.same_entries(other.spectrum)
        )

    def refines(self, coarser: "Partition") -> bool:
        """True if every group of self sits inside one group of `coarser`."""
        if not self.spectrum.same_entries(coarser.spectrum):
            return False
        owner = {}
        for g, grp in enumerate(coarser.groups):
            for i in grp:
                owner[i] = g
        for grp in self.groups:
            owners = {owner[i] for i in grp}
            if len(owners) != 1:
                return False
        return True

    def coarse_map(self, coarser: "Partition") -> np.ndarray:
        """For each group of self, the group id it occupies in `coarser`."""
        if not self.refines(coarser):
            raise PartitionMismatchError("target partition is not a coarsening")
        owner = {}
        for g, grp in enumerate(coarser.groups):
            for i in grp:
                owner[i] = g
        return np.array([owner[grp[0]] for grp in self.groups])


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

    def check(self, slack: float = 1e-9):
        scale = max(self.hs, 1.0)
        if self.hs_sigma > self.hs + slack * scale or self.op > self.hs_sigma + slack * scale:
            raise InvariantBreachError(
                f"norm ordering violated: op={self.op!r} hs_sigma={self.hs_sigma!r} hs={self.hs!r}"
            )
        return self


def operator_norm_estimate(a: np.ndarray, tol: float = 1e-12, max_iter: int | None = None) -> float:
    """Largest singular value by power iteration on a*a.

    Deterministic seeded start; stops on relative stagnation below `tol`
    or after ``10 * dim`` iterations.
    """
    a = np.asarray(a)
    d = a.shape[0]
    if d == 0 or not a.any():
        return 0.0
    if d == 1:
        return float(abs(a[0, 0]))
    rng = np.random.default_rng(181081)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    ah = a.conj().T
    cap = max_iter if max_iter is not None else 10 * d
    sigma = 0.0
    for _ in range(cap):
        w = a @ v
        s = float(np.linalg.norm(w))
        if s == 0.0:
            return 0.0
        u = ah @ w
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return s
        v = u / nu
        if abs(s - sigma) <= tol * max(s, 1e-300):
            return s
        sigma = s
    return sigma


def _block_frobenius_sq(data: np.ndarray, partition: Partition) -> np.ndarray:
    """G x G matrix of per-block squared Frobenius norms."""
    absq = data.real**2 + data.imag**2
    perm, bounds = partition.grouping_permutation()
    if perm.size and not np.array_equal(perm, np.arange(perm.size)):
        absq = absq[np.ix_(perm, perm)]
    s = np.add.reduceat(absq, bounds, axis=0)
    return np.add.reduceat(s, bounds, axis=1)


class BlockMatrix:
    """Complex matrix on a partition with exact-zero absent blocks."""

    __slots__ = ("partition", "data", "mask")

    def __init__(self, partition: Partition, data, mask=None, *, validate=True):
        data = np.asarray(data, dtype=complex)
        d = partition.spectrum.dim
        if data.shape != (d, d):
            raise InvalidInputError(f"data must be {d} x {d}")
        if mask is None:
            mask = _block_frobenius_sq(data, partition) > 0.0
            validate = False  # mask freshly derived from the data
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (partition.n_groups, partition.n_groups):
                raise InvalidInputError("mask shape must be (groups, groups)")
        if validate:
            gid = partition.gid_of_position
            allowed = mask[np.ix_(gid, gid)]
            data = np.where(allowed, data, 0.0)
        self.partition = partition
        self.data = data
        self.mask = mask

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, partition: Partition) -> "BlockMatrix":
        d = partition.spectrum.dim
        g = partition.n_groups
        return cls(partition, np.zeros((d, d), dtype=complex), np.zeros((g, g), dtype=bool), validate=False)

    @classmethod
    def identity(cls, partition: Partition) -> "BlockMatrix":
        d = partition.spectrum.dim
        return cls(partition, np.eye(d, dtype=complex), np.eye(partition.n_groups, dtype=bool), validate=False)

    @classmethod
    def from_dense(cls, partition: Partition, array) -> "BlockMatrix":
        """Wrap a dense matrix; blocks that are exactly zero become absent."""
        return cls(partition, np.array(array, dtype=complex))

    @classmethod
    def from_blocks(cls, partition: Partition, blocks: dict) -> "BlockMatrix":
        """Assemble from ``{(row_label, col_label): block}``; rest absent."""
        d = partition.spectrum.dim
        data = np.zeros((d, d), dtype=complex)
        mask = np.zeros((partition.n_groups, partition.n_groups), dtype=bool)
        for (li, lj), blk in blocks.items():
            gi, gj = partition.gid(li), partition.gid(lj)
            blk = np.asarray(blk, dtype=complex)
            want = (partition.dims[gi], partition.dims[gj])
            if blk.shape != want:
                raise InvalidInputError(
                    f"block ({li},{lj}) has shape {blk.shape}, expected {want}"
                )
            data[np.ix_(partition.positions[gi], partition.positions[gj])] = blk
            mask[gi, gj] = True
        return cls(partition, data, mask, validate=False)

    # -- structure ----------------------------------------------------

    def block(self, row_label: int, col_label: int):
        """Copy of one block, or None when absent."""
        gi, gj = self.partition.gid(row_label), self.partition.gid(col_label)
        if not self.mask[gi, gj]:
            return None
        return self.data[np.ix_(self.partition.positions[gi], self.partition.positions[gj])].copy()

    def present_blocks(self):
        """Iterate (row_label, col_label) of present blocks, row-major."""
        labels = self.partition.labels
        for gi, gj in zip(*np.nonzero(self.mask)):
            yield labels[gi], labels[gj]

    def dense(self) -> np.ndarray:
        return self.data.copy()

    def _require_same(self, other: "BlockMatrix"):
        if self.partition is not other.partition and not self.partition.equivalent(other.partition):
            raise PartitionMismatchError("operands live on different partitions")

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        return BlockMatrix(self.partition, self.data + other.data, self.mask | other.mask, validate=False)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        return BlockMatrix(self.partition, self.data - other.data, self.mask | other.mask, validate=False)

    def __mul__(self, c) -> "BlockMatrix":
        return BlockMatrix(self.partition, self.data * complex(c), self.mask.copy(), validate=False)

    __rmul__ = __mul__

    def __neg__(self) -> "BlockMatrix":
        return self * (-1.0)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._require_same(other)
        # presence propagates only through chains of present blocks
        mask = (self.mask.astype(np.uint16) @ other.mask.astype(np.uint16)) > 0
        return BlockMatrix(self.partition, self.data @ other.data, mask, validate=False)

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(self.partition, self.data.conj().T.copy(), self.mask.T.copy(), validate=False)

    def copy(self) -> "BlockMatrix":
        return BlockMatrix(self.partition, self.data.copy(), self.mask.copy(), validate=False)

    # -- norms ----------------------------------------------------------

    def hs(self) -> float:
        return float(np.linalg.norm(self.data))

    def block_spectral_sq(self) -> np.ndarray:
        """G x G matrix of squared per-block spectral norms (absent -> 0).

        A block with one row or one column is a vector, whose spectral
        norm is its Frobenius norm, so one ``reduceat`` pass covers every
        such block.  Blocks with both widths above 1 are then overwritten
        by one gather and one batched SVD per pair of width classes.
        """
        part = self.partition
        out = np.where(self.mask, _block_frobenius_sq(self.data, part), 0.0)
        # (group ids, stacked positions) per width class above 1
        wide = []
        for w in np.unique(part.dims[part.dims > 1]):
            gids = np.flatnonzero(part.dims == w)
            wide.append((gids, np.stack([part.positions[g] for g in gids])))
        for gi, rows in wide:
            for gj, cols in wide:
                bi, bj = np.nonzero(self.mask[np.ix_(gi, gj)])
                if bi.size == 0:
                    continue
                stack = self.data[rows[bi][:, :, None], cols[bj][:, None, :]]
                svals = np.linalg.svd(stack, compute_uv=False)[:, 0]
                out[gi[bi], gj[bj]] = svals * svals
        return out

    def hs_sigma(self) -> float:
        return float(math.sqrt(self.block_spectral_sq().sum()))

    def op(self) -> float:
        return operator_norm_estimate(self.data)

    def norms(self) -> NormReport:
        return NormReport(self.hs(), self.hs_sigma(), self.op())

    # -- regrouping -----------------------------------------------------

    def coarsen(self, target: Partition) -> "BlockMatrix":
        """Same matrix on a coarser partition (presence is aggregated)."""
        cmap = self.partition.coarse_map(target)
        mask = np.zeros((target.n_groups, target.n_groups), dtype=bool)
        src = np.nonzero(self.mask)
        np.logical_or.at(mask, (cmap[src[0]], cmap[src[1]]), True)
        return BlockMatrix(target, self.data.copy(), mask, validate=False)

    def refine(self, target: Partition) -> "BlockMatrix":
        """Same matrix on a refinement; presence is re-derived per fine block."""
        if not target.refines(self.partition):
            raise PartitionMismatchError("target partition is not a refinement")
        fine_nonzero = _block_frobenius_sq(self.data, target) > 0.0
        cmap = target.coarse_map(self.partition)
        allowed = self.mask[np.ix_(cmap, cmap)]
        return BlockMatrix(target, self.data.copy(), fine_nonzero & allowed, validate=False)

    # -- serialization --------------------------------------------------

    def to_csv(self, path):
        """Write present blocks as rows (m_group, n_group, row, col, re, im)."""
        part = self.partition
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m_group", "n_group", "row", "col", "re", "im"])
            for gi, gj in zip(*np.nonzero(self.mask)):
                blk = self.data[np.ix_(part.positions[gi], part.positions[gj])]
                li, lj = part.labels[gi], part.labels[gj]
                for r in range(blk.shape[0]):
                    for c in range(blk.shape[1]):
                        z = blk[r, c]
                        writer.writerow([li, lj, r, c, repr(float(z.real)), repr(float(z.imag))])

    @classmethod
    def from_csv(cls, partition: Partition, path) -> "BlockMatrix":
        d = partition.spectrum.dim
        data = np.zeros((d, d), dtype=complex)
        mask = np.zeros((partition.n_groups, partition.n_groups), dtype=bool)
        seen = set()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for ln, row in enumerate(reader, start=1):
                if ln == 1 and row and row[0].strip() == "m_group":
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 6:
                    raise ParseError(f"expected 6 fields, got {len(row)}", path=path, line=ln)
                try:
                    li, lj, r, c = (int(row[i]) for i in range(4))
                    re, im = float(row[4]), float(row[5])
                except ValueError as exc:
                    raise ParseError(f"bad field: {exc}", path=path, line=ln) from None
                key = (li, lj, r, c)
                if key in seen:
                    raise ParseError(f"duplicate entry {key}", path=path, line=ln)
                seen.add(key)
                gi, gj = partition.gid(li), partition.gid(lj)
                if not (0 <= r < partition.dims[gi] and 0 <= c < partition.dims[gj]):
                    raise ParseError(f"entry {key} outside block shape", path=path, line=ln)
                data[partition.positions[gi][r], partition.positions[gj][c]] = re + 1j * im
                mask[gi, gj] = True
        return cls(partition, data, mask, validate=False)


def inv_identity_plus(x: BlockMatrix) -> BlockMatrix:
    """Inverse of I + X as a block matrix on the same partition.

    Refuses matrices whose condition estimate exceeds 1e12 and enforces
    the residual gate ||(I+X)(I+X)^-1 - I||_op <= 1e-10.
    """
    d = x.partition.spectrum.dim
    m = np.eye(d, dtype=complex) + x.data
    try:
        cond = float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        raise NotInvertibleError("condition estimate failed", cond=math.inf) from None
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise NotInvertibleError("I + X is numerically singular", cond=cond)
    inv = np.linalg.inv(m)
    residual = operator_norm_estimate(m @ inv - np.eye(d))
    if residual > _INV_RESIDUAL_LIMIT:
        raise NotInvertibleError(
            f"inverse residual {residual:.3e} above {_INV_RESIDUAL_LIMIT:g}", cond=cond
        )
    g = x.partition.n_groups
    return BlockMatrix(x.partition, inv, np.ones((g, g), dtype=bool), validate=False)
