"""Decay weights and the weighted norm used by the two-stage pipelines.

A perturbation with square-summable block norms defines a weight
``alpha_h`` per index level h: the normalized fourth root of its worst
row or column tail mass over ``|k| >= h``.  Weights are nonincreasing,
start at exactly 1 and vanish where the matrix has no tail.

The derived sequences feed the contraction certificates:

* ``alpha_prime_h`` couples the inside of a level-h cut to the outside
  through the eigenvalue gaps,
* ``alpha_tilde_h = sqrt(eta) * alpha_h + alpha_prime_h`` bounds the
  commutator inverse as a map between weighted classes, and the
  contraction modulus after coarsening at radius m is
  ``gamma(m) = alpha_tilde_{m+1}``.

Weights are read on the trivial partition (radius -1), where the gap
couplings are the plain table 1/|lambda_j - lambda_l|.

The weight operator f(A) = sum_h alpha_h P_h turns tail decay into a
norm: the larger blockwise spectral norm of X f(A)^-1 and f(A)^-1 X,
the two factors of X = (X f(A)^-1) f(A) = f(A) (f(A)^-1 X).  The fixed
point iteration of the coarse pipelines contracts in that norm, and
only the norm is kept, not the factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeightError,
    InvalidInputError,
    WindowTooSmallError,
)
from .opmatrix import BlockMatrix, Partition, Spectrum, gap_inverse_square_sum

__all__ = [
    "WeightSequence",
    "decay_weights",
    "factorize",
    "select_coarsening",
    "weights_to_csv",
]


@dataclass
class WeightSequence:
    """Per-level weights of one perturbation.

    Arrays are indexed by the level h = 0..max_level; ``alpha_prime[0]``
    is 0 by convention (an empty coupling set).
    """

    spectrum: Spectrum
    alpha: np.ndarray
    alpha_prime: np.ndarray
    sqrt_eta: float

    @property
    def max_level(self) -> int:
        return self.alpha.size - 1

    @property
    def alpha_tilde(self) -> np.ndarray:
        return self.sqrt_eta * self.alpha + self.alpha_prime

    def alpha_of(self, n: int) -> float:
        h = abs(int(n))
        if h > self.max_level:
            return 0.0
        return float(self.alpha[h])

    def position_weights(self, spectrum: Spectrum) -> np.ndarray:
        """alpha per dense position (by the absolute spectrum index)."""
        if not self.spectrum.same_entries(spectrum):
            raise InvalidInputError("weights were built for a different spectrum")
        lev = np.abs(spectrum.position_index)
        return self.alpha[np.minimum(lev, self.max_level)] * (lev <= self.max_level)

    @functools.cached_property
    def inverse_weights(self) -> tuple:
        """(dead, inv) per dense position of the own spectrum: where alpha
        is zero, and 1/alpha, set to 0 where it is."""
        apos = self.position_weights(self.spectrum)
        dead = apos == 0.0
        inv = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, apos))
        dead.flags.writeable = inv.flags.writeable = False
        return dead, inv


def decay_weights(x: BlockMatrix) -> WeightSequence:
    """Weights of a perturbation, computed on the index-per-group partition."""
    spec = x.partition.spectrum
    bss = BlockMatrix(Partition.trivial(spec), x.data).block_spectral_sq()
    if bss.sum() <= 0.0:
        raise DegenerateWeightError("zero perturbation has no decay profile")

    lev_g = np.abs(spec.indices)
    kmax = int(lev_g.max())
    row2 = bss.sum(axis=1)
    col2 = bss.sum(axis=0)
    row_hist = np.zeros(kmax + 1)
    col_hist = np.zeros(kmax + 1)
    np.add.at(row_hist, lev_g, row2)
    np.add.at(col_hist, lev_g, col2)
    row_tail2 = np.cumsum(row_hist[::-1])[::-1]
    col_tail2 = np.cumsum(col_hist[::-1])[::-1]
    # normalize by the full mass so that alpha[0] == 1 exactly
    norm2 = max(row_tail2[0], col_tail2[0])
    alpha = (np.maximum(row_tail2, col_tail2) / norm2) ** 0.25

    # couple inside of each level cut to the outside:
    # alpha_prime[h] = max alpha[|l|] * d(j, l) over |l| < h <= |j|, with
    # d(j, l) = 1/|lambda_j - lambda_l|, 0 on the diagonal so that a
    # within-index coupling is never consumed; sqrt(1 / g**2) and 1 / g
    # can differ in the last bit, and the weights are pinned to the former
    dmax = np.sqrt(1.0 / spec.gaps() ** 2)
    m = alpha[lev_g][None, :] * dmax
    order = np.argsort(lev_g, kind="stable")
    sorted_lev = lev_g[order]
    cm = np.maximum.accumulate(m[:, order], axis=1)[order]
    sm = np.maximum.accumulate(cm[::-1], axis=0)[::-1]
    # level h reads row ncols and column ncols - 1, ncols = #{|l| < h}
    ncols = np.searchsorted(sorted_lev, np.arange(1, kmax + 1))
    ok = (ncols >= 1) & (ncols < sorted_lev.size)
    alpha_prime = np.zeros(kmax + 1)
    alpha_prime[1:][ok] = sm[ncols[ok], ncols[ok] - 1]

    sqrt_eta = float(np.sqrt(gap_inverse_square_sum(spec)))
    return WeightSequence(spectrum=spec, alpha=alpha, alpha_prime=alpha_prime, sqrt_eta=sqrt_eta)


def factorize(x: BlockMatrix, w: WeightSequence) -> float:
    """The weighted norm of X: the larger ``hs_sigma`` of X f(A)^-1 and
    f(A)^-1 X, the two factors of X against the weight operator.

    Only the norm is returned; each factor is dropped once its norm is
    read.  The name stays because ``bench/tracing.py`` times this
    function by name (``weighted.factorize``).  Raises
    :class:`DegenerateWeightError` when X carries mass on a level whose
    weight is zero (then X is not in the weighted class).
    """
    if not w.spectrum.same_entries(x.partition.spectrum):
        raise InvalidInputError("weights were built for a different spectrum")
    dead, inv = w.inverse_weights
    if np.any(dead):
        if np.any(x.data[:, dead] != 0.0) or np.any(x.data[dead, :] != 0.0):
            raise DegenerateWeightError("matrix has mass on zero-weight levels")
    left = BlockMatrix(x.partition, x.data * inv[None, :]).hs_sigma()
    return max(left, BlockMatrix(x.partition, x.data * inv[:, None]).hs_sigma())


def select_coarsening(x: BlockMatrix, w: WeightSequence, margin: float = 0.9, start: int = 0):
    """Smallest coarsening radius whose contraction certificate clears `margin`.

    Returns ``(m, info)`` with the certificate numbers; raises
    :class:`WindowTooSmallError` (carrying the best certificate seen,
    inf when ``start`` leaves no radius to try) when no radius inside
    the window works.
    """
    if not (0.0 < margin < 1.0):
        raise InvalidInputError("margin must lie in (0, 1)")
    wnorm = factorize(x, w)
    tilde = w.alpha_tilde
    best = math.inf
    for m in range(start, w.max_level):
        q = 4.0 * tilde[m + 1] * wnorm
        best = min(best, q)
        if q <= margin:
            return m, {
                "radius": m,
                "gamma": float(tilde[m + 1]),
                "weighted_norm": float(wnorm),
                "contraction_q": float(q),
                "margin": float(margin),
            }
    raise WindowTooSmallError(
        "no coarsening radius inside the window certifies contraction",
        best=float(best),
    )


def weights_to_csv(w: WeightSequence, path):
    rows = zip(range(w.max_level + 1), w.alpha.tolist(), w.alpha_prime.tolist(),
               w.alpha_tilde.tolist())
    text = "level,alpha,alpha_prime,alpha_tilde\r\n" + "".join(
        ["%d,%r,%r,%r\r\n" % row for row in rows])
    with open(path, "w", newline="") as fh:
        fh.write(text)
