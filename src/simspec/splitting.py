"""Single eigenvalue splitting with certified error bounds.

Given a diagonal operator minus a perturbation and one simple
eigenvalue lambda_k, the coordinate vector e_k is corrected into an
exact eigenvector of the truncated problem by a quadratic fixed-point
iteration in the complement.  The correction lives in the range of the
reduced resolvent S, S_jj = 1/(lambda_k - lambda_j) off k and 0 at k,
and the corrected eigenvalue is lambda_k - b1 + b2 with b1 the diagonal
perturbation entry and b2 the scalar coupling picked up by the
correction.

Writing the complement correction as u = -S z, the eigenvalue equation
collapses to

    z = b1 S z - B22 S z - (B12 S z) S z + B21,

quadratic in z.  When m + 2 sqrt(n) <= 1, with m the operator norm of
(b1 - B22) S and n = s ||B12 S|| ||B21||, the iteration from z = 0
stays in a ball of radius r ||B21|| and converges geometrically, where

    r = 2 / ((1 - m) + sqrt((1 - m)^2 - 4 n)).

The certified bounds are ||e - e'|| <= s r ||B21|| and
|b2| <= r ||B12 S|| ||B21||; first-order Taylor forms of both are
reported alongside since published reference values are usually quoted
that way.

m is computed exactly, not estimated.  A complement coordinate whose
row and column of B22 are both zero (free) is its own 1 x 1 diagonal
block b1 s_j of (b1 - B22) S, so only the remaining (live) coordinates
need a dense singular value decomposition.  A cross-shaped perturbation
such as the kernel family's leaves B22 = 0 and needs none.

B is read where it lies, in the form it is given.  From a dense
BlockMatrix, one pass over the float64 view of its entries, a block of
rows at a time, finds the live coordinates (an entry is nonzero exactly
when its real or its imaginary part is), and only B22 restricted to
them is copied.  From generators B = P Q^H of rank r (LowRank), b1,
B21 and B12 are products with P and Q in O(d r), and only the terms
p_i q_i^H that are nonzero off k on both sides reach B22, which is
formed on their support alone.  The kernel cross has no such term at
k = 0, so its split forms no d x d array and runs no SVD.  The residual
is one product with B as given (P (Q^H v) for generators), an
independent check of the eigenpair against the input rather than
against the split pieces; its scale reads the Frobenius norm that B
stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolationError, InvalidInputError
from .opmatrix import BlockMatrix, LowRank, Spectrum
from .similarity import iterate

__all__ = [
    "SplitOperator",
    "SplitBounds",
    "SplitResult",
    "split_system",
    "certificate_from_constants",
    "split_certificate",
    "split_eigenpair",
    "operator_norm_condition",
]

_BOUNDARY_TOL = 1e-12
SPLIT_TOL = 1e-13  # the split iteration's default stop, relative to ||B21||
# rows of B per block of the live-coordinate scan: the float mask of a
# block is _SCAN_ROWS * 2d bytes, far below one d x d copy
_SCAN_ROWS = 64


@dataclass
class SplitOperator:
    """Truncated perturbation split around one simple eigenvalue.

    ``rest`` holds the complement positions (all but ``position``), and
    ``s_diag``, ``b21``, ``b12`` and ``live`` run over them.  ``b21`` and
    ``b12`` are the column and the row of B through ``position``.
    ``live`` marks the complement coordinates whose row or column of
    B22 has a nonzero entry; the others are free.  ``b22`` is B22
    restricted to the live coordinates (L x L, 0 x 0 when B22 = 0): the
    free rows and columns are zero and are not stored.  Read from
    generators, ``live`` is the support of the terms that reach B22, so
    it may hold coordinates whose entries cancel; m stays exact, since
    such a coordinate is a 1 x 1 diagonal block b1 s_j of (b1 - B22) S
    whether the SVD holds it or not.
    """

    k: int
    position: int
    rest: np.ndarray
    s_diag: np.ndarray
    s_max: float
    b1: complex
    b21: np.ndarray
    b12: np.ndarray
    live: np.ndarray
    b22: np.ndarray


def split_system(spectrum: Spectrum, b: BlockMatrix | LowRank, k: int) -> SplitOperator:
    """Extract the component/complement pieces of B around index k."""
    positions = spectrum.positions_of(k)
    if positions.size != 1:
        raise InvalidInputError(
            f"splitting needs a simple eigenvalue, index {k} has multiplicity {positions.size}"
        )
    pos = int(positions[0])
    rest = np.delete(np.arange(spectrum.dim), pos)
    lam_k = spectrum.value_of(k)
    gaps = lam_k - spectrum.position_values[rest]
    if np.any(gaps == 0.0):
        raise InvalidInputError("eigenvalue coincides with another spectrum point")
    s_diag = 1.0 / gaps
    if isinstance(b, LowRank):
        b1, b21, b12, live_at, b22 = _generator_pieces(b, pos, rest)
    else:
        data = b.data
        live_at = _live_coordinates(data, pos)
        core = np.flatnonzero(live_at)
        b1, b21, b12 = data[pos, pos], data[rest, pos], data[pos, rest]
        b22 = data[np.ix_(core, core)]
    return SplitOperator(
        k=int(k),
        position=pos,
        rest=rest,
        s_diag=s_diag,
        s_max=float(np.abs(s_diag).max()),
        b1=complex(b1),
        b21=b21,
        b12=b12,
        live=live_at[rest],
        b22=b22,
    )


def _generator_pieces(b: LowRank, pos: int, rest: np.ndarray):
    """b1, B21, B12, the live mask over all positions and B22 on the
    live coordinates, read from B = P Q^H in O(d r).

    A term p_i q_i^H reaches B22 only if p_i and q_i are both nonzero
    somewhere off ``pos``; the live coordinates are where such a p_i or
    q_i is nonzero.  So none is missed, but entries of the terms may
    cancel and leave a live coordinate whose row and column of B22 are
    zero.
    """
    p, qc = b.p, b.q.conj()
    column = p @ qc[pos]  # B e_pos
    row = qc @ p[pos]  # the row of B through pos
    p_off = p != 0.0
    q_off = qc != 0.0
    p_off[pos] = False
    q_off[pos] = False
    terms = [i for i in range(p.shape[1]) if p_off[:, i].any() and q_off[:, i].any()]
    live_at = np.zeros(p.shape[0], dtype=bool)
    for i in terms:
        live_at |= p_off[:, i] | q_off[:, i]
    core = np.flatnonzero(live_at)
    b22 = p[np.ix_(core, terms)] @ qc[np.ix_(core, terms)].T
    return column[pos], column[rest], row[rest], live_at, b22


def _live_coordinates(data: np.ndarray, pos: int) -> np.ndarray:
    """Mask of the coordinates whose row or column of B22 (B without row
    and column ``pos``) has a nonzero entry; ``pos`` itself is not live.

    One pass over the float64 view, _SCAN_ROWS rows at a time: -0.0 is
    zero, NaN and subnormals are not.  Viewed as uint16, the two bool
    flags of an entry (real, imaginary) are one nonzero-or-zero number.
    """
    d = data.shape[0]
    row_live = np.zeros(d, dtype=bool)
    col_live = np.zeros(d, dtype=np.uint16)
    for top in range(0, d, _SCAN_ROWS):
        rows = np.ascontiguousarray(data[top:top + _SCAN_ROWS]).view(np.float64)
        nonzero = (rows != 0.0).view(np.uint16)
        nonzero[:, pos] = 0
        if top <= pos < top + _SCAN_ROWS:
            nonzero[pos - top] = 0
        row_live[top:top + _SCAN_ROWS] = nonzero.any(axis=1)
        col_live |= np.bitwise_or.reduce(nonzero, axis=0)
    return row_live | (col_live != 0)


@dataclass
class SplitBounds:
    """Certificate and error bounds for the splitting iteration."""

    s: float
    m: float
    n: float
    b21_norm: float
    b12s_norm: float
    b1: complex
    certificate: dict
    radius: float
    bound_e: float
    bound_b2: float
    bound_e_taylor: float
    bound_b2_taylor: float


def certificate_from_constants(
    *, s: float, m: float, b21_norm: float, b12s_norm: float, b1: complex = 0.0
) -> SplitBounds:
    """Evaluate the certificate and bounds from given norm constants.

    Closed-form reference constants go through here; the window route
    computes the same quantities from the truncated matrices.  The
    certificate m + 2 sqrt(n) <= 1 is decided as computed, with no
    tolerance: above 1 the splitting theorem gives no ball.  ``boundary``
    only flags a left side within ``_BOUNDARY_TOL`` of 1.
    """
    n = s * b12s_norm * b21_norm
    lhs = m + 2.0 * math.sqrt(max(n, 0.0))
    boundary = abs(lhs - 1.0) <= _BOUNDARY_TOL
    satisfied = lhs <= 1.0
    if satisfied:
        disc = max((1.0 - m) ** 2 - 4.0 * n, 0.0)
        radius = 2.0 / ((1.0 - m) + math.sqrt(disc))
    else:
        radius = math.inf
    bound_e = s * radius * b21_norm
    bound_b2 = radius * b12s_norm * b21_norm
    if m < 1.0:
        lin = 1.0 / (1.0 - m)
        amp = 1.0 + s * b12s_norm * b21_norm * lin * lin
        bound_e_t = s * b21_norm * lin * amp
        bound_b2_t = b12s_norm * b21_norm * lin * amp
    else:
        bound_e_t = math.inf
        bound_b2_t = math.inf
    return SplitBounds(
        s=float(s),
        m=float(m),
        n=float(n),
        b21_norm=float(b21_norm),
        b12s_norm=float(b12s_norm),
        b1=complex(b1),
        certificate={
            "lhs": float(lhs),
            "rhs": 1.0,
            "satisfied": bool(satisfied),
            "boundary": bool(boundary),
        },
        radius=float(radius),
        bound_e=float(bound_e),
        bound_b2=float(bound_b2),
        bound_e_taylor=float(bound_e_t),
        bound_b2_taylor=float(bound_b2_t),
    )


def split_certificate(op: SplitOperator) -> SplitBounds:
    """Certificate from the honest norms of the truncated system.

    ||B21|| and ||B12 S|| are rank-one pieces, hence exact column and
    row norms; m is the largest singular value of (b1 - B22) S.  A
    complement coordinate j whose row and column of B22 are both zero
    is free: it is a 1 x 1 diagonal block b1 s_j of (b1 - B22) S under
    a permutation, so

        m = max(|b1| max_{j free} |s_j|, sigma_max(core on the live j)),

    exactly, and the dense SVD runs only on the live coordinates.
    """
    b21_norm = float(np.linalg.norm(op.b21))
    b12s_norm = float(np.linalg.norm(op.b12 * op.s_diag))
    m = abs(op.b1) * float(np.abs(op.s_diag[~op.live]).max(initial=0.0))
    if op.live.any():
        s_live = op.s_diag[op.live]
        core = op.b1 * np.diag(s_live) - op.b22 * s_live[None, :]
        # sigma first, so that a NaN singular value is not dropped by max
        m = max(float(np.linalg.svd(core, compute_uv=False)[0]), m)
    return certificate_from_constants(
        s=op.s_max, m=m, b21_norm=b21_norm, b12s_norm=b12s_norm, b1=op.b1
    )


@dataclass
class SplitResult:
    """Converged eigenpair correction for one spectrum index."""

    k: int
    lam: complex
    lam_prime: complex
    b1: complex
    b2: complex
    eigvec: np.ndarray
    iterations: int
    bounds: SplitBounds
    correction_norm: float
    normalized_deviation_bound: float
    residual: float
    residual_scale: float


def split_eigenpair(
    spectrum: Spectrum,
    b: BlockMatrix | LowRank,
    k: int,
    *,
    tol: float = SPLIT_TOL,
    max_iter: int = 200,
) -> SplitResult:
    """Correct e_k into an eigenvector of the truncated problem.

    The window certificate is computed here; the iteration refuses to
    run past a failed certificate, raising with both sides of the
    condition.
    """
    op = split_system(spectrum, b, k)
    bounds = split_certificate(op)
    cert = bounds.certificate
    if not cert["satisfied"]:
        raise ConditionViolationError(
            "splitting certificate failed: m + 2 sqrt(n) > 1",
            lhs=cert["lhs"],
            rhs=cert["rhs"],
        )
    s = op.s_diag
    # B22 S z is zero off the live coordinates
    b22sz = np.zeros_like(op.b21)

    def phi(z):
        sz = s * z
        b22sz[op.live] = op.b22 @ sz[op.live]
        return op.b1 * sz - b22sz - (op.b12 @ sz) * sz + op.b21

    z, steps = iterate(phi, np.zeros_like(op.b21),
                       lambda new, old: float(np.linalg.norm(new - old)),
                       tol=tol, scale=bounds.b21_norm, max_iter=max_iter,
                       what="splitting iteration did not converge")
    sz = s * z
    b2 = complex(op.b12 @ sz)
    lam = spectrum.value_of(op.k)
    lam_prime = lam - op.b1 + b2
    vec = np.zeros(spectrum.dim, dtype=complex)
    vec[op.position] = 1.0
    vec[op.rest] = -sz
    correction = float(np.linalg.norm(sz))
    eps = bounds.bound_e
    norm_dev = 2.0 * eps / (1.0 - eps) if eps < 1.0 else math.inf
    # (A - B) vec - lam' vec against B as given, not the split pieces
    lam_all = spectrum.position_values
    b_vec = b.apply(vec) if isinstance(b, LowRank) else b.data @ vec
    res_vec = (lam_all * vec - b_vec) - lam_prime * vec
    scale = float(np.abs(lam_all).max() + b.hs())
    return SplitResult(
        k=op.k,
        lam=complex(lam),
        lam_prime=complex(lam_prime),
        b1=op.b1,
        b2=b2,
        eigvec=vec,
        iterations=len(steps),
        bounds=bounds,
        correction_norm=correction,
        normalized_deviation_bound=float(norm_dev),
        residual=float(np.linalg.norm(res_vec)),
        residual_scale=scale,
    )


def operator_norm_condition(b_hs: float, s: float) -> dict:
    """Cruder sufficient condition ||B||_op < 1 / (4 s sqrt(2)).

    The left side is ``b_hs``, the Frobenius norm of B, an upper bound
    of its operator norm, so a satisfied condition is satisfied by
    ||B||_op as well.  ``BlockMatrix.hs`` takes it in O(d^2) instead of
    a dense SVD, and ``LowRank.hs`` in O(d r^2) from the Gram matrices
    of the generators, without the dense B.
    """
    rhs = 1.0 / (4.0 * s * math.sqrt(2.0))
    return {"lhs": float(b_hs), "rhs": float(rhs), "satisfied": bool(b_hs < rhs)}
