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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditionViolationError,
    InvalidInputError,
    NonConvergenceError,
)
from .opmatrix import BlockMatrix, Spectrum

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


@dataclass
class SplitOperator:
    """Truncated perturbation split around one simple eigenvalue."""

    k: int
    position: int
    rest: np.ndarray
    s_diag: np.ndarray
    s_max: float
    b1: complex
    b21: np.ndarray
    b12: np.ndarray
    b22: np.ndarray


def split_system(spectrum: Spectrum, b: BlockMatrix, k: int) -> SplitOperator:
    """Extract the component/complement pieces of B around index k."""
    positions = spectrum.positions_of(k)
    if positions.size != 1:
        raise InvalidInputError(
            f"splitting needs a simple eigenvalue, index {k} has multiplicity {positions.size}"
        )
    pos = int(positions[0])
    data = b.data
    rest = np.delete(np.arange(spectrum.dim), pos)
    lam_k = spectrum.value_of(k)
    gaps = lam_k - spectrum.position_values[rest]
    if np.any(gaps == 0.0):
        raise InvalidInputError("eigenvalue coincides with another spectrum point")
    s_diag = 1.0 / gaps
    return SplitOperator(
        k=int(k),
        position=pos,
        rest=rest,
        s_diag=s_diag,
        s_max=float(np.abs(s_diag).max()),
        b1=complex(data[pos, pos]),
        b21=data[rest, pos],
        b12=data[pos, rest],
        b22=data[np.ix_(rest, rest)],
    )


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
    computes the same quantities from the truncated matrices.
    """
    n = s * b12s_norm * b21_norm
    lhs = m + 2.0 * math.sqrt(max(n, 0.0))
    boundary = abs(lhs - 1.0) <= _BOUNDARY_TOL
    satisfied = lhs <= 1.0 + _BOUNDARY_TOL
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
    nonzero = op.b22 != 0.0
    live = nonzero.any(axis=0) | nonzero.any(axis=1)
    m = abs(op.b1) * float(np.abs(op.s_diag[~live]).max(initial=0.0))
    if live.any():
        s_live = op.s_diag[live]
        b22_live = op.b22[np.ix_(live, live)]
        core = op.b1 * np.diag(s_live) - b22_live * s_live[None, :]
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
    b: BlockMatrix,
    k: int,
    *,
    tol: float = 1e-13,
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
    b21_norm = float(np.linalg.norm(op.b21))
    floor = max(b21_norm, 1e-300)
    z = np.zeros_like(op.b21)
    # with B22 = 0 (the kernel cross) B22 S z is exact zeros, and
    # subtracting 0.0 in its place gives the same bits without the product
    b22_live = bool(op.b22.any())
    iterations = 0
    converged = b21_norm == 0.0
    for iterations in range(1, max_iter + 1):
        sz = s * z
        b2 = op.b12 @ sz
        z_next = op.b1 * sz - (op.b22 @ sz if b22_live else 0.0) - b2 * sz + op.b21
        step = float(np.linalg.norm(z_next - z))
        z = z_next
        if step <= tol * floor:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"splitting iteration did not converge in {max_iter} steps",
            last_ratio=None,
        )
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
    full = np.diag(spectrum.position_values) - b.data
    res_vec = full @ vec - lam_prime * vec
    scale = float(np.abs(spectrum.position_values).max() + b.hs())
    return SplitResult(
        k=op.k,
        lam=complex(lam),
        lam_prime=complex(lam_prime),
        b1=op.b1,
        b2=b2,
        eigvec=vec,
        iterations=iterations,
        bounds=bounds,
        correction_norm=correction,
        normalized_deviation_bound=float(norm_dev),
        residual=float(np.linalg.norm(res_vec)),
        residual_scale=scale,
    )


def operator_norm_condition(b: BlockMatrix, s: float) -> dict:
    """Cruder sufficient condition ||B||_op < 1 / (4 s sqrt(2)).

    The left side is the Frobenius norm of B, an upper bound of its
    operator norm that costs O(d^2) instead of a dense SVD, so a
    satisfied condition is satisfied by ||B||_op as well.
    """
    lhs = b.hs()
    rhs = 1.0 / (4.0 * s * math.sqrt(2.0))
    return {"lhs": float(lhs), "rhs": float(rhs), "satisfied": bool(lhs < rhs)}
