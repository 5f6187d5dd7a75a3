"""Independent eigenvalue oracle and comparison harness.

The oracle solves stay independent of the similarity pipelines: each
spectrum is solved from scratch on the dense matrix by LAPACK's zgeev
(Hessenberg reduction and shifted QR, backward stable), and small
matrices are cross-checked against a second, entirely different oracle
(characteristic polynomial by the trace recursion, roots by a
simultaneous Newton iteration).  The harness side pairs computed
spectra with references, checks tail summability, and compares spectral
projections against their similarity bound.  Its pairing helper,
``match_spectra``, is the one the pipelines also use to tag the
eigenvalues of a diagonal block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OracleFailureError
from .opmatrix import BlockMatrix, Partition, Spectrum, inv_identity_plus, spectral_gap

__all__ = [
    "oracle_eigenvalues",
    "charpoly_coefficients",
    "polynomial_roots",
    "charpoly_eigenvalues",
    "SpectrumMatch",
    "match_spectra",
    "values_by_position",
    "projection_compare",
    "SpectrumReport",
    "build_spectrum_report",
]

_ORACLE_DIM_CAP = 4096
_DUAL_TOL = 1e-10
_CROSS_CHECK_DIM = 8


# -- polynomial oracle --------------------------------------------------------


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial by the trace recursion.

    Returns coefficients [1, c1, ..., cn] of lambda^n + c1 lambda^(n-1)
    + ... + cn, computed on a rescaled copy for overflow safety.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        out = np.zeros(n + 1, dtype=complex)
        out[0] = 1.0
        return out
    b = a / scale
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(b)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        m = b @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(b @ m) / k
    # undo the scaling: coefficient of lambda^(n-k) picks up scale^k
    return coeffs * scale ** np.arange(n + 1)


def polynomial_roots(coeffs: np.ndarray, tol: float = 1e-14, max_iter: int = 200) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous Newton steps.

    Deterministic spiral starts inside the Cauchy bound; each update is
    the Newton step corrected by the repulsion of the other iterates.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs[0] != 1.0:
        coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    if n == 0:
        return np.array([], dtype=complex)
    if n == 1:
        return np.array([-coeffs[1]])
    deriv = coeffs[:-1] * np.arange(n, 0, -1)
    radius = 1.0 + float(np.abs(coeffs[1:]).max())
    j = np.arange(n)
    z = radius * (0.35 + 0.55 * j / n) * np.exp(2j * np.pi * (j + 0.25) / n)
    for _ in range(max_iter):
        p = np.polyval(coeffs, z)
        dp = np.polyval(deriv, z)
        dp = np.where(dp == 0.0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        rep = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * rep
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        if float(np.abs(step).max()) <= tol * (1.0 + float(np.abs(z).max())):
            return z
    # the step test can ask for more than rounding allows: iterates whose
    # residual is within the rounding bound of Horner's rule are converged
    floor = 4 * n * np.finfo(float).eps * np.polyval(np.abs(coeffs), np.abs(z))
    if np.all(np.abs(np.polyval(coeffs, z)) <= floor):
        return z
    raise OracleFailureError("polynomial root iteration did not converge")


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Second oracle for small matrices: roots of the char polynomial."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] > _CROSS_CHECK_DIM:
        raise InvalidInputError(
            f"polynomial oracle is limited to dimension {_CROSS_CHECK_DIM}"
        )
    return polynomial_roots(charpoly_coefficients(a))


# -- public oracle ------------------------------------------------------------


def oracle_eigenvalues(a, cross_check: bool = True) -> np.ndarray:
    """Eigenvalue multiset of a dense complex matrix, sorted by (re, im).

    The spectrum comes from LAPACK's zgeev (backward stable); a LAPACK
    failure is an oracle failure.  Dimension <= 8 also builds the
    characteristic polynomial by the trace recursion, and a coefficient
    of prod(lambda - vals) off by more than 1e-10 of its scale,
    C(n, k) max(1, max|vals|)^k, is an oracle failure.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("oracle needs a square matrix")
    n = a.shape[0]
    if n == 0:
        return np.array([], dtype=complex)
    if n > _ORACLE_DIM_CAP:
        raise InvalidInputError(f"oracle dimension cap is {_ORACLE_DIM_CAP}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise OracleFailureError(f"LAPACK eigensolver failed at dimension {n}: {exc}")
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if cross_check and 2 <= n <= _CROSS_CHECK_DIM:
        # compare polynomials, not roots: the coefficients stay well
        # conditioned where clustered or defective roots do not
        scale = max(1.0, float(np.abs(vals).max()))
        size = scale ** np.arange(n + 1) * np.array([math.comb(n, k) for k in range(n + 1)])
        dev = float((np.abs(np.poly(vals) - charpoly_coefficients(a)) / size).max())
        if dev > _DUAL_TOL:
            raise OracleFailureError(f"oracles disagree by {dev:.3e} at dimension {n}")
    return vals


# -- spectrum comparison -------------------------------------------------------


@dataclass
class SpectrumMatch:
    """Greedy nearest pairing of two equally sized eigenvalue multisets."""

    pairs: list
    max_abs_deviation: float


def match_spectra(reference, computed) -> SpectrumMatch:
    """Pair computed eigenvalues to reference ones, nearest first.

    Cardinalities must agree; ties are broken by the lower reference
    index, then the lower computed index.  Greedy nearest-first pairing
    under the order (distance, i, j) takes, round by round, every pair
    that is the least of both its row and its column among the rows and
    columns left, so each round is one ``argmin`` per row and per column.
    A NaN distance counts as infinite.
    """
    ref = np.asarray(reference, dtype=complex)
    com = np.asarray(computed, dtype=complex)
    if ref.ndim != 1 or com.ndim != 1 or ref.size != com.size:
        raise InvalidInputError(
            f"cardinality mismatch: {ref.size} reference vs {com.size} computed"
        )
    n = ref.size
    dist = np.abs(ref[:, None] - com[None, :])
    key = np.where(np.isnan(dist), np.inf, dist)
    match = np.empty(n, dtype=int)
    rows, cols = np.arange(n), np.arange(n)
    while rows.size:
        left = key[np.ix_(rows, cols)]
        best = left.argmin(axis=1)
        mutual = left.argmin(axis=0)[best] == np.arange(rows.size)
        match[rows[mutual]] = cols[best[mutual]]
        rows, cols = rows[~mutual], np.delete(cols, best[mutual])
    dev = dist[np.arange(n), match]
    return SpectrumMatch(
        pairs=list(enumerate(match.tolist())),
        max_abs_deviation=float(dev.max()) if n else 0.0,
    )


# -- projection bounds ---------------------------------------------------------


def _group_projection_diag(spectrum: Spectrum, sigma_group) -> np.ndarray:
    members = {int(n) for n in sigma_group}
    for n in members:
        spectrum.ordinal(n)  # validates membership
    return np.isin(spectrum.position_index, sorted(members)).astype(float)


def projection_compare(
    u: BlockMatrix,
    partition: Partition,
    sigma_group,
    alpha_sigma: float,
    *,
    weighted_norm: float | None = None,
) -> dict:
    """Compare ||P' - P|| with its similarity bound on a spectral group.

    P projects onto the listed spectrum indices; P' is its image under
    I + U, computed exactly as (U P - P U)(I + U)^{-1}.  The bound is
    2 * ||U||_w * alpha_sigma / (1 - ||U||_sigma) with ||U||_w supplied
    by the caller (falls back to the block norm of U).  The direct
    evaluation (I + U) P (I + U)^{-1} - P is carried along as a
    consistency residual.  The inverse comes from
    :func:`~simspec.opmatrix.inv_identity_plus`, which raises
    ``NotInvertibleError`` when kappa_F = ||I+U||_F ||(I+U)^-1||_F
    exceeds 1e12 (kappa_F >= kappa_2, so this refuses at least every
    I + U with kappa_2 above 1e12) or when ||(I+U)(I+U)^-1 - I||_F
    exceeds 1e-10.
    """
    spec = partition.spectrum
    p = _group_projection_diag(spec, sigma_group)
    eye_u = np.eye(spec.dim) + u.data
    inv = inv_identity_plus(u).data
    diff = (u.data * p[None, :] - p[:, None] * u.data) @ inv
    direct = eye_u @ (p[:, None] * inv) - np.diag(p)
    consistency = float(np.linalg.norm(diff - direct))
    lhs = BlockMatrix(partition, diff).hs_sigma()
    u_sigma = BlockMatrix(partition, u.data).hs_sigma()
    u_w = float(weighted_norm) if weighted_norm is not None else u_sigma
    rhs = 2.0 * u_w * alpha_sigma / (1.0 - u_sigma) if u_sigma < 1.0 else math.inf
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ok": bool(lhs <= rhs + 1e-12),
        "u_sigma_norm": float(u_sigma),
        "u_weighted_norm": float(u_w),
        "alpha_sigma": float(alpha_sigma),
        "identity_consistency": consistency,
    }


# -- spectrum report -----------------------------------------------------------

# row fields in CSV column order; a pair field holds (re, im) and takes
# the two columns <name>_re and <name>_im
_ROW_FIELDS = (
    "index", "lambda", "estimate", "first_order", "second_order", "oracle", "b",
    "residual", "flagged",
)
_PAIR_FIELDS = frozenset(("lambda", "estimate", "first_order", "second_order", "oracle", "b"))


# the format of each field's cells in a CSV row
_CSV_CELLS = {"index": "%d", "flagged": "%d", "residual": "%r",
              **{name: "%r,%r" for name in _PAIR_FIELDS}}


@dataclass
class SpectrumReport:
    """Per interior index comparison of method output against the oracle."""

    rows: list
    tail_stats: dict
    matching_quality: float

    def to_csv(self, path):
        header = ",".join(col for name in _ROW_FIELDS
                          for col in ([f"{name}_re", f"{name}_im"] if name in _PAIR_FIELDS
                                      else [name]))
        line = ",".join(_CSV_CELLS[name] for name in _ROW_FIELDS) + "\r\n"
        text = header + "\r\n" + "".join([
            line % tuple(c for name in _ROW_FIELDS
                         for c in (row[name] if name in _PAIR_FIELDS else (row[name],)))
            for row in self.rows])
        with open(path, "w", newline="") as fh:
            fh.write(text)


def values_by_position(spectrum: Spectrum, values) -> np.ndarray:
    """Arrange a value multiset along the dense spectrum positions by
    ``match_spectra``; the cardinalities must agree."""
    pairs = match_spectra(spectrum.position_values, values).pairs
    return np.asarray(values, dtype=complex)[[j for _, j in pairs]]


def build_spectrum_report(
    spectrum: Spectrum,
    est_by_pos,
    oracle_by_pos,
    *,
    first_order=None,
    second_order=None,
    weights=None,
    interior_fraction: float = 0.5,
) -> SpectrumReport:
    """Assemble the per-index comparison table on the interior window.

    ``est_by_pos`` and ``oracle_by_pos`` are the pipeline estimates and
    the eigenvalues of the truncated A - B arranged along the spectrum
    positions (see ``values_by_position``).  The rows are the indices
    ``spectrum.interior_indices(interior_fraction)``.  Rows whose oracle value
    strays beyond 0.4 of the least eigenvalue gap from its free
    eigenvalue are flagged as ambiguous rather than dropped.
    """
    dev_by_pos = np.abs(spectrum.position_values - oracle_by_pos)
    flag_dist = 0.4 * spectral_gap(spectrum)

    interior = set(int(n) for n in spectrum.interior_indices(interior_fraction))
    rows = []
    b_seq = []
    w_seq = []
    for pos in range(spectrum.dim):
        n = int(spectrum.position_index[pos])
        if n not in interior:
            continue
        lam = spectrum.position_values[pos]
        oz = oracle_by_pos[pos]
        ez = est_by_pos[pos]
        b = lam - oz
        p = complex(first_order[spectrum.ordinal(n)]) if first_order is not None else 0.0j
        qv = complex(second_order[spectrum.ordinal(n)]) if second_order is not None else 0.0j
        values = (n, lam, ez, p, qv, oz, b, float(abs(ez - oz)),
                  bool(dev_by_pos[pos] > flag_dist))
        rows.append({
            name: (float(v.real), float(v.imag)) if name in _PAIR_FIELDS else v
            for name, v in zip(_ROW_FIELDS, values)
        })
        b_seq.append(b)
        if weights is not None:
            a = weights.alpha_of(n)
            w_seq.append(1.0 / a**2 if a > 0.0 else math.inf)
        else:
            w_seq.append(1.0)
    sq = np.abs(np.array(b_seq, dtype=complex)) ** 2
    return SpectrumReport(
        rows=rows,
        tail_stats={"weighted_sum": float((sq * np.array(w_seq, dtype=float)).sum()),
                    "plain_sum": float(sq.sum())},
        matching_quality=float(dev_by_pos.max()),
    )
