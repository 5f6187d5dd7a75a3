"""Independent reference computations for the benchmark's output checks.

Nothing here imports simspec.  Each matrix A - B is rebuilt from the
closed form of its model family and solved with LAPACK through
``numpy.linalg.eigvals``; the kernel splitting is checked against the
root of the secular equation of its arrowhead matrix.  The checks take
a parsed ``report.json`` and return a list of failure messages, empty
when the output is correct.

Every tolerance is relative to the scale max|lambda| + ||B||_F of the
problem, never absolute: eigenvalues of these families grow like N or
N^2, and a backward-stable solver errs in proportion to that scale.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# Estimates at the benchmark's sizes agree with eigvals to about 1e-14
# of the scale; 1e-11 leaves three orders of headroom for reordered
# floating-point sums and still rejects a move of 1e-6 of the least
# eigenvalue gap on every workload.
REL_TOL = 1e-11


def _coeff_table(coeffs: dict, offsets: np.ndarray) -> np.ndarray:
    """Matrix whose entry is coeffs[offset], zero where absent."""
    out = np.zeros(offsets.shape, dtype=complex)
    for k, c in coeffs.items():
        out[offsets == int(k)] = complex(c)
    return out


def kernel_matrix(n: int):
    """(lam, B) of the kernel family on -n..n: the cross at index 0."""
    idx = np.arange(-n, n + 1)
    nz = idx != 0
    b = np.zeros((idx.size, idx.size), dtype=complex)
    b[n, n] = 1.0
    b[nz, n] = 1.0 / (2j * np.pi * idx[nz])
    b[n, nz] = -1.0 / (2j * np.pi * idx[nz])
    return 2j * np.pi * idx, b


def hill_matrix(n: int, theta: float, coeffs: dict):
    """(lam, B) of the hill family: (pi (2k - theta))^2 and the Toeplitz B."""
    idx = np.arange(-n, n + 1)
    lam = (np.pi * (2.0 * idx - theta)) ** 2 + 0j
    return lam, _coeff_table(coeffs, idx[:, None] - idx[None, :])


def dirac_matrix(n: int, v1: dict, v2: dict, v3: dict, v4: dict):
    """(lam, B) of the ungauged dirac family.

    Block (m, k) is [[v1(k-m), v2(-k-m)], [v3(k+m), v4(m-k)]] and every
    eigenvalue 2 pi k of A is double.
    """
    idx = np.arange(-n, n + 1)
    m, k = idx[:, None], idx[None, :]
    b = np.zeros((2 * idx.size, 2 * idx.size), dtype=complex)
    b[0::2, 0::2] = _coeff_table(v1, k - m)
    b[0::2, 1::2] = _coeff_table(v2, -k - m)
    b[1::2, 0::2] = _coeff_table(v3, k + m)
    b[1::2, 1::2] = _coeff_table(v4, m - k)
    return np.repeat(2.0 * np.pi * idx, 2) + 0j, b


def problem_scale(lam, b) -> float:
    return float(np.abs(lam).max() + np.linalg.norm(b))


def reference_eigenvalues(lam, b) -> np.ndarray:
    return np.linalg.eigvals(np.diag(lam) - b)


def kernel_eigenvalue_near(n: int, z0: complex, tol: float = 1e-15, max_iter: int = 100) -> complex:
    """Eigenvalue of the kernel A - B on -n..n nearest z0, by Newton.

    A - B is an arrowhead matrix: corner -1, diagonal 2 pi i m off index
    0, and a cross whose products are w_m = 1 / (4 pi^2 m^2).  Its
    eigenvalues off the diagonal are the roots of the secular function
    f(z) = -1 - z - sum_m w_m / (2 pi i m - z).
    """
    m = np.arange(1, n + 1)
    d = 2j * np.pi * np.concatenate((m, -m))
    w = np.tile(1.0 / (4.0 * np.pi**2 * m**2), 2)
    z = complex(z0)
    for _ in range(max_iter):
        r = w / (d - z)
        f = -1.0 - z - r.sum()
        df = -1.0 - (r / (d - z)).sum()
        step = f / df
        z -= step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    raise ArithmeticError("secular Newton iteration did not converge")


def spectrum_deviation(reference, estimates) -> float:
    """Largest distance under the best one-to-one pairing of two multisets.

    Infinite when the sizes differ, so a dropped or duplicated estimate
    always fails a tolerance check.
    """
    ref = np.asarray(reference, dtype=complex)
    est = np.asarray(estimates, dtype=complex)
    if ref.shape != est.shape or ref.ndim != 1:
        return math.inf
    if ref.size == 0:
        return 0.0
    dist = np.abs(ref[:, None] - est[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def check_spectrum(what: str, reference, estimates, scale: float) -> list:
    dev = spectrum_deviation(reference, estimates)
    if dev <= REL_TOL * scale:
        return []
    return [
        f"{what}: {len(estimates)} estimates vs {len(reference)} reference eigenvalues, "
        f"deviation {dev:.3e} > {REL_TOL:g} * scale {scale:.3e}"
    ]


def estimates_of(report: dict):
    """(labels, values) of report['eigenvalue_estimates']."""
    pairs = report["eigenvalue_estimates"]
    labels = np.array([int(k) for k, _ in pairs], dtype=int)
    values = np.array([complex(z[0], z[1]) for _, z in pairs], dtype=complex)
    return labels, values


def _contraction_qs(obj):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key == "contraction_q":
                yield val
            else:
                yield from _contraction_qs(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _contraction_qs(val)


def check_certified_analyze(report: dict, pipeline: str, seed: int) -> list:
    """Method properties every analyze run must show."""
    fails = []
    if report.get("pipeline") != pipeline:
        fails.append(f"pipeline {report.get('pipeline')!r}, expected {pipeline!r}")
    if report.get("config_echo", {}).get("seed") != seed:
        fails.append("report does not record the run's seed")
    gates = report.get("invariant_gates", {})
    if "spectra_agree" not in gates:
        fails.append("oracle gate 'spectra_agree' did not run")
    for name, gate in gates.items():
        if gate.get("satisfied") is not True:
            fails.append(f"invariant gate {name!r} not satisfied")
    qs = list(_contraction_qs(report.get("certificates", {})))
    if not qs:
        fails.append("no contraction certificate in the report")
    for q in qs:
        if not (isinstance(q, (int, float)) and q < 1.0):
            fails.append(f"contraction_q {q!r} is not < 1")
    return fails


def check_split(report: dict, reference: complex, scale: float, seed: int) -> list:
    """Certified single-eigenvalue output of `split` on the kernel at k = 0."""
    fails = []
    if report.get("pipeline") != "split" or report.get("k") != 0:
        fails.append("report is not a k=0 split")
    if report.get("config_echo", {}).get("seed") != seed:
        fails.append("report does not record the run's seed")
    window = report["window_bounds"]
    cert = window["certificate"]
    if cert.get("satisfied") is not True or not cert["lhs"] < 1.0:
        fails.append(f"split certificate fails: lhs {cert.get('lhs')!r}")
    bound_b2 = window["bound_b2"]
    lam_prime = complex(*report["lambda_prime"])
    dev = abs(lam_prime - reference)
    if not dev <= bound_b2:
        fails.append(f"lambda' is {dev:.3e} from the nearest eigenvalue, bound_b2 {bound_b2:.3e}")
    if not dev <= REL_TOL * scale:
        fails.append(f"lambda' deviation {dev:.3e} > {REL_TOL:g} * scale {scale:.3e}")
    if not abs(complex(*report["b2"])) <= bound_b2:
        fails.append("|b2| exceeds bound_b2")
    published = report.get("published_bounds") or {}
    for key, want in (("bound_e", 0.0302), ("bound_b2", 0.0071)):
        got = published.get(key)
        if got is None or abs(got - want) > 5e-5:
            fails.append(f"published {key} {got!r}, expected about {want}")
    return fails
