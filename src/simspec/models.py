"""Model problem families: concrete free operators and perturbations.

Four families, each reduced to a truncated block matrix on the indices
-N..N against a diagonal free operator:

* ``kernel``: differentiation on the circle perturbed by a rank-two
  integral kernel; eigenvalues 2 pi i k, a cross-shaped perturbation
  supported on row and column zero, held by its two generators and
  made dense only when it is read as a matrix.
* ``involution``: first order differential operator whose perturbation
  couples t with 1 - t; eigenvalues pi i (2k - theta), the perturbation
  matrix is a Hankel form of the twisted potential coefficients.
* ``dirac``: one-dimensional Dirac system on 2x2 blocks; eigenvalues
  2 pi n with multiplicity two.  An optional gauge transform trades the
  oscillating diagonal potentials for their means, at the price of
  recomputed off-diagonal potentials (done on a doubling FFT grid).
* ``hill``: second order operator with quasi-momentum theta;
  eigenvalues (pi (2n - theta))^2, Toeplitz perturbation.

Builders return a :class:`ModelProblem`; closed-form first and second
order eigenvalue corrections are included where the family admits them,
as an independent route against the matrix computations.  The window
-N..N is the builder's; which of its indices a spectrum report shows is
a setting of the report (``verify.build_spectrum_report``).
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable

import numpy as np

from .errors import InvalidInputError, ResolutionError
from .opmatrix import BlockMatrix, LowRank, Partition, Spectrum

__all__ = [
    "ModelProblem",
    "kernel_model",
    "kernel_split_constants",
    "involution_model",
    "involution_offdiag_energy",
    "dirac_model",
    "hill_model",
    "random_trig_coeffs",
    "MODELS",
]


class ModelProblem:
    """A built model: spectrum, perturbation and closed-form references.

    ``perturbation`` is B as a dense :class:`BlockMatrix`.  A builder
    may pass a function that makes it instead; then B is built the
    first time ``perturbation`` is read, and that one object is kept,
    so every later reader sees the same B.  A finite-rank B also comes
    with its ``generators`` (:class:`LowRank`, B = P Q^H), and
    ``compact_perturbation`` is the leanest form held: the generators
    when there are any, else the dense B.  Both forms give ``hs()``,
    and the generators answer it without building the dense B.

    mt4 derives its designated diagonal part from the perturbation."""

    def __init__(
        self,
        name: str,
        spectrum: Spectrum,
        perturbation: BlockMatrix | Callable[[], BlockMatrix],
        first_order: np.ndarray | None = None,
        second_order: np.ndarray | None = None,
        generators: LowRank | None = None,
    ):
        self.name = name
        self.spectrum = spectrum
        self._perturbation = perturbation
        self.first_order = first_order
        self.second_order = second_order
        self.generators = generators

    @property
    def perturbation(self) -> BlockMatrix:
        if not isinstance(self._perturbation, BlockMatrix):
            self._perturbation = self._perturbation()
        return self._perturbation

    @property
    def compact_perturbation(self) -> BlockMatrix | LowRank:
        return self.perturbation if self.generators is None else self.generators


def _clean_coeffs(coeffs, what: str) -> dict:
    out = {}
    for k, z in dict(coeffs).items():
        kk = int(k)
        zz = complex(z)
        # the models take index sums and products in floating point
        if abs(kk) > sys.float_info.max:
            raise InvalidInputError(f"a coefficient index in {what} exceeds the float range")
        if kk in out:
            raise InvalidInputError(f"duplicate coefficient {kk} in {what}")
        if zz != 0.0:
            out[kk] = zz
    return out


def random_trig_coeffs(rng, degree: int, scale: float = 1.0, real: bool = True) -> dict:
    """Random trigonometric polynomial coefficients up to `degree`.

    With ``real`` the coefficients are conjugate-symmetric, so the
    function they represent is real valued.
    """
    if degree < 0:
        raise InvalidInputError("degree must be >= 0")
    out = {}
    for k in range(0, degree + 1):
        z = complex(rng.standard_normal(), rng.standard_normal()) * scale
        if k == 0:
            out[0] = complex(z.real, 0.0) if real else z
            continue
        out[k] = z
        w = complex(rng.standard_normal(), rng.standard_normal()) * scale
        out[-k] = z.conjugate() if real else w
    return out


def _window_indices(half_width: int) -> np.ndarray:
    """The truncation window's indices -N..N, N = half_width >= 1."""
    if half_width < 1:
        raise InvalidInputError("window half_width must be >= 1")
    return np.arange(-half_width, half_width + 1)


def _coeff_table(coeffs: dict, kmax: int) -> np.ndarray:
    """Coefficients c_k for k = -kmax..kmax at position k + kmax; +0.0 where absent."""
    return np.array([coeffs.get(k, 0.0) for k in range(-kmax, kmax + 1)], dtype=complex)


def _fourier_eval(coeffs: dict, grid: np.ndarray) -> np.ndarray:
    """sum_k c_k exp(2 pi i k t) on the grid."""
    out = np.zeros(grid.size, dtype=complex)
    for k, z in coeffs.items():
        out += z * np.exp(2j * np.pi * k * grid)
    return out


# -- kernel family --------------------------------------------------------


def kernel_model(half_width: int) -> ModelProblem:
    """Differentiation plus the rank-two kernel charge on the circle.

    The perturbation matrix is the cross B[m, 0] = 1/(2 pi i m),
    B[0, n] = -1/(2 pi i n), B[0, 0] = 1, all other entries zero.  Its
    generators are P = [c, e_0] and Q = [e_0, conj(r)], with c the
    column through index 0 (B[0, 0] included) and r the row through
    it without B[0, 0], so B = c e_0^T + e_0 r^T.  The dense cross is
    built on the first read of ``perturbation``, its column and row
    copied from c and r: a product P Q^H would write +0.0 where the
    entries have -0.0.
    """
    idx = _window_indices(half_width)
    spec = Spectrum(idx, 2j * np.pi * idx)
    n = half_width
    d = spec.dim
    z = n  # position of index 0
    m = idx[idx != 0]
    off = m + n  # positions of the indices m != 0
    den = 2j * np.pi * m
    p = np.zeros((d, 2), dtype=complex)
    q = np.zeros((d, 2), dtype=complex)
    p[z] = 1.0  # B[0, 0] in c, and e_0
    p[off, 0] = 1.0 / den
    q[z, 0] = 1.0
    q[off, 1] = (-1.0 / den).conj()
    generators = LowRank(p, q)

    def dense() -> BlockMatrix:
        data = np.zeros((d, d), dtype=complex)
        data[:, z] = p[:, 0]
        data[z, off] = q[off, 1].conj()
        return BlockMatrix(Partition.trivial(spec), data)

    first = np.zeros(d, dtype=complex)
    first[z] = 1.0
    second = np.zeros(d, dtype=complex)
    # only the detour through index 0 contributes
    second[off] = 1j / (8.0 * np.pi**3 * m**3)
    return ModelProblem(
        name="kernel",
        spectrum=spec,
        perturbation=dense,
        first_order=first,
        second_order=second,
        generators=generators,
    )


def kernel_split_constants(k: int) -> dict:
    """Published split-certificate constants of the kernel family.

    These are the analytic values quoted for the splitting around index
    k; the splitting itself also reports the honest norms of the
    truncated matrix, which can differ (the tail of the column series is
    not negligible at k = 0).
    """
    s = 1.0 / (2.0 * np.pi)
    if k == 0:
        return {
            "s": s,
            "b1": 1.0 + 0.0j,
            "b21_norm": 1.0 / (2.0 * np.pi),
            "b12s_norm": 1.0 / (12.0 * math.sqrt(5.0)),
            "m": 1.0 / (2.0 * np.pi),
        }
    ak = abs(int(k))
    return {
        "s": s,
        "b1": 0.0 + 0.0j,
        "b21_norm": 1.0 / (2.0 * np.pi * ak),
        "b12s_norm": 1.0 / (4.0 * np.pi**2 * ak**2),
        "m": 1.0 / (2.0 * np.pi * ak),
    }


# -- involution family -----------------------------------------------------


def _twist_coefficients(coeffs: dict, theta: float, kmax: int) -> dict:
    """Coefficients of v(t) e^{2 pi i theta t} for |k| <= kmax.

    Integer theta is an exact index shift; otherwise the factor has the
    full series (e^{2 pi i theta} - 1) / (2 pi i (theta - r)).
    """
    if abs(theta - round(theta)) < 1e-14:
        t = int(round(theta))
        return {k: coeffs[k - t] for k in range(-kmax, kmax + 1) if (k - t) in coeffs}
    phase = cmath.exp(2j * np.pi * theta) - 1.0
    out = {}
    for k in range(-kmax, kmax + 1):
        z = 0.0 + 0.0j
        for j, vj in coeffs.items():
            z += vj * phase / (2j * np.pi * (theta - (k - j)))
        if z != 0.0:
            out[k] = z
    return out


def involution_model(half_width: int, theta: float, coeffs) -> ModelProblem:
    """First order operator coupling t with 1 - t through potential v.

    Eigenvalues pi i (2k - theta); the perturbation entry (m, n) is
    e^{-i pi theta} times the twisted coefficient at m + n.
    """
    coeffs = _clean_coeffs(coeffs, "involution potential")
    idx = _window_indices(half_width)
    # a theta near the float limit overflows here, and Spectrum refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        values = 1j * np.pi * (2.0 * idx - theta)
    spec = Spectrum(idx, values)
    base = Partition.trivial(spec)

    kmax = 2 * half_width
    tw = _twist_coefficients(coeffs, theta, kmax)
    phase = cmath.exp(-1j * np.pi * theta)
    # phase * c only where a coefficient exists: phase * 0 could write -0.0
    table = _coeff_table({k: phase * c for k, c in tw.items()}, kmax)
    b = BlockMatrix(base, table[idx[:, None] + idx[None, :] + kmax])

    first = np.array([phase * tw.get(2 * n, 0.0) for n in idx], dtype=complex)
    # second order: sum over ell != n of (phase c_{ell+n})^2 / (2 pi i (ell - n)),
    # added in ascending ell for all n at once; a sum that starts at +0.0
    # never turns -0.0, so the zero terms of absent coefficients change nothing;
    # a square that overflows makes ||B||_F overflow, and the CLI refuses B
    squares = _coeff_table({k: phase * phase * c * c for k, c in tw.items()}, kmax)
    second = np.zeros(spec.dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in idx:
            gap = ell - idx
            off = gap != 0
            second[off] += squares[ell + idx[off] + kmax] / (2j * np.pi * gap[off])
    return ModelProblem(
        name="involution",
        spectrum=spec,
        perturbation=b,
        first_order=first,
        second_order=second,
    )


def involution_offdiag_energy(coeffs, half_width: int):
    """Window evaluation of the quartic coupling bound, theta = 0.

    Returns (lhs, rhs) with

        lhs = (1/4 pi^2) sum_{|m|,|n| <= half_width}
              | sum_{l != n} vhat(l+m) vhat(l+n) / (l - n) |^2,
        rhs = (9/4) (sum |vhat|^2)^2.

    The inner sum runs over the full (finite) coefficient support, so
    enlarging the window only adds nonnegative terms: the lhs increases
    monotonically toward its limit and never overshoots the bound.
    """
    coeffs = _clean_coeffs(coeffs, "coefficients")
    norm_sq = sum(abs(c) ** 2 for c in coeffs.values())
    rhs = 2.25 * norm_sq**2
    support = sorted(coeffs)
    lhs = 0.0
    for m in range(-half_width, half_width + 1):
        for n in range(-half_width, half_width + 1):
            inner = 0.0 + 0.0j
            for km in support:
                ell = km - m
                if ell == n:
                    continue
                cn = coeffs.get(ell + n)
                if cn is None:
                    continue
                inner += coeffs[km] * cn / (ell - n)
            lhs += abs(inner) ** 2
    return lhs / (4.0 * np.pi**2), float(rhs)


# -- dirac family ------------------------------------------------------------

_FFT_START = 512
_FFT_LIMIT = 2**18
_FFT_STABLE = 1e-10


def _fft_coefficients(values_on, kmax: int, grid_size: int) -> np.ndarray:
    """Coefficients c_r, |r| <= kmax, of a 1-periodic callable by FFT;
    refuses samples, then coefficients, that are not finite."""
    t = np.arange(grid_size) / grid_size
    values = values_on(t)
    if np.isfinite(values).all():
        c = np.fft.fft(values) / grid_size
        if np.isfinite(c).all():
            return c[np.arange(-kmax, kmax + 1) % grid_size]
    raise InvalidInputError("the gauged potential overflows on the FFT grid; "
                            "scale the potentials down")


def _stable_fft_coefficients(values_on, kmax: int) -> np.ndarray:
    """FFT coefficients re-run on a doubled grid until they agree.

    Aliasing shows up as disagreement between the two resolutions;
    persistent disagreement raises :class:`ResolutionError`.
    """
    size = _FFT_START
    while size <= 4 * kmax:
        size *= 2
    with np.errstate(over="ignore", invalid="ignore"):
        prev = _fft_coefficients(values_on, kmax, size)
        while size <= _FFT_LIMIT:
            size *= 2
            cur = _fft_coefficients(values_on, kmax, size)
            scale = max(1.0, float(np.abs(cur).max()))
            if float(np.abs(cur - prev).max()) <= _FFT_STABLE * scale:
                return cur
            prev = cur
    raise ResolutionError(
        f"potential coefficients did not stabilize below grid size {_FFT_LIMIT}"
    )


def dirac_model(
    half_width: int,
    v1,
    v2,
    v3,
    v4,
    gauge: bool = True,
) -> ModelProblem:
    """Dirac system on 2x2 blocks with eigenvalues 2 pi n, multiplicity 2.

    Block (m, n) of the perturbation is

        [[w1(n - m),  w2(-n - m)],
         [w3(n + m),  w4(m - n)]].

    With ``gauge`` the diagonal potentials are replaced by their means
    and the off-diagonal ones by the gauge-transformed versions
    u2 = v2 e^{i g}, u3 = v3 e^{-i g}, where g integrates the
    oscillating part of v1 + v4; this leaves the operator similar to
    the original while making the diagonal of the perturbation constant.
    """
    v1 = _clean_coeffs(v1, "v1")
    v2 = _clean_coeffs(v2, "v2")
    v3 = _clean_coeffs(v3, "v3")
    v4 = _clean_coeffs(v4, "v4")
    idx = _window_indices(half_width)
    spec = Spectrum(idx, 2.0 * np.pi * idx, np.full(idx.size, COORDINATES_PER_INDEX["dirac"]))
    base = Partition.trivial(spec)

    kmax = 2 * half_width
    c1 = v1.get(0, 0.0 + 0.0j)
    c4 = v4.get(0, 0.0 + 0.0j)

    if gauge:
        osc = {k: v1.get(k, 0.0) + v4.get(k, 0.0) for k in set(v1) | set(v4) if k != 0}

        def gfun(t):
            out = np.zeros(t.size, dtype=complex)
            for k, z in osc.items():
                out += z * (np.exp(2j * np.pi * k * t) - 1.0) / (2j * np.pi * k)
            return out

        u2 = _stable_fft_coefficients(lambda t: _fourier_eval(v2, t) * np.exp(1j * gfun(t)), kmax)
        u3 = _stable_fft_coefficients(lambda t: _fourier_eval(v3, t) * np.exp(-1j * gfun(t)), kmax)
        w1, w2, w3, w4 = _coeff_table({0: c1}, kmax), u2, u3, _coeff_table({0: c4}, kmax)
    else:
        w1, w2, w3, w4 = (_coeff_table(v, kmax) for v in (v1, v2, v3, v4))

    d = spec.dim
    m = idx[:, None]
    n = idx[None, :]
    data = np.zeros((d, d), dtype=complex)
    data[0::2, 0::2] = w1[n - m + kmax]
    data[0::2, 1::2] = w2[-n - m + kmax]
    data[1::2, 0::2] = w3[n + m + kmax]
    data[1::2, 1::2] = w4[m - n + kmax]
    return ModelProblem(name="dirac", spectrum=spec, perturbation=BlockMatrix(base, data))


# -- hill family --------------------------------------------------------------


def hill_model(half_width: int, theta: float, coeffs) -> ModelProblem:
    """Second order operator with quasi-momentum theta and potential v.

    Eigenvalues (pi (2n - theta))^2; the perturbation is the Toeplitz
    matrix of the potential coefficients.  theta must stay away from
    integers or eigenvalues collide.
    """
    if abs(theta - round(theta)) < 1e-9:
        raise InvalidInputError("hill quasi-momentum must stay away from integers")
    coeffs = _clean_coeffs(coeffs, "hill potential")
    idx = _window_indices(half_width)
    spec = Spectrum(idx, (np.pi * (2.0 * idx - theta)) ** 2 + 0j)
    base = Partition.trivial(spec)

    d = spec.dim
    kmax = 2 * half_width
    b = BlockMatrix(base, _coeff_table(coeffs, kmax)[idx[:, None] - idx[None, :] + kmax])

    first = np.full(d, coeffs.get(0, 0.0 + 0.0j), dtype=complex)
    second = np.zeros(d, dtype=complex)
    support = sorted(k for k in coeffs if k != 0)
    for i, n in enumerate(idx.tolist()):
        z = 0.0 + 0.0j
        for k in support:  # ell = n - k, so ell - n = -k and ell + n = 2n - k
            z += coeffs[k] * coeffs.get(-k, 0.0) / (4.0 * np.pi**2 * -k * (2 * n - k - theta))
        second[i] = z
    return ModelProblem(
        name="hill",
        spectrum=spec,
        perturbation=b,
        first_order=first,
        second_order=second,
    )


MODELS = {
    "kernel": kernel_model,
    "involution": involution_model,
    "dirac": dirac_model,
    "hill": hill_model,
}
# coordinates of the free operator per window index: dirac's 2 x 2 blocks
COORDINATES_PER_INDEX = {"kernel": 1, "involution": 1, "dirac": 2, "hill": 1}
