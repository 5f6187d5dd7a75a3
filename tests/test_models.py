import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.cli import _coeffs_from_csv
from simspec.errors import InvalidInputError, ParseError
from simspec.models import (
    COORDINATES_PER_INDEX,
    MODELS,
    _fourier_eval,
    _stable_fft_coefficients,
    _twist_coefficients,
    dirac_model,
    hill_model,
    involution_model,
    involution_offdiag_energy,
    kernel_model,
    kernel_split_constants,
    random_trig_coeffs,
)
from simspec.transforms import block_diagonal, commutator_inverse
from simspec.verify import match_spectra, oracle_eigenvalues


def second_order_matrix_route(model):
    """diag of J(B Gamma B) on the index-per-entry partition."""
    bgb = model.perturbation @ commutator_inverse(model.perturbation)
    diag = block_diagonal(bgb).dense().diagonal()
    spec = model.spectrum
    return np.array([diag[spec.positions_of(n)[0]] for n in spec.indices])


class TestKernel:
    def test_mass_approaches_limit_from_below(self):
        prev = 0.0
        for n in (16, 32, 64):
            sq = kernel_model(n).perturbation.hs() ** 2
            assert prev < sq < 7.0 / 6.0
            prev = sq

    def test_spectrum_and_first_order(self):
        mdl = kernel_model(8)
        assert mdl.spectrum.value_of(3) == pytest.approx(6j * np.pi)
        # first order term is the diagonal entry at index 0 only
        assert mdl.first_order[mdl.spectrum.ordinal(0)] == 1.0
        assert mdl.first_order[mdl.spectrum.ordinal(2)] == 0.0

    def test_second_order_closed_form_vs_matrix(self):
        mdl = kernel_model(12)
        routed = second_order_matrix_route(mdl)
        for n in mdl.spectrum.interior_indices():
            o = mdl.spectrum.ordinal(int(n))
            assert abs(mdl.second_order[o] - routed[o]) <= 1e-14

    def test_perturbation_is_built_once(self):
        mdl = kernel_model(4)
        b = mdl.perturbation
        assert mdl.perturbation is b
        assert mdl.compact_perturbation is mdl.generators

    def test_generators_multiply_to_the_cross(self):
        mdl = kernel_model(6)
        gen = mdl.generators
        assert gen.p.shape == gen.q.shape == (mdl.spectrum.dim, 2)
        assert np.array_equal(gen.p @ gen.q.conj().T, mdl.perturbation.data)
        assert gen.hs() == pytest.approx(mdl.perturbation.hs(), rel=1e-15)

    def test_split_constants_published_values(self):
        c0 = kernel_split_constants(0)
        assert c0["b21_norm"] == pytest.approx(1 / (2 * np.pi))
        assert c0["b12s_norm"] == pytest.approx(1 / (12 * np.sqrt(5.0)))
        c2 = kernel_split_constants(2)
        assert c2["m"] == pytest.approx(1 / (4 * np.pi))
        assert c2["b12s_norm"] == pytest.approx(1 / (16 * np.pi**2))


class TestInvolution:
    def test_integer_twist_is_exact_shift(self):
        co = {0: 0.5, 1: 0.25 - 0.1j, -1: 0.25 + 0.1j}
        half = 8
        d0 = involution_model(half, 0.0, co).perturbation.dense()
        d1 = involution_model(half, 1.0, co).perturbation.dense()
        # a full-period twist moves every anti-diagonal up one index and
        # multiplies by e^{-i pi}; no smearing across coefficients
        for i in range(1, 2 * half + 1):
            for j in range(2 * half + 1):
                assert d1[i, j] == pytest.approx(-d0[i - 1, j], abs=1e-15)

    def test_entry_structure_is_hankel(self):
        co = {0: 0.4, 2: 0.2, -2: 0.2}
        mdl = involution_model(6, 0.0, co)
        spec = mdl.spectrum
        dense = mdl.perturbation.dense()
        pm = {int(n): spec.positions_of(n)[0] for n in spec.indices}
        # entries depend on m + n only
        assert dense[pm[1], pm[1]] == pytest.approx(dense[pm[0], pm[2]])
        assert dense[pm[-1], pm[3]] == pytest.approx(dense[pm[1], pm[1]])

    def test_second_order_vs_matrix_route(self):
        rng = np.random.default_rng(1)
        co = random_trig_coeffs(rng, degree=3, scale=0.5, real=True)
        mdl = involution_model(10, 0.37, co)
        routed = second_order_matrix_route(mdl)
        for n in mdl.spectrum.interior_indices():
            o = mdl.spectrum.ordinal(int(n))
            assert abs(mdl.second_order[o] - routed[o]) <= 1e-12

    def test_energy_inequality_monotone_and_bounded(self):
        rng = np.random.default_rng(2)
        co = random_trig_coeffs(rng, degree=4, scale=1.2, real=True)
        prev = 0.0
        for w in (2, 4, 8):
            lhs, rhs = involution_offdiag_energy(co, w)
            assert prev <= lhs + 1e-15
            assert lhs <= rhs
            prev = lhs


class TestHill:
    def test_integer_shift_rejected(self):
        with pytest.raises(InvalidInputError):
            hill_model(8, 1.0, {1: 0.5, -1: 0.5})

    def test_spectrum_values(self):
        mdl = hill_model(6, 0.5, {1: 0.3, -1: 0.3})
        assert mdl.spectrum.value_of(2) == pytest.approx((np.pi * 3.5) ** 2)
        assert mdl.spectrum.value_of(0) == pytest.approx((np.pi * 0.5) ** 2)

    def test_toeplitz_entries(self):
        mdl = hill_model(6, 0.5, {1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1})
        spec = mdl.spectrum
        dense = mdl.perturbation.dense()
        pm = {int(n): spec.positions_of(n)[0] for n in spec.indices}
        assert dense[pm[3], pm[1]] == pytest.approx(dense[pm[0], pm[-2]])
        assert dense[pm[1], pm[3]] == pytest.approx(dense[pm[-2], pm[0]])

    def test_second_order_interior_exact(self):
        rng = np.random.default_rng(3)
        co = random_trig_coeffs(rng, degree=3, scale=0.4, real=True)
        mdl = hill_model(12, 0.5, co)
        routed = second_order_matrix_route(mdl)
        for n in mdl.spectrum.interior_indices():
            o = mdl.spectrum.ordinal(int(n))
            assert abs(mdl.second_order[o] - routed[o]) <= 1e-12


class TestDirac:
    def make(self, gauge=True, half=8):
        co1 = {0: 0.3, 1: 0.15, -1: 0.15}
        co2 = {0: 0.2, 1: 0.1 - 0.05j, -1: 0.1 + 0.05j}
        co3 = {0: 0.25, 2: 0.08, -2: 0.08}
        co4 = {0: 0.35, 1: 0.12, -1: 0.12}
        return dirac_model(half, co1, co2, co3, co4, gauge=gauge)

    def test_double_eigenvalues(self):
        mdl = self.make()
        spec = mdl.spectrum
        assert spec.dim == 2 * len(spec.indices)
        assert list(spec.positions_of(0)) == [spec.ordinal(0) * 2, spec.ordinal(0) * 2 + 1]

    def test_gauge_preserves_spectrum(self):
        raw = self.make(gauge=False, half=6)
        gauged = self.make(gauge=True, half=6)
        a_raw = np.diag(raw.spectrum.position_values) - raw.perturbation.dense()
        a_g = np.diag(gauged.spectrum.position_values) - gauged.perturbation.dense()
        # same differential operator in two gauges: off-diagonal potentials
        # are rotated, so the truncated spectra agree up to window effects
        v_raw = oracle_eigenvalues(a_raw)
        v_g = oracle_eigenvalues(a_g)
        interior = np.abs(v_raw.imag) < 2 * np.pi * 3
        m = match_spectra(v_raw[interior], v_g[interior])
        assert m.max_abs_deviation < 5e-2

    def test_gauge_shrinks_diagonal_potentials(self):
        raw = self.make(gauge=False, half=6)
        gauged = self.make(gauge=True, half=6)
        assert gauged.perturbation.hs() <= raw.perturbation.hs() + 1e-12


class TestCoeffIO:
    def test_round_trip(self, tmp_path):
        co = {0: 0.5 + 0.0j, 3: 0.1 - 0.2j, -3: 0.1 + 0.2j}
        p = tmp_path / "c.csv"
        p.write_text("k,re,im\n" + "".join(
            f"{k},{z.real!r},{z.imag!r}\n" for k, z in sorted(co.items())))
        back = _coeffs_from_csv(p)
        assert back == co

    def test_rejects_bad_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("k,re,im\n1,0.5\n")
        with pytest.raises(ParseError):
            _coeffs_from_csv(p)

    def test_random_real_coeffs_are_conjugate_symmetric(self):
        rng = np.random.default_rng(4)
        co = random_trig_coeffs(rng, degree=5, real=True)
        for k, v in co.items():
            assert co[-k] == pytest.approx(np.conj(v))


@pytest.mark.parametrize("family", sorted(MODELS))
def test_coordinates_per_index_give_the_dimension(family):
    args = {"kernel": (), "dirac": ({0: 0.1},) * 4}.get(family, (0.5, {1: 0.1, -1: 0.1}))
    assert MODELS[family](2, *args).spectrum.dim == 5 * COORDINATES_PER_INDEX[family]


# -- the vectorised builders against their per-entry loops ------------------


def reference_kernel_data(half_width):
    """Perturbation, first and second order terms, one entry at a time."""
    idx = np.arange(-half_width, half_width + 1)
    n = half_width
    d = idx.size
    data = np.zeros((d, d), dtype=complex)
    z = n
    data[z, z] = 1.0
    for m in idx:
        if m == 0:
            continue
        data[m + n, z] = 1.0 / (2j * np.pi * m)
        data[z, m + n] = -1.0 / (2j * np.pi * m)
    first = np.zeros(d, dtype=complex)
    first[z] = 1.0
    second = np.zeros(d, dtype=complex)
    for m in idx:
        if m != 0:
            second[m + n] = 1j / (8.0 * np.pi**3 * m**3)
    return data, first, second


def reference_dirac_data(half_width, v1, v2, v3, v4, gauge):
    """Dirac perturbation assembled one 2 x 2 block at a time; an
    all-zero block is left unwritten."""
    idx = np.arange(-half_width, half_width + 1)
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

        def w(kind, k):
            if kind == 1:
                return c1 if k == 0 else 0.0
            if kind == 4:
                return c4 if k == 0 else 0.0
            return (u2 if kind == 2 else u3)[k + kmax] if abs(k) <= kmax else 0.0

    else:

        def w(kind, k):
            return (v1, v2, v3, v4)[kind - 1].get(k, 0.0)

    d = 2 * idx.size
    data = np.zeros((d, d), dtype=complex)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            blk = np.array(
                [[w(1, n - m), w(2, -n - m)], [w(3, n + m), w(4, m - n)]], dtype=complex
            )
            if blk.any():
                data[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
    return data


def reference_hill_data(half_width, coeffs):
    """Toeplitz perturbation filled one entry at a time; an index
    difference with no coefficient is left unwritten."""
    idx = np.arange(-half_width, half_width + 1)
    d = idx.size
    data = np.zeros((d, d), dtype=complex)
    for m in idx:
        for n in idx:
            c = coeffs.get(m - n)
            if c is not None:
                data[m + half_width, n + half_width] = c
    return data


def reference_involution_data(half_width, theta, coeffs):
    """Hankel perturbation and the second-order sum, one entry and one
    term at a time, over the twisted coefficients."""
    idx = np.arange(-half_width, half_width + 1)
    tw = _twist_coefficients(coeffs, theta, 2 * half_width)
    phase = cmath.exp(-1j * np.pi * theta)
    d = idx.size
    data = np.zeros((d, d), dtype=complex)
    for m in idx:
        for n in idx:
            c = tw.get(m + n)
            if c is not None:
                data[m + half_width, n + half_width] = phase * c
    second = np.zeros(d, dtype=complex)
    for i, n in enumerate(idx):
        z = 0.0 + 0.0j
        for ell in idx:
            if ell == n:
                continue
            c = tw.get(ell + n)
            if c is not None:
                z += phase * phase * c * c / (2j * np.pi * (ell - n))
        second[i] = z
    return data, second


_coeff_values = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
_potential = st.dictionaries(st.integers(-40, 40), _coeff_values, max_size=4)


@settings(deadline=None, max_examples=40)
@given(half_width=st.integers(1, 300))
def test_kernel_model_matches_entry_loop(half_width):
    mdl = kernel_model(half_width)
    data, first, second = reference_kernel_data(half_width)
    assert mdl.perturbation.data.tobytes() == data.tobytes()
    assert mdl.first_order.tobytes() == first.tobytes()
    assert mdl.second_order.tobytes() == second.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    half_width=st.integers(1, 12),
    pots=st.tuples(_potential, _potential, _potential, _potential),
    gauge=st.booleans(),
)
def test_dirac_model_matches_block_loop(half_width, pots, gauge):
    mdl = dirac_model(half_width, *pots, gauge=gauge)
    cleaned = [{k: complex(z) for k, z in p.items() if z != 0} for p in pots]
    expected = reference_dirac_data(half_width, *cleaned, gauge)
    assert mdl.perturbation.data.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    half_width=st.integers(1, 20),
    theta=st.floats(-2.9, 2.9).filter(lambda t: abs(t - round(t)) >= 1e-9),
    coeffs=_potential,
)
def test_hill_model_matches_entry_loop(half_width, theta, coeffs):
    mdl = hill_model(half_width, theta, coeffs)
    cleaned = {k: complex(z) for k, z in coeffs.items() if z != 0}
    assert mdl.perturbation.data.tobytes() == reference_hill_data(half_width, cleaned).tobytes()


@settings(deadline=None, max_examples=40)
@given(
    half_width=st.integers(1, 12),
    # integer twists take the exact-shift branch, the others the full series
    theta=st.one_of(st.integers(-2, 2).map(float), st.floats(-2.9, 2.9)),
    coeffs=_potential,
)
def test_involution_model_matches_entry_loop(half_width, theta, coeffs):
    mdl = involution_model(half_width, theta, coeffs)
    cleaned = {k: complex(z) for k, z in coeffs.items() if z != 0}
    data, second = reference_involution_data(half_width, theta, cleaned)
    assert mdl.perturbation.data.tobytes() == data.tobytes()
    assert mdl.second_order.tobytes() == second.tobytes()
