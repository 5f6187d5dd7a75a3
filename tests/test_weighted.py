import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.errors import DegenerateWeightError, WindowTooSmallError
from simspec.models import kernel_model
from simspec.opmatrix import BlockMatrix, Partition, Spectrum
from simspec.weighted import (
    decay_weights,
    factorize,
    select_coarsening,
    weights_to_csv,
)


def spectrum(n):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx)


def decaying_matrix(n, rate=1.5, seed=0):
    spec = spectrum(n)
    part = Partition.trivial(spec)
    rng = np.random.default_rng(seed)
    d = spec.dim
    lev = np.abs(np.arange(-n, n + 1))
    damp = 1.0 / (1.0 + lev.astype(float)) ** rate
    data = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    data *= np.minimum(damp[:, None], damp[None, :])
    return BlockMatrix(part, data)


class TestDecayWeights:
    def test_alpha_zero_is_exactly_one(self):
        w = decay_weights(kernel_model(16).perturbation)
        assert float(w.alpha[0]) == 1.0

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 5_000), rate=st.floats(0.5, 3.0))
    def test_alpha_bounded_and_nonincreasing(self, seed, rate):
        w = decay_weights(decaying_matrix(6, rate=rate, seed=seed))
        assert float(w.alpha[0]) == 1.0
        assert np.all(w.alpha <= 1.0 + 1e-12)
        assert np.all(np.diff(w.alpha) <= 1e-12)

    def test_alpha_matches_tail_definition(self):
        x = decaying_matrix(5, seed=3)
        w = decay_weights(x)
        sq = x.block_spectral_sq()
        lev = np.abs(np.arange(-5, 6))
        row = np.array([sq[lev >= h, :].sum(axis=1).sum() for h in range(6)])
        col = np.array([sq[:, lev >= h].sum(axis=0).sum() for h in range(6)])
        top = np.maximum(row, col)
        expected = (top / top[0]) ** 0.25
        assert np.allclose(w.alpha, expected, rtol=1e-12)

    def test_zero_matrix_rejected(self):
        spec = spectrum(3)
        with pytest.raises(DegenerateWeightError):
            decay_weights(BlockMatrix.zeros(Partition.trivial(spec)))

    def test_gamma_grows_past_window(self):
        w = decay_weights(decaying_matrix(5, seed=1))
        assert w.gamma(0) > 0.0
        with pytest.raises(WindowTooSmallError):
            w.gamma(6)

    def test_alpha_prime_against_brute_force(self):
        x = decaying_matrix(5, seed=7)
        w = decay_weights(x)
        spec = x.partition.spectrum
        vals = {int(n): spec.value_of(n) for n in spec.indices}

        def coupling(j, l):
            return np.sqrt(
                max(
                    sum(1.0 / abs(vals[jj] - vals[ll]) ** 2 for jj in [j])
                    for ll in [l]
                )
            )

        for h in range(1, 6):
            best = 0.0
            for l in spec.indices:
                for j in spec.indices:
                    if abs(int(l)) < h <= abs(int(j)):
                        d = max(coupling(int(j), int(l)), coupling(int(l), int(j)))
                        best = max(best, w.alpha[abs(int(l))] * d)
            assert w.alpha_prime[h] == pytest.approx(best, rel=1e-10)


class TestFactorization:
    def test_product_reconstructs(self):
        x = decaying_matrix(5, seed=2)
        w = decay_weights(x)
        f = factorize(x, w)
        fa = np.diag(w.position_weights(x.partition.spectrum))
        assert np.allclose(f.left.dense() @ fa, x.dense(), atol=1e-12)
        assert np.allclose(fa @ f.right.dense(), x.dense(), atol=1e-12)

    def test_norm_is_max_of_sides(self):
        x = decaying_matrix(4, seed=4)
        w = decay_weights(x)
        f = factorize(x, w)
        assert f.norm == pytest.approx(max(f.left.hs_sigma(), f.right.hs_sigma()))

    def test_weighted_norm_dominates_plain(self):
        # weights are <= 1 so dividing by them can only grow the norm
        x = decaying_matrix(4, seed=5)
        w = decay_weights(x)
        assert factorize(x, w).norm >= x.hs_sigma() - 1e-12


class TestSelectCoarsening:
    def test_kernel_selects_finite_level(self):
        b = kernel_model(24).perturbation
        w = decay_weights(b)
        m, info = select_coarsening(b, w)
        assert 0 <= m <= 24
        assert info["contraction_q"] <= 0.9

    def test_margined_selection_monotone(self):
        b = kernel_model(24).perturbation
        w = decay_weights(b)
        m_tight, _ = select_coarsening(b, w, margin=0.9)
        m_loose, _ = select_coarsening(b, w, margin=0.99)
        assert m_loose <= m_tight

    def test_start_respected(self):
        b = kernel_model(24).perturbation
        w = decay_weights(b)
        m, _ = select_coarsening(b, w, start=5)
        assert m >= 5

    def test_impossible_margin_raises(self):
        b = decaying_matrix(4, rate=0.6, seed=6)
        b = BlockMatrix(b.partition, 50.0 * b.data)
        w = decay_weights(b)
        with pytest.raises(WindowTooSmallError) as err:
            select_coarsening(b, w, margin=1e-12)
        assert err.value.best is not None


class TestWeightCsv:
    def test_round_trip(self, tmp_path):
        w = decay_weights(decaying_matrix(4, seed=8))
        p = tmp_path / "w.csv"
        weights_to_csv(w, p)
        with open(p, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["level", "alpha", "alpha_prime", "alpha_tilde"]
        table = np.array(rows, dtype=float)
        assert list(table[:, 0]) == list(range(5))
        np.testing.assert_allclose(table[:, 1], w.alpha, rtol=1e-15)
        np.testing.assert_allclose(table[:, 2], w.alpha_prime, rtol=1e-15)
        np.testing.assert_allclose(table[:, 3], w.alpha_tilde, rtol=1e-15)
