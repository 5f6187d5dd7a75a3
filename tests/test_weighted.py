import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.errors import DegenerateWeightError, InvalidInputError, WindowTooSmallError
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


def old_coupling_table(values):
    """Reference: the coupling table d(j, l) = 1/|lambda_j - lambda_l|, 0 on
    the diagonal, built per call from the eigenvalues."""
    diff2 = np.abs(values[:, None] - values[None, :]) ** 2
    np.fill_diagonal(diff2, np.inf)
    return np.sqrt(1.0 / diff2)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 6), seed=st.integers(0, 10_000))
def test_alpha_prime_reads_old_coupling_table_bitwise(n, seed):
    """alpha_prime[h] = max alpha[|l|] d(j, l) over |l| < h <= |j|; a max of
    single products is exact, so it matches the old table bit for bit."""
    rng = np.random.default_rng(seed)
    idx = np.arange(-n, n + 1)
    spec = Spectrum(idx, rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))
    data = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
    w = decay_weights(BlockMatrix(Partition.trivial(spec), data))
    table = old_coupling_table(spec.values)
    lev = np.abs(idx)
    for h in range(w.max_level + 1):
        pairs = [w.alpha[lev[l]] * table[j, l]
                 for j in range(idx.size) for l in range(idx.size) if lev[l] < h <= lev[j]]
        assert w.alpha_prime[h] == max(pairs, default=0.0)


class TestFactorization:
    def test_norm_is_max_of_sides(self):
        x = decaying_matrix(4, seed=4)
        w = decay_weights(x)
        inv = 1.0 / w.position_weights(x.partition.spectrum)
        left = BlockMatrix(x.partition, x.data * inv[None, :])
        right = BlockMatrix(x.partition, x.data * inv[:, None])
        assert factorize(x, w) == max(left.hs_sigma(), right.hs_sigma())

    def test_weighted_norm_dominates_plain(self):
        # weights are <= 1 so dividing by them can only grow the norm
        x = decaying_matrix(4, seed=5)
        w = decay_weights(x)
        assert factorize(x, w) >= x.hs_sigma() - 1e-12


def old_factorize_norm(x, w):
    """Reference: the weighted norm with the weights' spectrum re-checked
    and the inverse weights rebuilt on every call."""
    apos = w.position_weights(x.partition.spectrum)
    dead = apos == 0.0
    if np.any(dead) and (np.any(x.data[:, dead] != 0.0) or np.any(x.data[dead, :] != 0.0)):
        raise DegenerateWeightError("matrix has mass on zero-weight levels")
    inv = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, apos))
    left = BlockMatrix(x.partition, x.data * inv[None, :])
    right = BlockMatrix(x.partition, x.data * inv[:, None])
    return max(left.hs_sigma(), right.hs_sigma())


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 6), support=st.integers(0, 6), radius=st.integers(-1, 3),
       mult=st.integers(1, 2), seed=st.integers(0, 10_000))
def test_factorize_norm_matches_old_form(n, support, radius, mult, seed):
    """Levels above `support` carry no mass, so their weights are zero."""
    rng = np.random.default_rng(seed)
    idx = np.arange(-n, n + 1)
    spec = Spectrum(idx, 2j * np.pi * idx, mults=[mult] * idx.size)
    live = np.abs(spec.position_index) <= support

    def supported():
        d = spec.dim
        data = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return data * (live[:, None] & live[None, :])

    w = decay_weights(BlockMatrix(Partition.trivial(spec), supported()))
    assert np.any(w.alpha == 0.0) == (support < n)
    twin = Spectrum(idx, spec.values, mults=spec.mults)  # equal entries, another object
    for part in (Partition(spec, min(radius, n)), Partition.trivial(twin)):
        for _ in range(2):  # the second call reads the cached inverse weights
            x = BlockMatrix(part, supported())
            assert factorize(x, w) == old_factorize_norm(x, w)
        if support < n:
            x = BlockMatrix(part, rng.normal(size=(spec.dim, spec.dim)) + 0j)
            with pytest.raises(DegenerateWeightError):
                factorize(x, w)
    other = Spectrum(idx, 2j * np.pi * idx + 0.5, mults=spec.mults)
    with pytest.raises(InvalidInputError):
        factorize(BlockMatrix(Partition.trivial(other), supported()), w)


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
