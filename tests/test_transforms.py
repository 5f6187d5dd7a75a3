import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    gap_inverse_square_sum,
    spectral_gap,
)
from simspec.transforms import (
    block_diagonal,
    commutator_inverse,
    commutator_residual,
    off_diagonal_part,
)


def spectrum(n=4):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx)


def rand(rng, part):
    d = part.spectrum.dim
    return BlockMatrix(part, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def test_projection_splits_matrix():
    rng = np.random.default_rng(0)
    part = Partition.coarse(spectrum(3), 1)
    x = rand(rng, part)
    j = block_diagonal(x)
    off = off_diagonal_part(x)
    assert np.allclose(j.dense() + off.dense(), x.dense())
    # the block diagonal lives on the same-group mask only
    assert np.all(j.dense()[~part.same_group_mask()] == 0.0)


def test_projection_is_idempotent():
    rng = np.random.default_rng(1)
    part = Partition.coarse(spectrum(3), 1)
    x = rand(rng, part)
    j = block_diagonal(x)
    assert np.array_equal(block_diagonal(j).dense(), j.dense())


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), m=st.integers(0, 3))
def test_commutator_identity_property(seed, m):
    # A (Gamma X) - (Gamma X) A = X - JX for every X
    rng = np.random.default_rng(seed)
    part = Partition.coarse(spectrum(4), m)
    x = rand(rng, part)
    assert commutator_residual(x) <= 1e-12 * max(1.0, x.hs())


def test_commutator_inverse_is_off_diagonal():
    rng = np.random.default_rng(2)
    part = Partition.coarse(spectrum(4), 2)
    gx = commutator_inverse(rand(rng, part))
    assert np.all(gx.dense()[part.same_group_mask()] == 0.0)
    assert block_diagonal(gx).hs() == 0.0


def test_smoothing_bounds_tight_on_diagonal_partition():
    spec = spectrum(4)
    assert 1 / spectral_gap(spec) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)
    # eta is the inverse square gap sum maximized over columns
    assert gap_inverse_square_sum(spec) < 2.0 / (2 * np.pi) ** 2 * (np.pi**2 / 3)


def test_transform_norm_bounds_hold():
    rng = np.random.default_rng(3)
    part = Partition.trivial(spectrum(5))
    inv_delta = 1 / spectral_gap(part.spectrum)
    sqrt_eta = math.sqrt(gap_inverse_square_sum(part.spectrum))
    for _ in range(5):
        x = rand(rng, part)
        gx = commutator_inverse(x)
        assert gx.hs() <= inv_delta * x.hs() * (1 + 1e-12)
        assert gx.hs_sigma() <= sqrt_eta * x.hs_sigma() * (1 + 1e-12)
        assert gx.op() <= sqrt_eta * x.op() * (1 + 1e-9)


def test_multiplicity_blocks_share_divisor():
    # two positions with one label never produce a cross divisor
    idx = np.arange(-1, 2)
    spec = Spectrum(idx, 2j * np.pi * idx, mults=[1, 2, 1])
    part = Partition.trivial(spec)
    rng = np.random.default_rng(4)
    x = rand(rng, part)
    gx = commutator_inverse(x)
    pos = spec.positions_of(0)
    sub = gx.dense()[np.ix_(pos, pos)]
    assert np.all(sub == 0.0)
