import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simspec.errors import (
    InvalidInputError,
    NotInvertibleError,
    PartitionMismatchError,
)
from simspec.models import kernel_model
from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    gap_inverse_square_sum,
    spectral_gap,
)
from simspec.transforms import block_diagonal, commutator_inverse

from partition_reference import group_positions, same_group_mask


def simple_spectrum(n=4, mults=None):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx, mults=mults)


def random_block(rng, partition):
    d = partition.spectrum.dim
    return BlockMatrix(partition, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


class TestWindow:
    """The window -N..N comes from the model builders; the interior is
    cut from it by a fraction in (0, 1]."""

    def test_bad_width(self):
        with pytest.raises(InvalidInputError):
            kernel_model(0)

    def test_bad_fraction(self):
        spec = simple_spectrum(4)
        for fraction in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(InvalidInputError, match="interior fraction"):
                spec.interior_indices(fraction)


class TestSpectrum:
    def test_positions_and_values(self):
        spec = simple_spectrum(2)
        assert spec.dim == 5
        assert spec.value_of(1) == 2j * np.pi
        assert list(spec.positions_of(-2)) == [0]

    def test_multiplicities(self):
        spec = simple_spectrum(1, mults=[2, 1, 2])
        assert spec.dim == 5
        assert list(spec.positions_of(1)) == [3, 4]
        assert np.array_equal(spec.position_values, 2j * np.pi * np.array([-1, -1, 0, 1, 1]))

    def test_ordinal_range(self):
        spec = simple_spectrum(2)
        assert [spec.ordinal(n) for n in range(-2, 3)] == [0, 1, 2, 3, 4]
        for n in (-3, 3):
            with pytest.raises(InvalidInputError, match=f"index {n} outside spectrum range"):
                spec.ordinal(n)

    def test_interior(self):
        assert list(simple_spectrum(8).interior_indices()) == list(range(-4, 5))

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 40), fraction=st.floats(0.0, 1.0, exclude_min=True))
    def test_interior_cut(self, n, fraction):
        lim = max(1, math.floor(n * fraction))
        assert list(simple_spectrum(n).interior_indices(fraction)) == list(range(-lim, lim + 1))

    def test_rejects_duplicate_values(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([0, 1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("values", [
        [2j, 1.0, 2j],
        [complex(0.0, 1.0), complex(-0.0, 1.0)],
    ], ids=["apart", "signed-zero"])
    def test_rejects_equal_values_anywhere(self, values):
        with pytest.raises(InvalidInputError, match="pairwise distinct"):
            Spectrum(np.arange(len(values)), np.array(values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            Spectrum(np.arange(3), np.array([0.0, bad, 1.0]))

    def test_rejects_gapped_indices(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([0, 2]), np.array([0.0, 1.0]))

    def test_gap_quantities(self):
        spec = simple_spectrum(3)
        assert spectral_gap(spec) == pytest.approx(2 * np.pi)
        # eta at the center index dominates: two neighbours at distance 2pi
        eta = gap_inverse_square_sum(spec)
        direct = max(
            sum(
                1.0 / abs(2j * np.pi * (m - j)) ** 2
                for m in range(-3, 4)
                if m != j
            )
            for j in range(-3, 4)
        )
        assert eta == pytest.approx(direct, rel=1e-12)


def old_spectral_gap(values):
    """Reference: ``spectral_gap`` evaluated per call, without the cached table."""
    if values.size < 2:
        return math.inf
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def old_gap_inverse_square_sum(values):
    """Reference: ``gap_inverse_square_sum`` evaluated per call."""
    if values.size < 2:
        return 0.0
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float((1.0 / diff**2).sum(axis=0).max())


def random_spectrum(size, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Spectrum(np.arange(size) - size // 2, values)


class TestGaps:
    @settings(deadline=None, max_examples=60)
    @given(size=st.integers(1, 12), seed=st.integers(0, 10_000))
    @example(size=1, seed=0)
    def test_gap_quantities_match_old_formulas_bitwise(self, size, seed):
        spec = random_spectrum(size, seed)
        gap, eta = spectral_gap(spec), gap_inverse_square_sum(spec)
        assert gap == old_spectral_gap(spec.values)
        assert eta == old_gap_inverse_square_sum(spec.values)
        if size == 1:
            assert (gap, eta) == (math.inf, 0.0)

    def test_table_is_built_once_and_read_only(self):
        spec = simple_spectrum(3)
        table = spec.gaps()
        assert table is spec.gaps()
        assert np.all(np.isinf(np.diag(table)))
        with pytest.raises(ValueError):
            table[0, 1] = 0.0


def reference_groups(spectrum, radius):
    """Per-group positions and the group of each position, built index by
    index: every index outside |n| <= radius is a singleton, and the
    central group |n| <= radius takes the place of its first index."""
    groups = []
    for n in spectrum.indices:
        if abs(n) <= radius and groups and abs(groups[-1][0]) <= radius:
            groups[-1].append(int(n))
        else:
            groups.append([int(n)])
    positions = [np.concatenate([spectrum.positions_of(i) for i in g]) for g in groups]
    gid = np.empty(spectrum.dim, dtype=int)
    for g, pos in enumerate(positions):
        gid[pos] = g
    return positions, gid


def in_block_mask(part):
    """Boolean d x d mask of the entries ``part.block_entries()`` lists."""
    d = part.spectrum.dim
    mask = np.zeros((d, d), dtype=bool)
    mask[part.block_entries()] = True
    return mask


class TestPartition:
    def test_trivial(self):
        spec = simple_spectrum(2)
        part = Partition.trivial(spec)
        assert part.n_groups == 5
        assert list(part.gid_of_position) == [0, 1, 2, 3, 4]
        assert list(part.dims) == [1] * 5

    def test_coarse(self):
        spec = simple_spectrum(3, mults=[1, 2, 1, 1, 1, 2, 1])
        part = Partition.coarse(spec, 1)
        # groups in index order, the central group at its natural place
        assert part.n_groups == 5
        assert list(part.dims) == [1, 2, 3, 2, 1]
        assert list(part.bounds) == [0, 1, 3, 6, 8]
        assert list(group_positions(part, 2)) == [3, 4, 5]
        assert list(group_positions(part, 1)) == [1, 2]
        assert list(part.gid_of_position) == [0, 1, 1, 2, 2, 2, 3, 3, 4]

    def test_coarse_refuses_empty_center(self):
        spec = simple_spectrum(2)
        with pytest.raises(InvalidInputError):
            Partition.coarse(spec, -1)
        off_center = Spectrum(np.arange(3, 7), np.arange(3, 7) * 1.0)
        with pytest.raises(InvalidInputError, match="central group is empty"):
            Partition.coarse(off_center, 2)

    @settings(deadline=None, max_examples=80)
    @given(
        lo=st.integers(-6, 4),
        mults=st.lists(st.integers(1, 3), min_size=1, max_size=9),
        data=st.data(),
    )
    def test_matches_per_index_reference(self, lo, mults, data):
        idx = np.arange(lo, lo + len(mults))
        spec = Spectrum(idx, 2j * np.pi * idx, mults=mults)
        radius = data.draw(st.integers(-1, int(np.abs(idx).max()) + 1))
        part = Partition(spec, radius)
        positions, gid = reference_groups(spec, radius)
        assert part.n_groups == len(positions)
        assert np.array_equal(part.gid_of_position, gid)
        assert np.array_equal(part.dims, [p.size for p in positions])
        for g, pos in enumerate(positions):
            assert np.array_equal(group_positions(part, g), pos)
            assert np.array_equal(pos, np.arange(part.bounds[g], part.bounds[g] + part.dims[g]))
        assert np.array_equal(part.bounds, np.cumsum([0] + [p.size for p in positions])[:-1])
        assert np.array_equal(same_group_mask(part), gid[:, None] == gid[None, :])
        assert np.array_equal(in_block_mask(part), gid[:, None] == gid[None, :])

    def test_same_group_mask(self):
        spec = simple_spectrum(2)
        part = Partition.coarse(spec, 1)
        mask = same_group_mask(part)
        assert mask.shape == (5, 5)
        # center 3x3 block plus the two singletons
        assert mask[1:4, 1:4].all()
        assert not mask[0, 1]
        # the partition's in-block entries are the mask's, each once
        rows, cols = part.block_entries()
        assert rows.size == mask.sum()
        assert np.array_equal(in_block_mask(part), mask)


class TestNorms:
    def test_norm_chain_fixed(self):
        rng = np.random.default_rng(5)
        spec = simple_spectrum(4)
        part = Partition.coarse(spec, 2)
        x = random_block(rng, part)
        op, block, full = x.op(), x.hs_sigma(), x.hs()
        assert op <= block * (1 + 1e-9)
        assert block <= full * (1 + 1e-9)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 4))
    def test_norm_chain_property(self, seed, m):
        rng = np.random.default_rng(seed)
        spec = simple_spectrum(4)
        x = random_block(rng, Partition.coarse(spec, m))
        op, block, full = x.op(), x.hs_sigma(), x.hs()
        assert op <= block + 1e-9 * (1 + full)
        assert block <= full + 1e-9 * (1 + full)

    def test_block_diagonal_spectral_equals_op(self):
        # for one dense block the blockwise and operator norms coincide
        rng = np.random.default_rng(6)
        spec = simple_spectrum(2)
        part = Partition.coarse(spec, 2)
        x = random_block(rng, part)
        assert x.op() == pytest.approx(x.hs_sigma(), rel=1e-9)

    def test_operator_norm_estimate_known(self):
        spec = simple_spectrum(1)
        part = Partition.trivial(spec)
        assert BlockMatrix(part, np.diag([3.0, -1.0, 0.5])).op() == pytest.approx(3.0, rel=1e-15)
        # singular values of [[1, 2], [0, 1]] are sqrt(2) + 1 and sqrt(2) - 1
        x = BlockMatrix(part, [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert x.op() == pytest.approx(np.sqrt(2.0) + 1.0, rel=1e-15)


def reference_block_spectral_sq(x):
    """Per-block squared spectral norms, one dense 2-norm per block."""
    part = x.partition
    out = np.zeros((part.n_groups, part.n_groups))
    for gi in range(part.n_groups):
        for gj in range(part.n_groups):
            blk = x.data[np.ix_(group_positions(part, gi), group_positions(part, gj))]
            out[gi, gj] = np.linalg.norm(blk, 2) ** 2
    return out


def sparse_block(rng, part, sparse):
    """Random matrix with about half its blocks zeroed when `sparse`,
    together with the G x G pattern of the blocks that were kept."""
    d, g = part.spectrum.dim, part.n_groups
    data = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    kept = rng.random((g, g)) < 0.5 if sparse else np.ones((g, g), dtype=bool)
    gid = part.gid_of_position
    data[~kept[np.ix_(gid, gid)]] = 0.0
    return BlockMatrix(part, data), kept


def apply_op(op, x, kx, y, ky):
    """One block operation on x (and y), with the pattern of blocks that
    may be nonzero in its result by block algebra on the operands' patterns."""
    part = x.partition
    eye = np.eye(part.n_groups, dtype=bool)
    if op == "none":
        return x, kx
    if op == "matmul":
        return x @ y, (kx.astype(int) @ ky.astype(int)) > 0
    if op == "add":
        return x + y, kx | ky
    if op == "adjoint":
        return BlockMatrix(part, x.data.conj().T), kx.T
    if op == "commutator_inverse":
        return commutator_inverse(x), kx & ~eye
    assert op == "block_diagonal"
    return block_diagonal(x), kx & eye


@st.composite
def partitions(draw):
    """Trivial, uniform width 2, coarse, or a radius from -1 to n over
    multiplicities {1, 2, 3} (so blocks pair different widths, e.g. 2 x 3)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["trivial", "width2", "coarse", "mixed"]))
    if kind == "trivial":
        return Partition.trivial(simple_spectrum(n))
    if kind == "width2":
        return Partition.trivial(simple_spectrum(n, mults=[2] * (2 * n + 1)))
    if kind == "coarse":
        return Partition.coarse(simple_spectrum(n), draw(st.integers(0, n)))
    mults = draw(st.lists(st.integers(1, 3), min_size=2 * n + 1, max_size=2 * n + 1))
    return Partition(simple_spectrum(n, mults=mults), draw(st.integers(-1, n)))


class TestBlockSpectralSq:
    @settings(deadline=None, max_examples=60)
    @given(
        part=partitions(),
        seed=st.integers(0, 10_000),
        sparse=st.booleans(),
        op=st.sampled_from(
            ["none", "matmul", "add", "adjoint", "commutator_inverse", "block_diagonal"]
        ),
    )
    def test_matches_per_block_reference(self, part, seed, sparse, op):
        rng = np.random.default_rng(seed)
        x, kx = sparse_block(rng, part, sparse)
        y, ky = sparse_block(rng, part, sparse)
        z, kz = apply_op(op, x, kx, y, ky)
        got = z.block_spectral_sq()
        np.testing.assert_allclose(got, reference_block_spectral_sq(z), rtol=1e-12, atol=0.0)
        # exact-zero blocks stay exact zeros through the algebra
        assert np.all(got[~kz] == 0.0)

    def test_zero_matrix(self):
        part = Partition.coarse(simple_spectrum(3), 1)
        assert not BlockMatrix.zeros(part).block_spectral_sq().any()

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_hs_sigma_matches_the_table_sum(self, block_partition, seed, sparse, layout):
        x, _ = sparse_block(np.random.default_rng(seed), block_partition, sparse)
        x = BlockMatrix(block_partition, np.asarray(x.data, order=layout))
        ref = math.sqrt(x.block_spectral_sq().sum())
        assert x.hs_sigma() == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_hs_sigma_of_zero(self, block_partition):
        assert BlockMatrix.zeros(block_partition).hs_sigma() == 0.0

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 5),
        radius=st.integers(-1, 5),
        seed=st.integers(0, 10_000),
        sparse=st.booleans(),
    )
    def test_width_two_closed_form_matches_svd(self, n, radius, seed, sparse):
        # multiplicity 2 everywhere: the 2 x 2 blocks take the closed form,
        # the central group's blocks (radius >= 0) the batched SVD
        spec = simple_spectrum(n, mults=[2] * (2 * n + 1))
        part = Partition(spec, min(radius, n))
        x, _ = sparse_block(np.random.default_rng(seed), part, sparse)
        got = x.block_spectral_sq()
        ulps8 = 8 * np.finfo(float).eps
        for gi in range(part.n_groups):
            for gj in range(part.n_groups):
                blk = x.data[np.ix_(group_positions(part, gi), group_positions(part, gj))]
                ref = np.linalg.svd(blk, compute_uv=False)[0] ** 2
                assert abs(got[gi, gj] - ref) <= ulps8 * ref
        # the chain is tight when one block holds all of x, so allow rounding
        op, block, full = x.op(), x.hs_sigma(), x.hs()
        assert op <= block * (1 + ulps8)
        assert block <= full * (1 + ulps8)


class TestBlockMatrix:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(7)
        spec = simple_spectrum(3)
        part = Partition.coarse(spec, 1)
        x = random_block(rng, part)
        y = BlockMatrix(part, x.dense())
        assert np.array_equal(x.dense(), y.dense())

    def test_matmul_against_dense(self):
        rng = np.random.default_rng(8)
        spec = simple_spectrum(3)
        part = Partition.coarse(spec, 1)
        x, y = random_block(rng, part), random_block(rng, part)
        assert np.allclose((x @ y).dense(), x.dense() @ y.dense())

    def test_partition_mismatch(self):
        spec = simple_spectrum(2)
        a = BlockMatrix.zeros(Partition.trivial(spec))
        b = BlockMatrix.zeros(Partition.coarse(spec, 1))
        with pytest.raises(PartitionMismatchError):
            _ = a + b

    def test_data_is_read_only(self):
        spec = simple_spectrum(2)
        x = BlockMatrix.zeros(Partition.trivial(spec))
        with pytest.raises(ValueError):
            x.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            x.data += 1.0

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(0, 12), seed=st.integers(0, 10_000),
           layout=st.sampled_from(["C", "transposed", "sliced"]),
           scale=st.sampled_from([1.0, 1e-150, 1e150]))
    def test_hs_matches_linalg_norm(self, n, seed, layout, scale):
        spec = simple_spectrum(n)
        d = spec.dim
        rng = np.random.default_rng(seed)
        big = scale * (rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d)))
        data = {"C": big[:d, :d].copy(), "transposed": big[:d, :d].copy().T,
                "sliced": big[::2, 1::2]}[layout]
        ref = float(np.linalg.norm(data))
        hs = BlockMatrix(Partition.trivial(spec), data).hs()
        assert abs(hs - ref) <= 4 * d * d * np.finfo(float).eps * ref

    def test_hs_of_zero_and_of_overflow(self):
        spec = simple_spectrum(2)
        part = Partition.trivial(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert BlockMatrix.zeros(part).hs() == 0.0
            assert BlockMatrix(part, np.full((5, 5), 1e200 + 0j)).hs() == math.inf


class TestInverse:
    def test_inverse_identity_plus(self):
        rng = np.random.default_rng(12)
        spec = simple_spectrum(3)
        part = Partition.trivial(spec)
        x = BlockMatrix(part, 0.05 * random_block(rng, part).data)
        from simspec.opmatrix import inv_identity_plus

        inv = inv_identity_plus(x)
        eye = np.eye(spec.dim)
        assert np.allclose((eye + x.dense()) @ inv.dense(), eye, atol=1e-12)

    def test_singular_rejected(self):
        from simspec.opmatrix import inv_identity_plus

        spec = simple_spectrum(1)
        part = Partition.trivial(spec)
        x = BlockMatrix(part, -np.eye(spec.dim))  # I + X = 0
        with pytest.raises(NotInvertibleError):
            inv_identity_plus(x)

    def test_ill_conditioned_rejected(self):
        from simspec.opmatrix import inv_identity_plus

        # I + X = diag(1, 0.5, 1e-13): inverted exactly, so only the
        # condition gate (kappa_2 = 1e13 > 1e12) can refuse it
        spec = simple_spectrum(1)
        x = BlockMatrix(Partition.trivial(spec), np.diag([0.0, -0.5, 1e-13 - 1.0]))
        assert 0.9e13 < np.linalg.cond(np.eye(3) + x.data) < 1.1e13
        with pytest.raises(NotInvertibleError, match="numerically singular"):
            inv_identity_plus(x)
