import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.errors import (
    InvalidInputError,
    NotInvertibleError,
    ParseError,
    PartitionMismatchError,
)
from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    TruncationWindow,
    free_diagonal,
    gap_inverse_square_sum,
    operator_norm_estimate,
    spectral_gap,
)


def simple_spectrum(n=4, mults=None):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx, mults=mults, window=TruncationWindow(n))


def random_block(rng, partition):
    d = partition.spectrum.dim
    return BlockMatrix(partition, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


class TestWindow:
    def test_indices_and_interior(self):
        win = TruncationWindow(8, interior_fraction=0.5)
        assert list(win.indices()) == list(range(-8, 9))
        assert win.interior_limit == 4

    def test_bad_width(self):
        with pytest.raises(InvalidInputError):
            TruncationWindow(0)

    def test_bad_fraction(self):
        with pytest.raises(InvalidInputError):
            TruncationWindow(4, interior_fraction=1.5)


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
        assert np.array_equal(free_diagonal(spec), spec.position_values)

    def test_interior(self):
        spec = simple_spectrum(8)
        assert list(spec.interior_indices()) == list(range(-4, 5))

    def test_rejects_duplicate_values(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([0, 1]), np.array([1.0, 1.0]))

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


class TestPartition:
    def test_trivial(self):
        spec = simple_spectrum(2)
        part = Partition.trivial(spec)
        assert len(part.groups) == 5
        assert part.gid(0) == part.gid(0)

    def test_two_part(self):
        spec = simple_spectrum(2)
        part = Partition.two_part(spec, 1)
        assert len(part.groups) == 2
        assert sorted(part.group_indices(0)) == [1]
        assert sorted(part.group_indices(1)) == [-2, -1, 0, 2]

    def test_coarse(self):
        spec = simple_spectrum(3)
        part = Partition.coarse(spec, 1)
        assert sorted(part.group_indices(0)) == [-1, 0, 1]
        for n in (2, 3):
            assert sorted(part.group_indices(n)) == [n]
            assert sorted(part.group_indices(-n)) == [-n]

    def test_refines(self):
        spec = simple_spectrum(3)
        fine = Partition.trivial(spec)
        coarse = Partition.coarse(spec, 2)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_same_group_mask(self):
        spec = simple_spectrum(2)
        part = Partition.coarse(spec, 1)
        mask = part.same_group_mask()
        assert mask.shape == (5, 5)
        # center 3x3 block plus the two singletons
        assert mask[1:4, 1:4].all()
        assert not mask[0, 1]


class TestNorms:
    def test_norm_chain_fixed(self):
        rng = np.random.default_rng(5)
        spec = simple_spectrum(4)
        part = Partition.coarse(spec, 2)
        x = random_block(rng, part)
        r = x.norms()
        assert r.op <= r.hs_sigma * (1 + 1e-9)
        assert r.hs_sigma <= r.hs * (1 + 1e-9)
        r.check()

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 4))
    def test_norm_chain_property(self, seed, m):
        rng = np.random.default_rng(seed)
        spec = simple_spectrum(4)
        x = random_block(rng, Partition.coarse(spec, m))
        r = x.norms()
        assert r.op <= r.hs_sigma + 1e-9 * (1 + r.hs)
        assert r.hs_sigma <= r.hs + 1e-9 * (1 + r.hs)

    def test_block_diagonal_spectral_equals_op(self):
        # for one dense block the blockwise and operator norms coincide
        rng = np.random.default_rng(6)
        spec = simple_spectrum(2)
        groups = [list(range(-2, 3))]
        part = Partition(spec, groups, [0], kind="single")
        x = random_block(rng, part)
        assert x.op() == pytest.approx(x.hs_sigma(), rel=1e-9)

    def test_operator_norm_estimate_known(self):
        a = np.diag([3.0, -1.0, 0.5]).astype(complex)
        assert operator_norm_estimate(a) == pytest.approx(3.0, rel=1e-10)


def reference_block_spectral_sq(x):
    """Per-block squared spectral norms, one dense 2-norm per present block."""
    part = x.partition
    out = np.zeros((part.n_groups, part.n_groups))
    for gi, gj in zip(*np.nonzero(x.mask)):
        blk = x.data[np.ix_(part.positions[gi], part.positions[gj])]
        out[gi, gj] = np.linalg.norm(blk, 2) ** 2
    return out


@st.composite
def partitions(draw):
    """Trivial, uniform width 2, coarse, or mixed widths {1, 2, 3} in a
    shuffled group order (so blocks pair different widths, e.g. 2 x 3)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["trivial", "width2", "coarse", "mixed"]))
    if kind == "trivial":
        return Partition.trivial(simple_spectrum(n))
    if kind == "width2":
        return Partition.trivial(simple_spectrum(n, mults=[2] * (2 * n + 1)))
    if kind == "coarse":
        return Partition.coarse(simple_spectrum(n), draw(st.integers(0, n)))
    mults = draw(st.lists(st.integers(1, 3), min_size=2 * n + 1, max_size=2 * n + 1))
    spec = simple_spectrum(n, mults=mults)
    order = draw(st.permutations(list(spec.indices)))
    return Partition(spec, [(int(i),) for i in order], order)


class TestBlockSpectralSq:
    @settings(deadline=None, max_examples=60)
    @given(part=partitions(), seed=st.integers(0, 10_000), sparse=st.booleans())
    def test_matches_per_block_reference(self, part, seed, sparse):
        rng = np.random.default_rng(seed)
        d, g = part.spectrum.dim, part.n_groups
        data = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mask = rng.random((g, g)) < 0.5 if sparse else np.ones((g, g), dtype=bool)
        x = BlockMatrix(part, data, mask)
        got = x.block_spectral_sq()
        np.testing.assert_allclose(got, reference_block_spectral_sq(x), rtol=1e-12, atol=0.0)
        assert np.all(got[~mask] == 0.0)

    def test_zero_matrix(self):
        part = Partition.coarse(simple_spectrum(3), 1)
        assert not BlockMatrix.zeros(part).block_spectral_sq().any()


class TestBlockMatrix:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(7)
        spec = simple_spectrum(3)
        part = Partition.coarse(spec, 1)
        x = random_block(rng, part)
        y = BlockMatrix.from_dense(part, x.dense())
        assert np.array_equal(x.dense(), y.dense())

    def test_block_access(self):
        spec = simple_spectrum(2)
        part = Partition.coarse(spec, 1)
        d = np.zeros((5, 5), dtype=complex)
        d[0, 1] = 2.0  # row -2, column inside the center group
        x = BlockMatrix.from_dense(part, d)
        blk = x.block(-2, 0)
        assert blk.shape == (1, 3)
        assert blk[0, 0] == 2.0
        assert x.block(2, 0) is None

    def test_matmul_against_dense(self):
        rng = np.random.default_rng(8)
        spec = simple_spectrum(3)
        part = Partition.coarse(spec, 1)
        x, y = random_block(rng, part), random_block(rng, part)
        assert np.allclose((x @ y).dense(), x.dense() @ y.dense())

    def test_adjoint(self):
        rng = np.random.default_rng(9)
        spec = simple_spectrum(2)
        x = random_block(rng, Partition.trivial(spec))
        assert np.array_equal(x.adjoint().dense(), x.dense().conj().T)

    def test_partition_mismatch(self):
        spec = simple_spectrum(2)
        a = BlockMatrix.zeros(Partition.trivial(spec))
        b = BlockMatrix.zeros(Partition.coarse(spec, 1))
        with pytest.raises(PartitionMismatchError):
            _ = a + b

    def test_coarsen_refine_cycle(self):
        rng = np.random.default_rng(10)
        spec = simple_spectrum(3)
        fine = Partition.trivial(spec)
        coarse = Partition.coarse(spec, 2)
        x = random_block(rng, fine)
        y = x.coarsen(coarse)
        assert np.array_equal(x.dense(), y.dense())
        z = y.refine(fine)
        assert np.array_equal(x.dense(), z.dense())

    def test_refine_rejects_non_refinement(self):
        spec = simple_spectrum(3)
        x = BlockMatrix.zeros(Partition.coarse(spec, 1))
        with pytest.raises(PartitionMismatchError):
            x.refine(Partition.two_part(spec, 0))

    def test_mask_blocks_absent_products(self):
        spec = simple_spectrum(1)
        part = Partition.trivial(spec)
        x = BlockMatrix.zeros(part)
        assert list(x.present_blocks()) == []


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        spec = simple_spectrum(2)
        part = Partition.coarse(spec, 1)
        x = random_block(rng, part)
        p = tmp_path / "m.csv"
        x.to_csv(p)
        y = BlockMatrix.from_csv(part, p)
        assert np.allclose(x.dense(), y.dense())

    def test_rejects_short_row(self, tmp_path):
        spec = simple_spectrum(1)
        p = tmp_path / "bad.csv"
        p.write_text("0,0,0,0,1.0\n")
        with pytest.raises(ParseError) as err:
            BlockMatrix.from_csv(Partition.trivial(spec), p)
        assert err.value.line is not None

    def test_rejects_duplicate(self, tmp_path):
        spec = simple_spectrum(1)
        p = tmp_path / "dup.csv"
        p.write_text("0,0,0,0,1.0,0.0\n0,0,0,0,2.0,0.0\n")
        with pytest.raises(ParseError):
            BlockMatrix.from_csv(Partition.trivial(spec), p)


class TestInverse:
    def test_inverse_identity_plus(self):
        rng = np.random.default_rng(12)
        spec = simple_spectrum(3)
        part = Partition.trivial(spec)
        x = random_block(rng, part) * 0.05
        from simspec.opmatrix import inv_identity_plus

        inv = inv_identity_plus(x)
        eye = np.eye(spec.dim)
        assert np.allclose((eye + x.dense()) @ inv.dense(), eye, atol=1e-12)

    def test_singular_rejected(self):
        from simspec.opmatrix import inv_identity_plus

        spec = simple_spectrum(1)
        part = Partition.trivial(spec)
        x = BlockMatrix.zeros(part)
        x.data[:] = -np.eye(spec.dim)  # I + X = 0
        with pytest.raises(NotInvertibleError):
            inv_identity_plus(x)
