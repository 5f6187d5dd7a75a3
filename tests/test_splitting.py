import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.errors import ConditionViolationError, InvalidInputError, NonConvergenceError
from simspec.models import kernel_model, kernel_split_constants
from simspec.opmatrix import BlockMatrix, LowRank, Partition, Spectrum
from simspec.splitting import (
    _SCAN_ROWS,
    certificate_from_constants,
    operator_norm_condition,
    split_certificate,
    split_eigenpair,
    split_system,
)
from simspec.verify import oracle_eigenvalues


def spectrum(n):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx)


class TestSplitSystem:
    def test_pieces_line_up(self):
        mdl = kernel_model(4)
        op = split_system(mdl.spectrum, mdl.perturbation, 0)
        assert op.b1 == 1.0
        assert op.b21.shape == (8,)
        # removing row and column 0 of the cross perturbation leaves nothing
        assert not op.live.any()
        assert op.b22.shape == (0, 0)
        assert op.s_max == pytest.approx(1 / (2 * np.pi))

    def test_multiplicity_rejected(self):
        idx = np.arange(-1, 2)
        spec = Spectrum(idx, 2j * np.pi * idx, mults=[1, 2, 1])
        b = BlockMatrix.zeros(Partition.trivial(spec))
        with pytest.raises(InvalidInputError):
            split_system(spec, b, 0)


class TestCertificate:
    def test_quadratic_radius_reduces_to_linear(self):
        # with no quadratic coupling the ball radius is the Neumann value
        sb = certificate_from_constants(s=0.1, m=0.5, b21_norm=1.0, b12s_norm=0.0)
        assert sb.radius == pytest.approx(2.0)
        assert sb.bound_e == pytest.approx(0.1 * 2.0)

    def test_boundary_flagged(self):
        # m + 2 sqrt(n) = 1 exactly
        sb = certificate_from_constants(s=1.0, m=0.5, b21_norm=0.0625, b12s_norm=1.0)
        assert sb.certificate["boundary"]
        assert sb.certificate["satisfied"]

    def test_failure_keeps_infinite_radius(self):
        sb = certificate_from_constants(s=1.0, m=0.9, b21_norm=1.0, b12s_norm=1.0)
        assert not sb.certificate["satisfied"]
        assert sb.radius == math.inf

    def test_taylor_form_tracks_exact_form(self):
        # the two-term expansion of the resolvent radius agrees with the
        # closed form up to the neglected O(n^2) tail
        for k in (0, 1, 2, 5):
            sb = certificate_from_constants(**kernel_split_constants(k))
            assert sb.bound_e_taylor > 0 and sb.bound_b2_taylor > 0
            assert abs(sb.bound_e - sb.bound_e_taylor) <= 1e-4 * sb.bound_e
            assert abs(sb.bound_b2 - sb.bound_b2_taylor) <= 1e-4 * sb.bound_b2


class TestSplitEigenpair:
    def test_matches_reference_spectrum(self):
        mdl = kernel_model(32)
        dense = np.diag(mdl.spectrum.position_values) - mdl.perturbation.dense()
        vals = oracle_eigenvalues(dense)
        for k in (0, 1, 3):
            res = split_eigenpair(mdl.spectrum, mdl.perturbation, k)
            dev = float(np.abs(vals - res.lam_prime).min())
            assert dev <= 1e-10
            assert abs(res.b2) <= res.bounds.bound_b2 * (1 + 1e-9)
            assert res.correction_norm <= res.bounds.bound_e * (1 + 1e-9)

    def test_residual_is_tiny(self):
        mdl = kernel_model(16)
        res = split_eigenpair(mdl.spectrum, mdl.perturbation, 2)
        assert res.residual <= 1e-12 * res.residual_scale

    def test_eigenvector_component_normalized(self):
        mdl = kernel_model(16)
        res = split_eigenpair(mdl.spectrum, mdl.perturbation, 1)
        pos = mdl.spectrum.positions_of(1)[0]
        assert res.eigvec[pos] == 1.0

    def test_zero_coupling_to_rest(self):
        # B21 = 0 leaves e_k already invariant up to the diagonal entry
        spec = spectrum(3)
        pos = spec.positions_of(0)[0]
        dense = np.zeros((spec.dim, spec.dim), dtype=complex)
        dense[pos, pos] = 0.3
        dense[pos, spec.positions_of(2)[0]] = 0.5  # row coupling only
        b = BlockMatrix(Partition.trivial(spec), dense)
        res = split_eigenpair(spec, b, 0)
        assert res.iterations == 1
        assert res.b2 == 0.0
        assert res.lam_prime == pytest.approx(-0.3)
        assert np.all(res.eigvec[np.arange(spec.dim) != pos] == 0.0)

    def test_no_row_coupling_gives_zero_b2(self):
        spec = spectrum(3)
        pos = spec.positions_of(0)[0]
        dense = np.zeros((spec.dim, spec.dim), dtype=complex)
        dense[spec.positions_of(2)[0], pos] = 0.5  # column coupling only
        b = BlockMatrix(Partition.trivial(spec), dense)
        res = split_eigenpair(spec, b, 0)
        assert res.b2 == 0.0
        assert res.correction_norm > 0.0

    def test_certificate_enforced(self):
        spec = spectrum(2)
        part = Partition.trivial(spec)
        rng = np.random.default_rng(0)
        b = BlockMatrix(part, 40.0 * (rng.normal(size=(5, 5)) + 0j))
        with pytest.raises(ConditionViolationError) as err:
            split_eigenpair(spec, b, 0)
        assert err.value.lhs is not None and err.value.rhs is not None

    def test_window_certificate_honest_norms(self):
        mdl = kernel_model(64)
        wb = split_certificate(split_system(mdl.spectrum, mdl.perturbation, 0))
        # the complement column converges to 1/sqrt(12) from below; at
        # half-width 64 the missing tail is about 1/(4 pi^2) * 2/64
        limit = 1 / (2 * np.sqrt(3.0))
        assert wb.b21_norm < limit
        assert wb.b21_norm == pytest.approx(limit, abs=2e-3)
        assert wb.m == pytest.approx(1 / (2 * np.pi), rel=1e-12)


# -0.0 is zero; subnormals and NaN are not
_SCAN_VALUES = np.array([0.0, -0.0, 5e-324, np.nan, 1.0])


@st.composite
def scan_problems(draw):
    """(spectrum, dense B, k) over 1 to 3 scan blocks with signed zeros,
    subnormal and NaN entries, some coordinates free and ``pos`` often on
    a block boundary."""
    dim = draw(st.integers(2, 3 * _SCAN_ROWS))
    idx = np.arange(dim) - dim // 2
    spec = Spectrum(idx, 2j * np.pi * idx)
    boundaries = [p for p in (0, _SCAN_ROWS - 1, _SCAN_ROWS, 2 * _SCAN_ROWS) if p < dim]
    pos = draw(st.sampled_from(boundaries) | st.integers(0, dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    p = np.array([40.0, 40.0, 1.0, 1.0, 2.0]) / 84.0
    dense = (rng.choice(_SCAN_VALUES, size=(dim, dim), p=p)
             + 1j * rng.choice(_SCAN_VALUES, size=(dim, dim), p=p))
    free = rng.random(dim) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    signed_zeros = np.where(rng.random((dim, dim)) < 0.5, -0.0, 0.0)
    signed_zeros = signed_zeros + 1j * signed_zeros[::-1]
    dense[free, :] = signed_zeros[free, :]
    dense[:, free] = signed_zeros[:, free]
    return spec, dense, int(idx[pos])


class TestLiveScan:
    @settings(deadline=None, max_examples=150)
    @given(problem=scan_problems())
    def test_matches_complex_reference(self, problem):
        spec, dense, k = problem
        pos = spec.positions_of(k)[0]
        nonzero = dense != 0.0
        nonzero[pos, :] = False
        nonzero[:, pos] = False
        ref = nonzero.any(axis=0) | nonzero.any(axis=1)
        op = split_system(spec, BlockMatrix(Partition.trivial(spec), dense), k)
        assert np.array_equal(op.live, ref[op.rest])
        core = op.rest[op.live]
        assert np.array_equal(op.b22, dense[np.ix_(core, core)], equal_nan=True)


def full_svd_m(op, dense):
    """Reference m: the top singular value of all of (b1 - B22) S, with
    B22 read from the dense matrix."""
    b22 = dense[np.ix_(op.rest, op.rest)]
    core = op.b1 * np.diag(op.s_diag) - b22 * op.s_diag[None, :]
    return float(np.linalg.svd(core, compute_uv=False)[0])


@st.composite
def split_problems(draw, scale=1.0):
    """(spectrum, B, k) with B22 random, partly zero or zero."""
    # dim 2 leaves a complement of one coordinate
    dim = draw(st.integers(2, 12))
    idx = np.arange(dim) - dim // 2
    spec = Spectrum(idx, 2j * np.pi * idx)
    k = int(draw(st.sampled_from(list(idx))))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pos = spec.positions_of(k)[0]
    rest = np.arange(dim) != pos
    pattern = draw(st.sampled_from(["random", "all_live", "zero"]))
    if pattern == "random":
        rows = rest & (rng.random(dim) < 0.5)
        cols = rest & (rng.random(dim) < 0.5)
        dense[np.ix_(rows, rest)] = 0.0
        dense[np.ix_(rest, cols)] = 0.0
    elif pattern == "zero":
        dense[np.ix_(rest, rest)] = 0.0
    if draw(st.booleans()):
        dense[pos, pos] = 0.0
    return spec, BlockMatrix(Partition.trivial(spec), scale * dense), k


def split_operators():
    """(split system, dense B) over the B22 patterns of split_problems."""
    return split_problems().map(lambda p: (split_system(*p), p[1].data))


def dense_split_reference(spec, dense, k, tol=1e-13, max_iter=200):
    """lambda', eigenvector and residual of the splitting iteration run
    with all of B22, the residual taken from the dense A - B."""
    lam = spec.position_values
    pos = spec.positions_of(k)[0]
    rest = np.delete(np.arange(spec.dim), pos)
    s = 1.0 / (lam[pos] - lam[rest])
    b1, b21, b12 = dense[pos, pos], dense[rest, pos], dense[pos, rest]
    b22 = dense[np.ix_(rest, rest)]
    floor = max(float(np.linalg.norm(b21)), 1e-300)
    z = np.zeros(rest.size, dtype=complex)
    for _ in range(max_iter):
        sz = s * z
        z_next = b1 * sz - b22 @ sz - (b12 @ sz) * sz + b21
        step = float(np.linalg.norm(z_next - z))
        z = z_next
        if step <= tol * floor:
            break
    sz = s * z
    lam_prime = lam[pos] - b1 + b12 @ sz
    vec = np.zeros(spec.dim, dtype=complex)
    vec[pos] = 1.0
    vec[rest] = -sz
    residual = float(np.linalg.norm((np.diag(lam) - dense) @ vec - lam_prime * vec))
    return lam_prime, vec, residual


class TestCertificateM:
    @settings(deadline=None, max_examples=150)
    @given(case=split_operators())
    def test_matches_full_svd(self, case):
        op, dense = case
        ref = full_svd_m(op, dense)
        assert abs(split_certificate(op).m - ref) <= 1e-13 * ref

    def test_bitwise_when_no_coordinate_is_free(self):
        rng = np.random.default_rng(3)
        spec = spectrum(6)
        dense = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        op = split_system(spec, BlockMatrix(Partition.trivial(spec), dense), 2)
        assert split_certificate(op).m == full_svd_m(op, dense)

    def test_kernel_cross_needs_no_svd(self):
        # the cross leaves B22 = 0, so every complement coordinate is free
        mdl = kernel_model(512)
        op = split_system(mdl.spectrum, mdl.perturbation, 0)
        assert split_certificate(op).m == abs(op.b1) * np.abs(op.s_diag).max()


class TestEigenpairAgainstDense:
    @settings(deadline=None, max_examples=100)
    @given(problem=split_problems(scale=0.05))
    def test_matches_full_b22_iteration(self, problem):
        spec, b, k = problem
        res = split_eigenpair(spec, b, k)
        lam_prime, vec, residual = dense_split_reference(spec, b.data, k)
        bound = 1e-13 * res.residual_scale
        assert abs(res.lam_prime - lam_prime) <= bound
        assert float(np.abs(res.eigvec - vec).max()) <= bound
        assert abs(res.residual - residual) <= bound

    def test_kernel_split_makes_no_dense_copy(self):
        # a d x d complex copy is d^2 16 bytes; the live-mask pass takes d^2
        mdl = kernel_model(512)
        d = mdl.spectrum.dim
        b = mdl.perturbation  # the dense B, built outside the trace
        tracemalloc.start()
        try:
            split_eigenpair(mdl.spectrum, b, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 16 / 8


# where a generator column is nonzero: everywhere, on a random set, only
# at the split position (as the kernel cross's e_0), or off it
_SUPPORTS = ["full", "random", "at_pos", "off_pos"]


@st.composite
def generator_problems(draw):
    """(spectrum, generators, k): B = P Q^H of rank 1 to 4 whose columns
    vanish on drawn sets, so that some terms are zero off k on one side,
    over spectra whose gaps grow with |n|; ||B||_F is drawn up to
    where the certificate fails."""
    dim = draw(st.integers(2, 24))
    rank = draw(st.integers(1, 4))
    idx = np.arange(dim) - dim // 2
    growth = draw(st.sampled_from([0.0, 0.25, 1.0]))
    spec = Spectrum(idx, 2j * np.pi * idx * (1.0 + growth * np.abs(idx)))
    k = int(draw(st.sampled_from(list(idx))))
    pos = spec.positions_of(k)[0]
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    factors = []
    for _ in range(2):
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        for i in range(rank):
            support = draw(st.sampled_from(_SUPPORTS))
            keep = {"full": np.ones(dim, dtype=bool),
                    "random": rng.random(dim) < 0.5,
                    "at_pos": np.arange(dim) == pos,
                    "off_pos": np.arange(dim) != pos}[support]
            g[~keep, i] = 0.0
        factors.append(g / max(float(np.linalg.norm(g)), 1e-300))
    size = draw(st.sampled_from([0.05, 0.5, 3.0, 12.0]))
    return spec, LowRank(size * factors[0], factors[1]), k


class TestGeneratorsAgainstDense:
    @settings(deadline=None, max_examples=150)
    @given(problem=generator_problems())
    def test_split_matches_the_dense_product(self, problem):
        spec, gen, k = problem
        dense = BlockMatrix(Partition.trivial(spec), gen.p @ gen.q.conj().T)
        op_g, op_d = split_system(spec, gen, k), split_system(spec, dense, k)
        # the generator live set holds every coordinate the entries make live
        assert np.all(op_g.live[op_d.live])
        cert_g, cert_d = split_certificate(op_g), split_certificate(op_d)
        assert abs(cert_g.m - cert_d.m) <= 1e-13 * cert_d.m
        lhs_g, lhs_d = cert_g.certificate["lhs"], cert_d.certificate["lhs"]
        assert abs(lhs_g - lhs_d) <= 1e-13 * lhs_d
        # the Gram sum and the entry sum each err by a few ulps of
        # sum |P^H P| |Q^H Q| <= (||P||_F ||Q||_F)^2
        scale = (np.linalg.norm(gen.p) * np.linalg.norm(gen.q)) ** 2
        assert abs(gen.hs() ** 2 - dense.hs() ** 2) <= 1e-13 * scale
        if not cert_d.certificate["satisfied"]:
            with pytest.raises(ConditionViolationError):
                split_eigenpair(spec, gen, k)
            return
        try:
            res_d = split_eigenpair(spec, dense, k)
        except NonConvergenceError:
            # a certificate near its boundary can contract too slowly
            with pytest.raises(NonConvergenceError):
                split_eigenpair(spec, gen, k)
            return
        res_g = split_eigenpair(spec, gen, k)
        bound = 1e-13 * res_d.residual_scale
        assert abs(res_g.lam_prime - res_d.lam_prime) <= bound
        assert float(np.abs(res_g.eigvec - res_d.eigvec).max()) <= bound
        assert abs(res_g.residual - res_d.residual) <= bound

    def test_kernel_cross_has_no_live_coordinate(self):
        mdl = kernel_model(64)
        op = split_system(mdl.spectrum, mdl.generators, 0)
        assert not op.live.any() and op.b22.shape == (0, 0)
        dense = split_system(mdl.spectrum, mdl.perturbation, 0)
        assert op.b1 == dense.b1
        assert np.array_equal(op.b21, dense.b21) and np.array_equal(op.b12, dense.b12)

    def test_kernel_off_zero_is_all_live(self):
        mdl = kernel_model(16)
        op = split_system(mdl.spectrum, mdl.generators, 3)
        assert op.live.all()
        dense = split_system(mdl.spectrum, mdl.perturbation, 3)
        assert split_certificate(op).m == pytest.approx(split_certificate(dense).m, rel=1e-14)


def test_operator_norm_condition_bounds_the_operator_norm():
    mdl = kernel_model(64)
    out = operator_norm_condition(mdl.perturbation.hs(), 1 / (2 * np.pi))
    assert out["lhs"] >= np.linalg.norm(mdl.perturbation.data, 2)


def test_operator_norm_condition_report():
    mdl = kernel_model(12)
    out = operator_norm_condition(mdl.perturbation.hs(), 1 / (2 * np.pi))
    assert set(out) == {"lhs", "rhs", "satisfied"}
    assert out["rhs"] == pytest.approx(np.pi * np.sqrt(2.0) / 4, rel=1e-12)
