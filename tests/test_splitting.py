import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec.errors import ConditionViolationError, InvalidInputError
from simspec.models import kernel_model, kernel_split_constants
from simspec.opmatrix import BlockMatrix, Partition, Spectrum
from simspec.splitting import (
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
        assert np.all(op.b22 == 0.0)
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
        part = Partition.trivial(spec)
        b = BlockMatrix.zeros(part)
        pos = spec.positions_of(0)[0]
        b.data[pos, pos] = 0.3
        b.data[pos, spec.positions_of(2)[0]] = 0.5  # row coupling only
        res = split_eigenpair(spec, b, 0)
        assert res.iterations == 1
        assert res.b2 == 0.0
        assert res.lam_prime == pytest.approx(-0.3)
        assert np.all(res.eigvec[np.arange(spec.dim) != pos] == 0.0)

    def test_no_row_coupling_gives_zero_b2(self):
        spec = spectrum(3)
        part = Partition.trivial(spec)
        b = BlockMatrix.zeros(part)
        pos = spec.positions_of(0)[0]
        b.data[spec.positions_of(2)[0], pos] = 0.5  # column coupling only
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


def full_svd_m(op):
    """Reference m: the top singular value of all of (b1 - B22) S."""
    core = op.b1 * np.diag(op.s_diag) - op.b22 * op.s_diag[None, :]
    return float(np.linalg.svd(core, compute_uv=False)[0])


@st.composite
def split_operators(draw):
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
    b = BlockMatrix(Partition.trivial(spec), dense)
    return split_system(spec, b, k)


class TestCertificateM:
    @settings(deadline=None, max_examples=150)
    @given(op=split_operators())
    def test_matches_full_svd(self, op):
        ref = full_svd_m(op)
        assert abs(split_certificate(op).m - ref) <= 1e-13 * ref

    def test_bitwise_when_no_coordinate_is_free(self):
        rng = np.random.default_rng(3)
        spec = spectrum(6)
        dense = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        op = split_system(spec, BlockMatrix(Partition.trivial(spec), dense), 2)
        assert split_certificate(op).m == full_svd_m(op)

    def test_kernel_cross_needs_no_svd(self):
        # the cross leaves B22 = 0, so every complement coordinate is free
        mdl = kernel_model(512)
        op = split_system(mdl.spectrum, mdl.perturbation, 0)
        assert split_certificate(op).m == abs(op.b1) * np.abs(op.s_diag).max()


def test_operator_norm_condition_bounds_the_operator_norm():
    mdl = kernel_model(64)
    out = operator_norm_condition(mdl.perturbation, 1 / (2 * np.pi))
    assert out["lhs"] >= np.linalg.norm(mdl.perturbation.data, 2)


def test_operator_norm_condition_report():
    mdl = kernel_model(12)
    out = operator_norm_condition(mdl.perturbation, 1 / (2 * np.pi))
    assert set(out) == {"lhs", "rhs", "satisfied"}
    assert out["rhs"] == pytest.approx(np.pi * np.sqrt(2.0) / 4, rel=1e-12)
