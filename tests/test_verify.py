import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec import cli
from simspec.errors import InvalidInputError, NotInvertibleError, OracleFailureError
from simspec.models import kernel_model
from simspec.opmatrix import BlockMatrix, Partition, Spectrum
from simspec.similarity import pipeline_contraction
from simspec.verify import (
    SpectrumReport,
    _group_projection_diag,
    build_spectrum_report,
    charpoly_eigenvalues,
    match_spectra,
    oracle_eigenvalues,
    projection_compare,
    values_by_position,
)
from simspec.weighted import WeightSequence, decay_weights, factorize


def tail_factor_inequality(u, partition, sigma_group, alpha_sigma, weighted_norm):
    """max(||U P||, ||P U||) <= alpha_sigma * ||U||_w in the block norm,
    with P the projection onto the spectrum indices in ``sigma_group``."""
    p = _group_projection_diag(partition.spectrum, sigma_group)
    up = BlockMatrix(partition, u.data * p[None, :]).hs_sigma()
    pu = BlockMatrix(partition, p[:, None] * u.data).hs_sigma()
    lhs = max(up, pu)
    rhs = alpha_sigma * weighted_norm
    return {"lhs": float(lhs), "rhs": float(rhs), "ok": bool(lhs <= rhs + 1e-12)}


class TestOracle:
    def test_diagonal_matrix(self):
        d = np.diag([1.0, -2.0, 3.5]).astype(complex)
        vals = oracle_eigenvalues(d)
        assert np.allclose(np.sort(vals.real), [-2.0, 1.0, 3.5])

    def test_known_rotation_eigenvalues(self):
        # 2x2 rotation has conjugate unit eigenvalues
        t = 0.7
        a = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
        vals = oracle_eigenvalues(a)
        expect = np.array([np.exp(-1j * t), np.exp(1j * t)])
        assert match_spectra(expect, vals).max_abs_deviation < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(0)
        d = np.diag(rng.normal(size=12) + 1j * rng.normal(size=12))
        s = np.eye(12) + 0.2 * rng.normal(size=(12, 12))
        a = s @ d @ np.linalg.inv(s)
        m = match_spectra(np.diag(d), oracle_eigenvalues(a))
        assert m.max_abs_deviation < 1e-10

    def test_defective_block(self):
        # a Jordan block perturbs hard; eigenvalues still come out in a
        # cluster around the true value
        n = 4
        a = np.eye(n, k=1).astype(complex) + 0.5 * np.eye(n)
        vals = oracle_eigenvalues(a, cross_check=False)
        assert np.abs(vals - 0.5).max() < 1e-3

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
    def test_dual_oracles_agree(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v1 = oracle_eigenvalues(a, cross_check=False)
        v2 = charpoly_eigenvalues(a)
        scale = max(1.0, np.abs(v1).max())
        assert match_spectra(v1, v2).max_abs_deviation <= 1e-10 * scale

    def test_roots_at_the_rounding_floor_are_accepted(self):
        # hill spectrum at theta = 0.01, N = 2: Horner's rounding keeps the
        # Newton steps near 4e-12 while the step test asks for 1.6e-12
        lam = (np.pi * (2.0 * np.arange(-2, 3) - 0.01)) ** 2
        a = np.diag(lam).astype(complex)
        assert match_spectra(oracle_eigenvalues(a, cross_check=False),
                             charpoly_eigenvalues(a)).max_abs_deviation <= 1e-10 * lam.max()

    def test_cross_check_accepts_clustered_and_defective_spectra(self):
        # hill at theta = 6e-8 pairs eigenvalues 5e-6 apart; their roots are
        # ill conditioned in the characteristic polynomial, its coefficients not
        lam = (np.pi * (2.0 * np.arange(-3, 4) - 6e-8)) ** 2
        assert np.array_equal(oracle_eigenvalues(np.diag(lam).astype(complex)), np.sort(lam))
        oracle_eigenvalues(np.eye(4, k=1).astype(complex) + 0.5 * np.eye(4))

    def test_cross_check_catches_a_wrong_eigenvalue(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals(m) + np.r_[1e-8, np.zeros(5)])
        with pytest.raises(OracleFailureError):
            oracle_eigenvalues(a)

    def test_trace_and_determinant_consistency(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        vals = oracle_eigenvalues(a)
        assert vals.sum() == pytest.approx(np.trace(a), abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            oracle_eigenvalues(np.zeros((2, 3)))


def match_spectra_by_loop(reference, computed):
    """Greedy nearest-first pairing walked over all sorted distances."""
    ref = np.asarray(reference, dtype=complex)
    com = np.asarray(computed, dtype=complex)
    n = ref.size
    dist = np.abs(ref[:, None] - com[None, :])
    used_ref = np.zeros(n, dtype=bool)
    used_com = np.zeros(n, dtype=bool)
    pairs = []
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), n)
        if not (used_ref[i] or used_com[j]):
            used_ref[i] = used_com[j] = True
            pairs.append((i, j))
    return sorted(pairs)


class TestMatchSpectra:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(0, 12), tied=st.booleans())
    def test_pairs_equal_the_loop(self, data, n, tied):
        if tied:
            # points of a small integer grid: many distances tie
            values = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda t: complex(*t))
        else:
            values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
        ref = data.draw(st.lists(values, min_size=n, max_size=n))
        com = data.draw(st.lists(values, min_size=n, max_size=n))
        m = match_spectra(ref, com)
        assert m.pairs == match_spectra_by_loop(ref, com)
        dist = np.abs(np.subtract.outer(np.asarray(ref, complex), np.asarray(com, complex)))
        assert m.max_abs_deviation == max((dist[i, j] for i, j in m.pairs), default=0.0)

    def test_exact_match(self):
        ref = np.array([1.0, 2.0, 3.0], dtype=complex)
        m = match_spectra(ref, ref[::-1])
        assert m.max_abs_deviation == 0.0
        assert m.pairs == [(0, 2), (1, 1), (2, 0)]

    def test_ties_break_to_lower_index(self):
        ref = np.array([0.0, 2.0], dtype=complex)
        com = np.array([1.0, 1.0], dtype=complex)
        m = match_spectra(ref, com)
        # all four distances are 1; reference 0 pairs with computed 0
        assert m.pairs == [(0, 0), (1, 1)]

    def test_cardinality_mismatch(self):
        with pytest.raises(InvalidInputError):
            match_spectra(np.array([1.0]), np.array([1.0, 2.0]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_recovers_zero_deviation(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=7) + 1j * rng.normal(size=7)
        perm = rng.permutation(7)
        m = match_spectra(vals, vals[perm])
        assert m.max_abs_deviation == 0.0

    def test_deviations_follow_reference_order(self):
        ref = np.array([0.0, 1.0], dtype=complex)
        com = np.array([1.0, 0.1], dtype=complex)
        m = match_spectra(ref, com)
        assert m.pairs == [(0, 1), (1, 0)]
        assert m.max_abs_deviation == pytest.approx(0.1)


class TestTailChecks:
    def test_tail_stats_sum_the_weighted_squares(self):
        # rows n = -1, 0, 1 with lambda_n - oracle_n = 1, 2i, 0.5 (exact in
        # floats) and weights 1 / alpha_|n|^2 = 1, 4, 1
        spec = Spectrum(np.arange(-1, 2), 2j * np.pi * np.arange(-1, 2))
        oracle = spec.position_values - np.array([1.0, 2.0j, 0.5])
        weights = WeightSequence(spec, np.array([0.5, 1.0]), np.zeros(2), 0.0)
        rep = build_spectrum_report(spec, oracle, oracle, weights=weights,
                                    interior_fraction=1.0)
        assert rep.tail_stats == {"weighted_sum": 1.0 + 16.0 + 0.25,
                                  "plain_sum": 1.0 + 4.0 + 0.25}


@pytest.fixture(scope="module")
def kernel_run():
    mdl = kernel_model(24)
    result = pipeline_contraction(mdl.spectrum, mdl.perturbation)
    w = decay_weights(mdl.perturbation)
    return mdl, result, w


class TestProjectionCompare:
    def test_bound_holds_on_tail_groups(self, kernel_run):
        mdl, result, w = kernel_run
        u = result.u
        part = u.partition
        uw = factorize(u, w)
        for level in (4, 8, 16):
            sigma = [n for n in mdl.spectrum.indices if abs(int(n)) >= level]
            out = projection_compare(u, part, sigma, w.alpha_of(level),
                                     weighted_norm=uw)
            assert out["ok"], out
            assert out["identity_consistency"] <= 1e-10

    def test_tail_factor_inequality(self, kernel_run):
        mdl, result, w = kernel_run
        u = result.u
        uw = factorize(u, w)
        for level in (4, 12):
            sigma = [n for n in mdl.spectrum.indices if abs(int(n)) >= level]
            out = tail_factor_inequality(u, u.partition, sigma,
                                         w.alpha_of(level), uw)
            assert out["ok"], out

    def test_unknown_index_rejected(self, kernel_run):
        mdl, result, w = kernel_run
        with pytest.raises(InvalidInputError):
            projection_compare(result.u, result.u.partition, [999], 1.0)

    @pytest.mark.parametrize("last", [0.0, 2e-12])
    def test_refuses_where_the_frobenius_condition_number_exceeds_the_limit(self, last):
        # I + U = diag(1, ..., 1, last): singular, or kappa_2 = 5e11 below the
        # 1e12 limit while kappa_F = sqrt(6) * 5e11 lies above it
        spec = Spectrum(np.arange(-3, 4), 2j * np.pi * np.arange(-3, 4))
        part = Partition.trivial(spec)
        u = np.zeros((7, 7), dtype=complex)
        u[6, 6] = last - 1.0
        with pytest.raises(NotInvertibleError):
            projection_compare(BlockMatrix(part, u), part, [0], 1.0)


class TestSpectrumReport:
    def test_report_rows_and_csv(self, tmp_path):
        mdl = kernel_model(12)
        result = pipeline_contraction(mdl.spectrum, mdl.perturbation)
        dense = np.diag(mdl.spectrum.position_values) - mdl.perturbation.dense()
        vals = oracle_eigenvalues(dense)
        w = decay_weights(mdl.perturbation)
        est = values_by_position(mdl.spectrum, [z for _, z in result.eigenvalue_estimates])
        rep = build_spectrum_report(
            mdl.spectrum, est, values_by_position(mdl.spectrum, vals),
            first_order=mdl.first_order, second_order=mdl.second_order,
            weights=w,
        )
        interior = list(mdl.spectrum.interior_indices())
        assert len(rep.rows) == len(interior)
        for row in rep.rows:
            assert row["residual"] <= 1e-9
        assert rep.tail_stats["plain_sum"] > 0.0
        assert rep.tail_stats["weighted_sum"] >= rep.tail_stats["plain_sum"]
        cli._write_series(str(tmp_path), mdl, est, w, None, rep)
        out = tmp_path / "spectrum_report.csv"
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(interior) + 1
        assert lines[0].startswith("index,lambda_re")

    def test_wrong_cardinality_rejected(self):
        mdl = kernel_model(4)
        with pytest.raises(InvalidInputError):
            values_by_position(mdl.spectrum, [0.0 + 0j])
