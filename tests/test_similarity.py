import numpy as np
import pytest

from simspec.errors import ContractionViolationError, NonConvergenceError
from simspec.models import dirac_model, hill_model, involution_model, kernel_model
from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    spectral_gap,
)
from simspec.similarity import (
    PIPELINES,
    _block_condition,
    _block_inverse,
    block_eigenvalue_estimates,
    contraction_step,
    fixed_point,
    pipeline_block_norm,
    pipeline_coarse,
    pipeline_contraction,
    pipeline_rebase,
    preliminary_transform,
    similarity_residual,
)
from simspec.transforms import block_diagonal, commutator_inverse
from simspec.verify import match_spectra, oracle_eigenvalues


def spectrum(n):
    idx = np.arange(-n, n + 1)
    return Spectrum(idx, 2j * np.pi * idx)


def small_perturbation(n, scale=0.3, seed=0):
    spec = spectrum(n)
    part = Partition.trivial(spec)
    rng = np.random.default_rng(seed)
    d = spec.dim
    lev = np.abs(np.arange(-n, n + 1)).astype(float)
    damp = 1.0 / (1.0 + lev) ** 1.5
    data = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * scale
    data *= np.minimum(damp[:, None], damp[None, :])
    return spec, BlockMatrix(part, data)


class TestFixedPoint:
    def test_converges_and_certifies(self):
        spec, b = small_perturbation(6)
        gamma = 1.0 / spectral_gap(spec)
        res = fixed_point(b, gamma=gamma, norm_fn=lambda m: m.hs(), norm_name="full")
        assert res.certificate["satisfied"]
        assert res.certificate["contraction_q"] < 1.0
        assert res.identity_residual <= 1e-10 * max(1.0, b.hs())
        # solution stays in the certified ball
        assert (res.x_star - b).hs() <= 3.0 * b.hs() * (1 + 1e-9)

    def test_observed_ratio_below_certificate(self):
        spec, b = small_perturbation(6, seed=1)
        res = fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                          norm_name="full")
        assert res.observed_ratio <= res.certificate["contraction_q"] + 0.05

    def test_zero_perturbation_converges_immediately(self):
        spec = spectrum(4)
        b = BlockMatrix.zeros(Partition.trivial(spec))
        res = fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                          norm_name="full")
        assert res.x_star.hs() == 0.0
        assert res.iterations == 1

    def test_violation_raises_when_enforced(self):
        spec, b = small_perturbation(4, scale=60.0, seed=2)
        with pytest.raises(ContractionViolationError):
            fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                        norm_name="full")

    def test_unenforced_run_diverges_visibly(self):
        # a certified run cut short still refuses to return an answer
        spec, b = small_perturbation(6)
        with pytest.raises(NonConvergenceError):
            fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                        norm_name="full", max_iter=1)


def random_block(rng, part, scale=1.0):
    d = part.spectrum.dim
    return BlockMatrix(part, scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))


@pytest.mark.parametrize("seed", range(4))
def test_contraction_step_matches_three_products(block_partition, seed):
    rng = np.random.default_rng(seed)
    x, b = random_block(rng, block_partition), random_block(rng, block_partition, 0.1)
    gx = commutator_inverse(x)
    bgx = b @ gx
    ref = bgx - gx @ block_diagonal(b) - gx @ block_diagonal(bgx) + b
    got = contraction_step(x, b)
    assert np.linalg.norm(got.data - ref.data) <= 1e-13 * np.linalg.norm(ref.data)


def random_block_basis(rng, part):
    """A basis block diagonal on ``part``, with unit columns on its
    width-1 groups, as the rebase eigenbasis is."""
    w = np.eye(part.spectrum.dim, dtype=complex)
    for _, pos in part.wide_classes():
        k, width = pos.shape
        blocks = rng.normal(size=(k, width, width)) + 1j * rng.normal(size=(k, width, width))
        w[pos[:, :, None], pos[:, None, :]] = blocks
    return w


@pytest.mark.parametrize("seed", range(4))
def test_rebase_basis_condition_and_inverse_match_dense(block_partition, seed):
    w = random_block_basis(np.random.default_rng(seed), block_partition)
    assert _block_condition(w, block_partition) == pytest.approx(np.linalg.cond(w), rel=1e-12)
    inv = _block_inverse(w, block_partition)
    dense = np.linalg.inv(w)
    assert np.linalg.norm(inv - dense) <= 1e-12 * np.linalg.norm(dense)


class TestPreliminary:
    def test_exact_similarity(self):
        spec, b = small_perturbation(6, seed=3)
        g = commutator_inverse(b)
        pre = preliminary_transform(b, g, g.op())
        assert pre.smoother_op_norm < 1.0
        assert pre.residual <= 1e-10 * max(1.0, b.hs())
        # the remainder is quadratically small
        assert pre.remainder.hs() <= pre.smoother_op_norm * b.hs() * (1 + 1e-9) * 2


class TestPipelines:
    @pytest.mark.parametrize("name", ["mt1", "mt2", "mt3", "mt4"])
    def test_residual_and_block_diagonality(self, name):
        spec, b = small_perturbation(6, seed=4)
        result = PIPELINES[name](spec, b)
        assert result.residual <= 1e-9 * result.residual_scale
        assert result.offdiag_residual <= 1e-10 * max(result.v.hs(), 1e-300)

    def test_pipelines_agree_on_eigenvalues(self):
        spec, b = small_perturbation(6, seed=5)
        results = {n: PIPELINES[n](spec, b) for n in ("mt1", "mt2", "mt3", "mt4")}
        base = sorted(
            (complex(z) for _, z in results["mt1"].eigenvalue_estimates),
            key=lambda z: (z.real, z.imag),
        )
        for name in ("mt2", "mt3", "mt4"):
            other = sorted(
                (complex(z) for _, z in results[name].eigenvalue_estimates),
                key=lambda z: (z.real, z.imag),
            )
            dev = max(abs(a - c) for a, c in zip(base, other))
            assert dev <= 1e-9, f"{name} deviates by {dev}"

    def test_estimates_match_oracle(self):
        spec, b = small_perturbation(5, seed=6)
        result = pipeline_contraction(spec, b)
        dense = np.diag(spec.position_values) - b.dense()
        vals = oracle_eigenvalues(dense)
        est = np.array([z for _, z in result.eigenvalue_estimates])
        assert match_spectra(vals, est).max_abs_deviation <= 1e-9

    def test_kernel_runs_through_coarse_pipeline(self):
        mdl = kernel_model(24)
        result = pipeline_coarse(mdl.spectrum, mdl.perturbation)
        assert result.residual <= 1e-9 * result.residual_scale
        assert result.certificates["contraction"]["satisfied"]
        assert [s["name"] for s in result.stages] == [
            "smoothing_scan", "preliminary", "coarsening", "fixed_point"]
        assert set(result.certificates) == {"smoothing", "coarsening", "contraction"}

    def test_rebase_reports_source_labels(self):
        mdl = dirac_model(8, {0: 0.15, 1: 0.08, -1: 0.08}, {1: 0.1, -1: 0.1},
                          {0: 0.1}, {2: 0.05, -2: 0.05})
        res = pipeline_rebase(mdl.spectrum, mdl.perturbation)
        counts = {}
        for n, _ in res.eigenvalue_estimates:
            counts[n] = counts.get(n, 0) + 1
        # every original index names exactly its multiplicity of estimates
        assert counts == {int(n): 2 for n in mdl.spectrum.indices}
        assert [s["name"] for s in res.stages] == [
            "smoothing_scan", "preliminary", "rebase", "coarsening", "fixed_point"]
        assert set(res.certificates) == {"smoothing", "rebase", "coarsening", "contraction"}

    def test_rebase_handles_multiplicities(self):
        # involution spectrum is simple but has a nontrivial stage-one
        # diagonal; the rebase must stay consistent with the original
        mdl = involution_model(10, 0.3, {0: 0.2, 1: 0.1 - 0.05j, -1: 0.1 + 0.05j})
        r4 = pipeline_rebase(mdl.spectrum, mdl.perturbation)
        assert r4.residual <= 1e-9 * r4.residual_scale
        r1 = pipeline_contraction(mdl.spectrum, mdl.perturbation)
        a = sorted((complex(z) for _, z in r1.eigenvalue_estimates),
                   key=lambda z: (z.real, z.imag))
        c = sorted((complex(z) for _, z in r4.eigenvalue_estimates),
                   key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(a, c)) <= 1e-9


@pytest.mark.parametrize("build, pipeline", [
    (lambda: dirac_model(16, {0: 0.15}, {1: 0.1, -1: 0.1}, {0: 0.1}, {2: 0.05, -2: 0.05},
                         gauge=False), pipeline_rebase),
    (lambda: hill_model(32, 0.5, {1: 5, -1: 5}), pipeline_coarse),
], ids=["dirac16-ungauged-mt4", "hill32-mt3"])
def test_smoother_gate_reads_the_exact_operator_norm(build, pipeline):
    mdl = build()
    res = pipeline(mdl.spectrum, mdl.perturbation)
    cert = res.certificates["smoothing"]
    part = Partition.coarse(mdl.spectrum, cert["radius"])
    g = commutator_inverse(BlockMatrix(part, mdl.perturbation.data))
    assert cert["smoother_op_norm"] == np.linalg.norm(g.data, 2)
    assert res.stages[0]["scan"][-1]["smoother_op_norm"] == cert["smoother_op_norm"]


class TestEstimates:
    def test_block_estimates_singletons(self):
        spec, b = small_perturbation(4, seed=7)
        res = pipeline_contraction(spec, b)
        labels = [k for k, _ in res.eigenvalue_estimates]
        assert sorted(labels) == list(range(-4, 5))

    def test_multiplicity_two_block(self):
        idx = np.arange(-1, 2)
        spec = Spectrum(idx, 2j * np.pi * idx, mults=[1, 2, 1])
        pos = spec.positions_of(0)
        dense = np.zeros((spec.dim, spec.dim), dtype=complex)
        dense[np.ix_(pos, pos)] = np.array([[0.1, 0.02], [0.02, 0.1]])
        v = BlockMatrix(Partition.trivial(spec), dense)
        est = block_eigenvalue_estimates(v)
        zero_vals = sorted(z.real for k, z in est if k == 0)
        assert zero_vals == pytest.approx([-0.12, -0.08], rel=1e-9)


def test_similarity_residual_zero_for_exact_pair():
    spec = spectrum(3)
    part = Partition.trivial(spec)
    b = BlockMatrix.zeros(part)
    u = BlockMatrix.zeros(part)
    v = BlockMatrix.zeros(part)
    assert similarity_residual(spec, b, u, v) == 0.0
