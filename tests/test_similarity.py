import numpy as np
import pytest

from simspec.errors import (
    ContractionViolationError,
    MethodConditionError,
    NonConvergenceError,
)
from simspec.models import dirac_model, hill_model, involution_model, kernel_model
from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    spectral_gap,
)
from simspec.similarity import (
    PIPELINES,
    _move,
    _rebase_frame,
    _rebased,
    _stage_one,
    _stage_two,
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

from partition_reference import same_group_mask


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
        # solution stays in the certified ball; the commutator identity
        # A GX - GX A = X - JX rebuilds X* = V + U o (lambda_p - lambda_q)
        lam = spec.position_values
        rebuilt = res.v + BlockMatrix(b.partition, res.u.data * (lam[:, None] - lam[None, :]))
        assert (rebuilt - b).hs() <= 3.0 * b.hs() * (1 + 1e-9)

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
        assert res.u.hs() == 0.0 and res.v.hs() == 0.0
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


def random_block_diagonal(rng, part, scale=0.3):
    """A D block diagonal on ``part``, as JB is on the stage-one partition."""
    data = random_block(rng, part, scale).data
    return BlockMatrix(part, np.where(same_group_mask(part), data, 0.0))


def dense_frame(d, perm):
    """The sorted eigenbasis W[:, perm] of A - D and its inverse as dense
    matrices, W built from the same eig blocks the frame takes."""
    lam = d.partition.spectrum.position_values
    w = np.eye(lam.size, dtype=complex)
    for _, pos in d.partition.wide_classes():
        idx = (pos[:, :, None], pos[:, None, :])
        w[idx] = np.linalg.eig(lam[pos][:, :, None] * np.eye(pos.shape[1]) - d.data[idx])[1]
    return w[:, perm], np.linalg.inv(w)[perm]


@pytest.mark.parametrize("seed", range(4))
def test_rebase_frame_matches_dense(block_partition, seed):
    rng = np.random.default_rng(seed)
    spec = block_partition.spectrum
    d = random_block_diagonal(rng, block_partition)
    tilde, push, pull, info, perm = _rebase_frame(spec, d)
    assert info["kind"] == "eigenbasis"
    w, w_inv = dense_frame(d, perm)
    m = random_block(rng, block_partition).data

    def close(got, ref, scale):
        assert np.linalg.norm(got - ref) <= 1e-12 * scale

    close(push(m), w_inv @ m @ w, np.linalg.norm(w_inv @ m @ w))
    close(pull(m), w @ m @ w_inv, np.linalg.norm(w @ m @ w_inv))
    close(pull(push(m)), m, np.linalg.norm(m))
    assert info["condition"] == pytest.approx(np.linalg.cond(w), rel=1e-12)
    # the residual is rounding noise, so it is compared relative to the
    # size of the terms it is the difference of
    a_w = (np.diag(spec.position_values) - d.data) @ w
    close(info["residual"], np.linalg.norm(a_w - w @ np.diag(tilde.position_values)),
          np.linalg.norm(a_w))


def test_rebase_frame_of_a_diagonal_is_the_permutation(block_partition):
    rng = np.random.default_rng(0)
    d = random_block_diagonal(rng, block_partition)
    diag = BlockMatrix(block_partition, np.diag(np.diagonal(d.data)))
    tilde, push, pull, info, perm = _rebase_frame(block_partition.spectrum, diag)
    assert info == {"kind": "permutation"}
    assert np.array_equal(tilde.position_values[np.argsort(perm)],
                          block_partition.spectrum.position_values - np.diagonal(d.data))
    m = random_block(rng, block_partition).dense()
    m[1, 0] = complex(-0.0, -0.0)
    inv = np.argsort(perm)
    for got, ref in ((push(m), m[np.ix_(perm, perm)]), (pull(m), m[np.ix_(inv, inv)])):
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros too


def rebase_attempts(mdl):
    """The two attempts of pipeline_rebase, D = diag(JB) and D = JB, each
    returning its result or raising."""
    one = _stage_one(mdl.spectrum, mdl.perturbation)
    jb = one.prelim.diagonal
    diag = BlockMatrix(jb.partition, np.diag(np.diagonal(jb.data)))
    return [lambda d=d: _rebased(mdl.spectrum, one, d, margin=0.9, tol=1e-12, max_iter=200)
            for d in (diag, jb)]


class TestRebaseRule:
    def test_takes_the_permutation_frame_where_the_diagonal_certifies(self):
        # the auto-rule config of the CLI tests: all of JB does not certify
        pot = {0: 0.2, 1: 0.08, -1: 0.08}
        mdl = dirac_model(8, pot, pot, pot, pot)
        with pytest.raises(MethodConditionError):
            rebase_attempts(mdl)[1]()
        res = pipeline_rebase(mdl.spectrum, mdl.perturbation)
        assert res.certificates["rebase"] == {"kind": "permutation"}

    def test_falls_back_to_the_whole_blocks(self):
        mdl = dirac_model(16, {0: 0.18}, {-1: 0.01 + 0.025j, 2: 0.04 - 0.05j},
                          {0: -0.04 - 0.08j},
                          {-2: -0.04, -1: 0.07 - 0.08j, 0: 0.03 + 0.01j, 2: 0.06 + 0.02j},
                          gauge=False)
        with pytest.raises(MethodConditionError):
            rebase_attempts(mdl)[0]()
        res = pipeline_rebase(mdl.spectrum, mdl.perturbation)
        assert res.certificates["rebase"]["kind"] == "eigenbasis"
        assert res.residual <= 1e-9 * res.residual_scale

    def test_raises_the_first_error_when_both_attempts_fail(self):
        mdl = dirac_model(5, {0: 0.169 + 0.062j, 1: -0.153 + 0.203j, -1: -0.04 - 0.088j},
                          {0: 0.147 - 0.005j}, {0: 0.022 + 0.084j}, {0: 0.099 - 0.138j},
                          gauge=False)
        errors = []
        for attempt in rebase_attempts(mdl):
            with pytest.raises(MethodConditionError) as err:
                attempt()
            errors.append(err.value)
        assert str(errors[0]) != str(errors[1])
        with pytest.raises(type(errors[0])) as err:
            pipeline_rebase(mdl.spectrum, mdl.perturbation)
        assert str(err.value) == str(errors[0])


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


@pytest.mark.parametrize("build", [
    lambda: kernel_model(64),
    lambda: hill_model(32, 0.5, {1: 5, -1: 5}),
    lambda: dirac_model(6, {0: 0.15}, {1: 0.1, -1: 0.1}, {0: 0.1}, {2: 0.05, -2: 0.05}),
], ids=["kernel64", "hill5-32", "dirac6-gauged"])
def test_coarse_fixed_point_keeps_the_stage_one_diagonal(build):
    # stage two of mt3 runs on Q = JB_m + B0 at k >= m, where
    # J_k(JB_m G_k X*) = 0; the fixed point's own identity
    # J X* = J(Q G X*) + J Q then reads J X* = JB_m + J_k(B0 (I + G_k X*))
    mdl = build()
    one = _stage_one(mdl.spectrum, mdl.perturbation)
    prelim = one.prelim
    fp, _ = _stage_two(_move(prelim.diagonal + prelim.remainder, one.b.partition),
                       start=prelim.smoother.partition.radius,
                       margin=0.9, tol=1e-12, max_iter=200)
    part = fp.u.partition
    eye = BlockMatrix(part, np.eye(mdl.spectrum.dim))
    v_ref = _move(prelim.diagonal, part) + block_diagonal(_move(prelim.remainder, part) @ (eye + fp.u))
    assert part.radius >= prelim.smoother.partition.radius
    assert (fp.v - v_ref).hs() <= 1e-12 * max(1.0, fp.v.hs())


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
