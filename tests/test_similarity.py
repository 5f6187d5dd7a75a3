import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simspec import cli, similarity
from simspec.errors import (
    AssumptionViolationError,
    ConditionViolationError,
    ContractionViolationError,
    InvariantBreachError,
    MethodConditionError,
    NonConvergenceError,
    NotInvertibleError,
)
from simspec.models import dirac_model, hill_model, involution_model, kernel_model
from simspec.opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    inv_identity_plus,
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
    iterate,
    pipeline_block_norm,
    pipeline_coarse,
    pipeline_contraction,
    pipeline_rebase,
    preliminary_transform,
    similarity_residual,
)
from simspec.splitting import split_eigenpair, split_system
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
        assert res.certificate["observed_ratio"] <= res.certificate["contraction_q"] + 0.05

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

    @pytest.mark.parametrize("max_iter", [1, 3, 5])
    def test_cut_run_names_its_last_step_ratio(self, max_iter):
        # the ratio of the last two step norms, and no ratio after one
        # step; at five steps the largest ratio is the fourth's, not the last
        spec, b = small_perturbation(6)
        kw = dict(gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(), norm_name="full")
        steps = fixed_point(b, **kw).step_norms
        with pytest.raises(NonConvergenceError) as err:
            fixed_point(b, max_iter=max_iter, **kw)
        if max_iter == 1:
            assert err.value.last_ratio is None
            assert str(err.value) == "fixed point not reached in 1 iterations"
        else:
            assert err.value.last_ratio == steps[max_iter - 1] / steps[max_iter - 2]
            assert str(err.value).endswith(f"(last step ratio {err.value.last_ratio!r})")

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_cut_split_names_its_last_step_ratio(self, max_iter):
        # the split runs the same loop, so a cut split reads the same way;
        # the kernel cross has B22 = 0, which the reference steps leave out
        mdl = kernel_model(64)
        op = split_system(mdl.spectrum, mdl.perturbation, 0)
        z, steps = np.zeros_like(op.b21), []
        for _ in range(max_iter):
            sz = op.s_diag * z
            z_next = op.b1 * sz - (op.b12 @ sz) * sz + op.b21
            steps.append(float(np.linalg.norm(z_next - z)))
            z = z_next
        with pytest.raises(NonConvergenceError) as err:
            split_eigenpair(mdl.spectrum, mdl.perturbation, 0, max_iter=max_iter)
        message = f"splitting iteration did not converge in {max_iter} iterations"
        if max_iter == 1:
            assert err.value.last_ratio is None and str(err.value) == message
        else:
            assert err.value.last_ratio == pytest.approx(steps[-1] / steps[-2], rel=1e-12)
            assert str(err.value) == f"{message} (last step ratio {err.value.last_ratio!r})"

    def test_iterate_of_no_steps_has_not_converged(self):
        # even from a fixed point: no step was measured against the stop
        with pytest.raises(NonConvergenceError) as err:
            iterate(abs, 1.0, lambda a, b: abs(a - b), tol=0.1, scale=1.0, max_iter=0, what="w")
        assert err.value.last_ratio is None and str(err.value) == "w in 0 iterations"

    def test_fixed_point_outside_the_ball_is_a_breach(self, monkeypatch):
        # a map whose fixed point 5B lies outside ||X* - B|| <= 3 ||B||
        spec, b = small_perturbation(4)
        monkeypatch.setattr(similarity, "contraction_step",
                            lambda x, b: BlockMatrix(b.partition, 5.0 * b.data))
        with pytest.raises(InvariantBreachError, match="left the guaranteed ball"):
            fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                        norm_name="full")

    def test_broken_diagonal_identity_is_a_breach(self, monkeypatch):
        # X* = B lies in the ball, but J B = J(B G B) + J B fails
        spec, b = small_perturbation(4)
        monkeypatch.setattr(similarity, "contraction_step", lambda x, b: b)
        with pytest.raises(InvariantBreachError, match="diagonal identity residual"):
            fixed_point(b, gamma=1.0 / spectral_gap(spec), norm_fn=lambda m: m.hs(),
                        norm_name="full")


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


def test_rebase_frame_refuses_eigenvalues_too_close_to_separate():
    spec = Spectrum([0, 1], [0, 1])
    d = BlockMatrix(Partition.trivial(spec), np.diag([0.0, 1.0 - 1e-10]).astype(complex))
    with pytest.raises(AssumptionViolationError, match="too close to separate"):
        _rebase_frame(spec, d)


def double_zero_block(top_right):
    """D on the spectrum {0 (twice), 10} whose block at 0 is [[0, t], [0, -1]]."""
    spec = Spectrum([0, 1], [0, 10], [2, 1])
    data = np.zeros((3, 3), dtype=complex)
    data[:2, :2] = [[0.0, top_right], [0.0, -1.0]]
    return spec, BlockMatrix(Partition.trivial(spec), data)


def test_rebase_frame_refuses_an_ill_conditioned_eigenbasis():
    # the eigenvectors of [[0, -1e11], [0, 1]] are nearly parallel: cond 2e11
    with pytest.raises(AssumptionViolationError, match=r"ill-conditioned \(cond=2\.000e\+11\)"):
        _rebase_frame(*double_zero_block(1e11))


def test_rebase_frame_refuses_a_wrong_eigenbasis(monkeypatch):
    # the right eigenvalues with the identity as their eigenvectors: the
    # off-diagonal 0.5 of A - D is left as the diagonalization residual
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: (eig(m)[0], np.broadcast_to(
        np.eye(m.shape[-1], dtype=complex), m.shape).copy()))
    with pytest.raises(AssumptionViolationError, match=r"residual 5\.000e-01"):
        _rebase_frame(*double_zero_block(0.5))


def rebase_attempts(mdl):
    """The two attempts of pipeline_rebase, D = diag(JB) and D = JB, each
    returning its fixed point, selection and frame, or raising."""
    bb, prelim, _ = _stage_one(mdl.spectrum, mdl.perturbation)
    jb = block_diagonal(_move(bb, prelim.q.partition))
    diag = BlockMatrix(jb.partition, np.diag(np.diagonal(jb.data)))
    return [lambda d=d: _rebased(mdl.spectrum, prelim, d, margin=0.9, tol=1e-12, max_iter=200)
            for d in (diag, jb)]


def jb_only_dirac():
    """Ungauged dirac N=16 that certifies only with D = all of JB."""
    return dirac_model(16, {0: 0.18}, {-1: 0.01 + 0.025j, 2: 0.04 - 0.05j},
                       {0: -0.04 - 0.08j},
                       {-2: -0.04, -1: 0.07 - 0.08j, 0: 0.03 + 0.01j, 2: 0.06 + 0.02j},
                       gauge=False)


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
        mdl = jb_only_dirac()
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
        # the remainder B0 = Q - JB is quadratically small
        b0 = pre.q - block_diagonal(b)
        assert b0.hs() <= pre.smoother_op_norm * b.hs() * (1 + 1e-9) * 2

    def test_refuses_a_smoother_of_norm_one(self):
        spec, b = small_perturbation(4)
        with pytest.raises(ConditionViolationError, match="needs"):
            preliminary_transform(b, commutator_inverse(b), 1.0)

    def test_refuses_a_condition_bound_above_the_limit(self):
        # kappa_2(I + GB) <= (1 + c) / (1 - c) = 2e13 > 1e12 at c = 1 - 1e-13,
        # decided from the norm alone: this GB itself is well conditioned
        spec, b = small_perturbation(4)
        with pytest.raises(NotInvertibleError, match=r"condition estimate 1\.999e\+13"):
            preliminary_transform(b, commutator_inverse(b), 1 - 1e-13)

    def test_refuses_a_solve_that_misses_its_right_hand_side(self, monkeypatch):
        spec, b = small_perturbation(4)
        g = commutator_inverse(b)
        monkeypatch.setattr(np.linalg, "solve", perturbed_solve)
        with pytest.raises(NotInvertibleError, match="solve residual"):
            preliminary_transform(b, g, g.op())

    def test_a_missed_solve_exits_three(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"family": "kernel"},
                                    "truncation": {"half_width": 16}, "pipeline": "mt3"}))
        monkeypatch.setattr(np.linalg, "solve", perturbed_solve)
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
        assert "method condition failed: solve residual" in capsys.readouterr().err


_SOLVE = np.linalg.solve


def perturbed_solve(a, rhs):
    """The solution moved by 1e-8 of its size in one entry."""
    x = _SOLVE(a, rhs)
    x[0, -1] += 1e-8 * max(np.linalg.norm(x), 1.0)
    return x


def _dense_residual(lam, b, x, v):
    """Test-side reference: Frobenius norm of (A - B)(I + X) - (I + X)(A - V),
    A = diag(lam), formed from I + X and two dense products."""
    eye_x = np.eye(lam.size) + x
    lhs = lam[:, None] * eye_x - b @ eye_x
    rhs = eye_x * lam[None, :] - eye_x @ v
    return float(np.linalg.norm(lhs - rhs))


def _inverse_route_b0(b, g):
    """Test-side reference: B0 = (I + GB)^-1 (B GB - (GB)(JB)) through the
    explicit inverse and a dense product with JB."""
    return inv_identity_plus(g) @ (b @ g - g @ block_diagonal(b))


def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff (Higham 2002, section 3.1)."""
    u = 2.0**-53
    return n * u / (1 - n * u)


def drawn_problem(half_width, radius, lam_scale, seed):
    """A spectrum with multiplicities 1 or 2 and strictly increasing real
    parts, its partition at ``radius`` (clipped to the window) and a dense
    complex B on it."""
    rng = np.random.default_rng(seed)
    size = 2 * half_width + 1
    values = lam_scale * (np.cumsum(rng.uniform(0.5, 3.0, size)) + 1j * rng.normal(size=size))
    spec = Spectrum(np.arange(-half_width, half_width + 1), values, rng.integers(1, 3, size))
    part = Partition(spec, min(radius, half_width))
    return spec, part, random_block(rng, part), rng


@settings(deadline=None, max_examples=60)
@given(half_width=st.integers(1, 5), radius=st.integers(-1, 5), c=st.floats(0.05, 0.95),
       lam_scale=st.floats(1.0, 1e3), seed=st.integers(0, 2**32 - 1))
def test_preliminary_matches_the_inverse_route(half_width, radius, c, lam_scale, seed):
    # B is scaled so that ||GB||_op = c; the solve and the commutator-form
    # residual agree with the inverse and the dense residual within their
    # rounding: kappa gamma_3d for B0 (Higham 2002, sections 9 and 14) and
    # gamma_{d+4} of the terms for the residual, a factor 8 covering
    # complex arithmetic and the two sides compared
    spec, part, b, _ = drawn_problem(half_width, radius, lam_scale, seed)
    gop = commutator_inverse(b).op()
    if gop > 0.0:
        b = BlockMatrix(part, b.data * (c / gop))
    g = commutator_inverse(b)
    c = g.op()  # the drawn c up to rounding, or 0 when G vanishes on the partition
    pre = preliminary_transform(b, g, c)
    d = spec.dim
    kappa = (1 + c) / (1 - c)
    jb = block_diagonal(b)
    rhs = b @ g - g @ jb
    q_ref = jb + _inverse_route_b0(b, g)
    bound = (4 * kappa * _gamma(3 * d) * (rhs.hs() + b.hs() * g.hs()) / (1 - c)
             + 2**-52 * pre.q.hs())
    assert (pre.q - q_ref).hs() <= bound
    lam = spec.position_values
    scale = (2 * np.abs(lam).max() + b.hs() + pre.q.hs()) * (np.sqrt(d) + g.hs())
    dense = _dense_residual(lam, b.data, g.data, pre.q.data)
    assert abs(pre.residual - dense) <= 8 * _gamma(d + 4) * scale


@settings(deadline=None, max_examples=60)
@given(half_width=st.integers(1, 5), radius=st.integers(-1, 5), u_norm=st.floats(1e-3, 0.5),
       lam_scale=st.floats(1.0, 1e3), seed=st.integers(0, 2**32 - 1))
def test_similarity_residual_matches_the_dense_form(half_width, radius, u_norm, lam_scale, seed):
    spec, part, b, rng = drawn_problem(half_width, radius, lam_scale, seed)
    u = random_block(rng, part)
    u = BlockMatrix(part, u.data * (u_norm / u.hs()))
    v = random_block(rng, part)
    lam = spec.position_values
    scale = (2 * np.abs(lam).max() + b.hs() + v.hs()) * (np.sqrt(spec.dim) + u.hs())
    dense = _dense_residual(lam, b.data, u.data, v.data)
    assert abs(similarity_residual(spec, b, u, v) - dense) <= 8 * _gamma(spec.dim + 4) * scale


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

    def test_rebase_reports_source_labels(self):
        mdl = dirac_model(8, {0: 0.15, 1: 0.08, -1: 0.08}, {1: 0.1, -1: 0.1},
                          {0: 0.1}, {2: 0.05, -2: 0.05})
        res = pipeline_rebase(mdl.spectrum, mdl.perturbation)
        counts = {}
        for n, _ in res.eigenvalue_estimates:
            counts[n] = counts.get(n, 0) + 1
        # every original index names exactly its multiplicity of estimates
        assert counts == {int(n): 2 for n in mdl.spectrum.indices}

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


def model_parts(mdl):
    return mdl.spectrum, mdl.perturbation


@pytest.mark.parametrize("build, pipeline, names, kind", [
    (lambda: small_perturbation(6, seed=4), "mt1", [], None),
    (lambda: small_perturbation(6, seed=4), "mt2", [], None),
    (lambda: model_parts(kernel_model(24)), "mt3",
     ["smoothing_scan", "preliminary", "coarsening"], None),
    (lambda: model_parts(dirac_model(8, {0: 0.15, 1: 0.08, -1: 0.08}, {1: 0.1, -1: 0.1},
                                     {0: 0.1}, {2: 0.05, -2: 0.05})), "mt4",
     ["smoothing_scan", "preliminary", "rebase", "coarsening"], "permutation"),
    (lambda: model_parts(jb_only_dirac()), "mt4",
     ["smoothing_scan", "preliminary", "rebase", "coarsening"], "eigenbasis"),
], ids=["mt1", "mt2", "kernel24-mt3", "dirac8-mt4-permutation", "jb-only-dirac16-mt4-eigenbasis"])
def test_stage_log(build, pipeline, names, kind):
    # each stage that ran is logged once, in order, and those that
    # certify something name their certificate
    res = PIPELINES[pipeline](*build())
    assert [s["name"] for s in res.stages] == [*names, "fixed_point"]
    cert_of = {"preliminary": "smoothing", "rebase": "rebase", "coarsening": "coarsening"}
    assert list(res.certificates) == [cert_of[n] for n in names if n in cert_of] + ["contraction"]
    assert res.stages[-1]["certificate"] is res.certificates["contraction"]
    if kind is not None:
        assert res.certificates["rebase"]["kind"] == kind


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
    bb, prelim, _ = _stage_one(mdl.spectrum, mdl.perturbation)
    fp, _ = _stage_two(_move(prelim.q, bb.partition),
                       start=prelim.smoother.partition.radius,
                       margin=0.9, tol=1e-12, max_iter=200)
    part = fp.u.partition
    eye = BlockMatrix(part, np.eye(mdl.spectrum.dim))
    jb = block_diagonal(_move(bb, prelim.q.partition))
    b0 = prelim.q - jb
    v_ref = _move(jb, part) + block_diagonal(_move(b0, part) @ (eye + fp.u))
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


def _per_block_estimates(v, labels=None):
    """Test-side reference: the block estimates with every wide block
    paired to its indices by its own ``match_spectra`` call."""
    partition = v.partition
    spectrum = partition.spectrum
    lam = spectrum.position_values
    if labels is None:
        labels = spectrum.position_index
    p = np.flatnonzero(partition.narrow)
    tags, vals = [labels[p]], [lam[p] - v.data[p, p]]
    for _, pos in partition.wide_classes():
        w = pos.shape[1]
        blocks = np.zeros((pos.shape[0], w, w), dtype=complex)
        blocks[:, np.arange(w), np.arange(w)] = lam[pos]
        blocks -= v.data[pos[:, :, None], pos[:, None, :]]
        for block_pos, block_vals in zip(pos, np.linalg.eigvals(blocks)):
            match = match_spectra(lam[block_pos], block_vals)
            tags.append(labels[block_pos])
            vals.append(block_vals[[j for _, j in match.pairs]])
    out = list(zip(np.concatenate(tags).tolist(), np.concatenate(vals).tolist()))
    out.sort(key=lambda t: (t[0], t[1].real, t[1].imag))
    return out


@pytest.mark.parametrize("case", ["trivial dirac", "coarse dirac", "mt4 relabelled"])
def test_block_estimates_pair_only_mixed_tag_blocks(case):
    # a block of one tag skips the pairing; the estimates stay those of
    # pairing every wide block, bit for bit
    labels = None
    if case == "mt4 relabelled":
        # a mixed-tag central group of width 29 on the eigenbasis frame
        fp, _, (_, _, labels, _) = rebase_attempts(jb_only_dirac())[1]()
        v = fp.v
    else:
        idx = np.arange(-12, 13)
        spec = Spectrum(idx, 2.0 * np.pi * idx, np.full(idx.size, 2))
        # coarse: one mixed-tag central group of width 10 among width-2 groups
        part = Partition.coarse(spec, 2) if case == "coarse dirac" else Partition.trivial(spec)
        rng = np.random.default_rng(11)
        v = BlockMatrix(part, rng.normal(size=(spec.dim, spec.dim))
                        + 1j * rng.normal(size=(spec.dim, spec.dim)))
    assert repr(block_eigenvalue_estimates(v, labels=labels)) == repr(
        _per_block_estimates(v, labels=labels))


def test_similarity_residual_zero_for_exact_pair():
    spec = spectrum(3)
    part = Partition.trivial(spec)
    b = BlockMatrix.zeros(part)
    u = BlockMatrix.zeros(part)
    v = BlockMatrix.zeros(part)
    assert similarity_residual(spec, b, u, v) == 0.0
