"""Similarity transforms that block-diagonalize a perturbed operator.

Given A - B with A diagonal and B a block perturbation, the goal is an
invertible I + U with

    (A - B)(I + U) = (I + U)(A - V),

V block diagonal, so that A - B and A - V share their spectrum and the
eigenvalue problem collapses to the diagonal blocks of A - V.

U and V come out of a fixed point of the quadratic map

    Phi(X) = B GX - (GX) JB - (GX) J(B GX) + B,

where J keeps diagonal blocks and G is the commutator inverse.  Both
act on the partition of the matrix they are given, and each partition
caches its divisor table, so every step on one partition shares it.
The map contracts on a ball once 4 * gamma * ||B|| < 1 for the norm
bound gamma of G.  When the plain certificate fails, a preliminary
transform by I + GB (valid once ||GB||_op < 1) and a coarsening of the
partition bring the effective perturbation inside the contraction
region; the coarse radius is chosen through the decay weights of the
transformed perturbation.

Pipelines, from cheap to heavy, all ``(spectrum, b, *, ...)`` and all
returning a ``SimilarityResult``; a failed certificate always raises:

* ``pipeline_contraction(spectrum, b, *, tol, max_iter)``: single fixed
  point in the Frobenius norm.
* ``pipeline_block_norm(spectrum, b, *, tol, max_iter)``: same, in the
  blockwise spectral norm.
* ``pipeline_coarse(spectrum, b, *, margin, tol, max_iter)``: two stages
  in one frame.
* ``pipeline_rebase(spectrum, b, *, diag_part, margin, tol, max_iter)``:
  two stages with a change of frame between them: the free operator
  absorbs a designated diagonal part and stage two runs in its
  eigenbasis; handles perturbations whose diagonal blocks are too large
  to treat as a perturbation.

The two-stage pipelines share their stages and differ only in the frame
change.  Stage one scans for the least smoothing radius m with
||GB||_op < 1 and applies the preliminary transform there.  Stage two
builds the decay weights of the perturbation left over, selects the
least coarse radius k whose weighted certificate clears the margin (k >=
m for pipeline_coarse) and runs the weighted fixed point at k.  The
result assembly composes U = G + U2 + G U2 and measures the similarity
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConditionViolationError,
    ContractionViolationError,
    InvalidInputError,
    InvariantBreachError,
    NonConvergenceError,
    PartitionMismatchError,
)
from .opmatrix import (
    BlockMatrix,
    Partition,
    Spectrum,
    gap_inverse_square_sum,
    inv_identity_plus,
    spectral_gap,
)
from .transforms import block_diagonal, commutator_inverse, off_diagonal_part
from .verify import match_spectra
from .weighted import decay_weights, factorize, select_coarsening

__all__ = [
    "FixedPointResult",
    "PreliminaryResult",
    "AsymptoticSequences",
    "SimilarityResult",
    "contraction_step",
    "fixed_point",
    "preliminary_transform",
    "similarity_residual",
    "diagonal_asymptotics",
    "block_eigenvalue_estimates",
    "pipeline_contraction",
    "pipeline_block_norm",
    "pipeline_coarse",
    "pipeline_rebase",
    "PIPELINES",
]

_BALL_SLACK = 1e-9
_IDENTITY_SLACK = 1e-10


def _move(x: BlockMatrix, partition: Partition) -> BlockMatrix:
    """The same matrix tagged by another partition of its spectrum.

    Any two partitions of one spectrum are nested, so only the tag changes.
    """
    if not x.partition.spectrum.same_entries(partition.spectrum):
        raise PartitionMismatchError("partitions of different spectra")
    return x if x.partition is partition else BlockMatrix(partition, x.data)


# -- fixed point --------------------------------------------------------


def contraction_step(x: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """One application of Phi(X) = B GX - (GX) JB - (GX) J(B GX) + B."""
    gx = commutator_inverse(x)
    bgx = b @ gx
    return bgx - gx @ block_diagonal(b) - gx @ block_diagonal(bgx) + b


@dataclass
class FixedPointResult:
    x_star: BlockMatrix
    iterations: int
    step_norms: list
    observed_ratio: float
    certificate: dict
    identity_residual: float


def fixed_point(
    b: BlockMatrix,
    *,
    gamma: float,
    norm_fn,
    norm_name: str,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FixedPointResult:
    """Iterate Phi on the partition of ``b`` from X0 = 0 until the step
    norm stalls below `tol`.

    The a priori certificate is q = 4 * gamma * ||B|| < 1; the iteration
    refuses to start without it.  Convergence lands X* in the ball
    ||X* - B|| <= 3 ||B||, and the diagonal identity
    J X* = J(B G X*) + J B holds exactly; both are re-checked.
    """
    norm_b = norm_fn(b)
    q_bound = 4.0 * gamma * norm_b
    certificate = {
        "norm": norm_name,
        "gamma": float(gamma),
        "perturbation_norm": float(norm_b),
        "contraction_q": float(q_bound),
        "satisfied": bool(q_bound < 1.0),
    }
    if not q_bound < 1.0:
        raise ContractionViolationError(
            f"contraction certificate fails: 4 * gamma * norm = {q_bound!r} >= 1"
        )
    x = BlockMatrix.zeros(b.partition)
    steps = []
    ratio = 0.0
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        x_next = contraction_step(x, b)
        s = norm_fn(x_next - x)
        if steps and steps[-1] > 1e-300:
            ratio = max(ratio, s / steps[-1])
        steps.append(s)
        x = x_next
        iterations = it
        if s <= tol * max(norm_b, 1e-300):
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"fixed point not reached in {max_iter} iterations", last_ratio=ratio
        )
    certificate["observed_ratio"] = float(ratio)

    drift = norm_fn(x - b)
    if drift > 3.0 * norm_b * (1.0 + _BALL_SLACK):
        raise InvariantBreachError(
            f"fixed point left the guaranteed ball: {drift!r} > 3 * {norm_b!r}"
        )
    resid = (
        block_diagonal(x)
        - block_diagonal(b @ commutator_inverse(x))
        - block_diagonal(b)
    ).hs()
    if resid > _IDENTITY_SLACK * max(1.0, b.hs()):
        raise InvariantBreachError(f"diagonal identity residual {resid!r} too large")
    return FixedPointResult(x, iterations, steps, ratio, certificate, float(resid))


# -- preliminary transform ----------------------------------------------


@dataclass
class PreliminaryResult:
    """A - B rewritten as A - JB - B0 through the similarity I + GB."""

    smoother: BlockMatrix
    diagonal: BlockMatrix
    remainder: BlockMatrix
    smoother_op_norm: float
    residual: float


def preliminary_transform(b: BlockMatrix, g: BlockMatrix, gop: float) -> PreliminaryResult:
    """Conjugate A - B by I + GB, splitting off the diagonal blocks of B.

    ``g`` is GB and ``gop`` its exact operator norm, as the smoothing
    scan computed them; G and J act on the partition of ``b``.  Valid
    once ||GB||_op < 1; then A - B is similar to A - JB - B0 with
    B0 = (I + GB)^-1 (B GB - (GB)(JB)).  The exact similarity residual
    of the rewriting is returned for gating.
    """
    if not gop < 1.0:
        raise ConditionViolationError(
            "preliminary transform needs ||GB||_op < 1", lhs=gop, rhs=1.0
        )
    jb = block_diagonal(b)
    inv = inv_identity_plus(g)
    b0 = inv @ (b @ g - g @ jb)

    lam = b.partition.spectrum.position_values
    eye_g = np.eye(lam.size) + g.data
    lhs = lam[:, None] * eye_g - b.data @ eye_g
    rhs = eye_g * lam[None, :] - eye_g @ (jb.data + b0.data)
    residual = float(np.linalg.norm(lhs - rhs))
    return PreliminaryResult(g, jb, b0, float(gop), residual)


# -- result assembly ------------------------------------------------------


def similarity_residual(spectrum: Spectrum, b: BlockMatrix, u: BlockMatrix, v: BlockMatrix) -> float:
    """Frobenius norm of (A - B)(I + U) - (I + U)(A - V)."""
    lam = spectrum.position_values
    eye_u = np.eye(lam.size) + u.data
    lhs = lam[:, None] * eye_u - b.data @ eye_u
    rhs = eye_u * lam[None, :] - eye_u @ v.data
    return float(np.linalg.norm(lhs - rhs))


@dataclass
class AsymptoticSequences:
    """First and second order diagonal corrections per index."""

    labels: np.ndarray
    first_order: np.ndarray
    second_order: np.ndarray


def diagonal_asymptotics(b: BlockMatrix) -> AsymptoticSequences | None:
    """p_n = B_nn and q_n = (B G B)_nn on a multiplicity-free spectrum."""
    spec = b.partition.spectrum
    if not np.all(spec.mults == 1):
        return None
    base = Partition.trivial(spec)
    bb = _move(b, base)
    gb = commutator_inverse(bb)
    second = np.diag(bb.data @ gb.data).copy()
    first = np.diag(bb.data).copy()
    return AsymptoticSequences(spec.indices.copy(), first, second)


def block_eigenvalue_estimates(v: BlockMatrix, labels=None):
    """Eigenvalues of A - V per diagonal block of the partition of ``v``,
    tagged by spectrum index.

    Singleton positions give lambda_n - V_nn directly; larger blocks are
    diagonalized and their eigenvalues paired to member indices by
    closeness to the free eigenvalues.  ``labels`` overrides the tag per
    position (used when the working spectrum is a relabeling of another).
    """
    partition = v.partition
    spectrum = partition.spectrum
    lam = spectrum.position_values
    if labels is None:
        labels = [int(spectrum.indices[spectrum.position_entry[p]])
                  for p in range(spectrum.dim)]
    out = []
    for g in range(partition.n_groups):
        pos = partition.group_positions(g)
        if pos.size == 1:
            p = int(pos[0])
            out.append((labels[p], complex(lam[p] - v.data[p, p])))
            continue
        blk = np.diag(lam[pos]) - v.data[np.ix_(pos, pos)]
        vals = np.linalg.eigvals(blk)
        match = match_spectra(lam[pos], vals)
        out.extend((labels[pos[i]], complex(vals[j])) for i, j in match.pairs)
    out.sort(key=lambda t: (t[0], t[1].real, t[1].imag))
    return out


@dataclass
class SimilarityResult:
    pipeline: str
    u: BlockMatrix
    v: BlockMatrix
    certificates: dict
    iterations: dict
    residual: float
    residual_scale: float
    offdiag_residual: float
    eigenvalue_estimates: list
    stages: list


def _residual_scale(spectrum: Spectrum, b: BlockMatrix) -> float:
    return float(np.abs(spectrum.position_values).max() + b.hs())


def _fixed_point_stage(fp: FixedPointResult) -> dict:
    return {
        "name": "fixed_point",
        "iterations": fp.iterations,
        "certificate": fp.certificate,
        "identity_residual": fp.identity_residual,
    }


# -- pipelines -------------------------------------------------------------


def _single_stage(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    pipeline: str,
    gamma: float,
    norm_fn,
    norm_name: str,
    tol: float,
    max_iter: int,
) -> SimilarityResult:
    """One fixed point on the index-per-group partition; ``gamma`` is the
    norm bound of G."""
    bb = _move(b, Partition.trivial(spectrum))
    fp = fixed_point(
        bb, gamma=gamma, norm_fn=norm_fn, norm_name=norm_name,
        tol=tol, max_iter=max_iter,
    )
    u = commutator_inverse(fp.x_star)
    v = block_diagonal(fp.x_star)
    return SimilarityResult(
        pipeline=pipeline,
        u=u,
        v=v,
        certificates={"contraction": fp.certificate},
        iterations={"fixed_point": fp.iterations},
        residual=similarity_residual(spectrum, bb, u, v),
        residual_scale=_residual_scale(spectrum, bb),
        offdiag_residual=off_diagonal_part(v).hs(),
        eigenvalue_estimates=block_eigenvalue_estimates(v),
        stages=[_fixed_point_stage(fp)],
    )


def pipeline_contraction(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """One fixed point on the index-per-group partition, Frobenius norm.

    Certificate: 4 ||B||_hs / delta < 1 with delta the least eigenvalue
    gap.
    """
    return _single_stage(
        spectrum, b,
        pipeline="mt1",
        gamma=1.0 / spectral_gap(spectrum),
        norm_fn=lambda z: z.hs(),
        norm_name="hs",
        tol=tol, max_iter=max_iter,
    )


def pipeline_block_norm(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """Fixed point in the blockwise spectral norm; certificate through
    the inverse square gap sum instead of the worst single gap."""
    return _single_stage(
        spectrum, b,
        pipeline="mt2",
        gamma=math.sqrt(gap_inverse_square_sum(spectrum)),
        norm_fn=lambda z: z.hs_sigma(),
        norm_name="hs_sigma",
        tol=tol, max_iter=max_iter,
    )


# -- two-stage pipelines -----------------------------------------------------


def _scan_smoothing_radius(spectrum: Spectrum, b: BlockMatrix):
    """GB and ||GB||_op on the partition of the smallest coarse radius
    with ||GB||_op < 1, plus the scan log."""
    kmax = int(np.abs(spectrum.indices).max())
    scan = []
    for m in range(kmax + 1):
        g = commutator_inverse(_move(b, Partition.coarse(spectrum, m)))
        gop = g.op()
        scan.append({"radius": m, "smoother_op_norm": float(gop)})
        if gop < 1.0:
            return g, gop, scan
    raise ConditionViolationError(
        "no coarsening radius makes the preliminary transform contractive",
        lhs=scan[-1]["smoother_op_norm"],
        rhs=1.0,
    )


@dataclass
class _StageOne:
    """Preliminary similarity I + GB at the smallest smoothing radius."""

    b: BlockMatrix  # B on the trivial partition
    partition: Partition  # at the smoothing radius
    prelim: PreliminaryResult
    certificate: dict
    stages: list


def _stage_one(spectrum: Spectrum, b: BlockMatrix) -> _StageOne:
    bb = _move(b, Partition.trivial(spectrum))
    g, gop, scan = _scan_smoothing_radius(spectrum, bb)
    prelim = preliminary_transform(_move(bb, g.partition), g, gop)
    certificate = {"radius": g.partition.radius, "smoother_op_norm": prelim.smoother_op_norm}
    stages = [
        {"name": "smoothing_scan", "scan": scan},
        {"name": "preliminary", **certificate, "residual": prelim.residual},
    ]
    return _StageOne(bb, g.partition, prelim, certificate, stages)


@dataclass
class _StageTwo:
    """Weighted fixed point X* on the coarse partition at radius k."""

    partition: Partition
    fp: FixedPointResult
    selection: dict
    u: BlockMatrix  # G X*
    v: BlockMatrix  # J X*
    stages: list


def _stage_two(q: BlockMatrix, *, start: int, margin: float, tol: float,
               max_iter: int) -> _StageTwo:
    """Decay weights of Q, the least radius k >= start that certifies
    contraction, and the fixed point for Q at k in the weighted norm."""
    w = decay_weights(q)
    k, selection = select_coarsening(q, w, margin=margin, start=start)
    part_k = Partition.coarse(q.partition.spectrum, k)
    fp = fixed_point(
        _move(q, part_k),
        gamma=w.gamma(k),
        norm_fn=lambda z: factorize(z, w).norm,
        norm_name="weighted",
        tol=tol, max_iter=max_iter,
    )
    u2 = commutator_inverse(fp.x_star)
    v2 = block_diagonal(fp.x_star)
    stages = [{"name": "coarsening", **selection}, _fixed_point_stage(fp)]
    return _StageTwo(part_k, fp, selection, u2, v2, stages)


def _two_stage_result(
    pipeline: str,
    spectrum: Spectrum,
    one: _StageOne,
    two: _StageTwo,
    u2: BlockMatrix,
    v: BlockMatrix,
    *,
    labels: list | None = None,
    frame_certificates: dict | None = None,
    frame_stages: list | None = None,
) -> SimilarityResult:
    """Assemble U = G + U2 + G U2 and the result of a two-stage run.

    ``u2`` and ``v`` are the stage-two U and V in the frame of A; the
    estimates and the off-diagonal residual are read in the stage-two
    frame from ``two``, whose positions are tagged by ``labels``.
    """
    base = one.b.partition
    g = _move(one.prelim.smoother, base)
    u2 = _move(u2, base)
    u = g + u2 + g @ u2
    return SimilarityResult(
        pipeline=pipeline,
        u=u,
        v=v,
        certificates={
            "smoothing": one.certificate,
            **(frame_certificates or {}),
            "coarsening": two.selection,
            "contraction": two.fp.certificate,
        },
        iterations={"fixed_point": two.fp.iterations},
        residual=similarity_residual(spectrum, one.b, u, _move(v, base)),
        residual_scale=_residual_scale(spectrum, one.b),
        offdiag_residual=off_diagonal_part(two.v).hs(),
        eigenvalue_estimates=block_eigenvalue_estimates(two.v, labels=labels),
        stages=[*one.stages, *(frame_stages or []), *two.stages],
    )


def pipeline_coarse(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    margin: float = 0.9,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """Two stages: preliminary transform at radius m, then a weighted
    coarse fixed point at radius k >= m.

    Stage one trades B for JB + B0 with small B0; stage two needs its
    own coarsening at least as coarse as stage one so the stage-one
    diagonal survives the stage-two projection.
    """
    one = _stage_one(spectrum, b)
    base = one.b.partition
    prelim = one.prelim
    two = _stage_two(_move(prelim.diagonal + prelim.remainder, base),
                     start=one.partition.radius, margin=margin, tol=tol, max_iter=max_iter)

    # the stage-one diagonal must survive inside V:
    # V = JB|_m + (B0 (I + G_k X*)) projected onto the coarse blocks
    part_k = two.partition
    b0_k = _move(prelim.remainder, part_k)
    jb_k = _move(prelim.diagonal, part_k)
    v_alt = jb_k + block_diagonal(b0_k @ (BlockMatrix.identity(part_k) + two.u))
    cross = (two.v - v_alt).hs()
    if cross > 1e-8 * max(1.0, two.v.hs()):
        raise InvariantBreachError(f"diagonal reconstruction mismatch {cross!r}")
    return _two_stage_result("mt3", spectrum, one, two, two.u, two.v)


# -- rebase pipeline -------------------------------------------------------

_REBASE_COND_LIMIT = 1e10
_REBASE_RESIDUAL_LIMIT = 1e-8


def _merge_sorted_values(vals: np.ndarray, scale: float):
    """Sort by (re, im), merge near-duplicates, return reps with mults."""
    order = np.lexsort((vals.imag, vals.real))
    tol = 1e-12 * scale
    reps, mults, members = [], [], []
    for p in order:
        z = vals[p]
        if reps and abs(z - reps[-1]) <= tol:
            members[-1].append(int(p))
            mults[-1] += 1
            reps[-1] += (z - reps[-1]) / mults[-1]
        else:
            reps.append(complex(z))
            mults.append(1)
            members.append([int(p)])
    return np.array(reps), np.array(mults), members


def _rebase_frame(spectrum: Spectrum, d: BlockMatrix):
    """Diagonalize A - D and return the sorted eigenbasis.

    D must be block diagonal on its own (stage-one) partition.  A literally
    diagonal D keeps the frame exact (a permutation); otherwise each
    block is diagonalized numerically and gated on conditioning.
    """
    lam = spectrum.position_values
    dim = spectrum.dim
    part = d.partition
    off = d.data.copy()
    np.fill_diagonal(off, 0.0)
    diagonal_case = not off.any()
    if not diagonal_case:
        allowed = part.same_group_mask()
        if np.any(d.data[~allowed] != 0.0):
            raise InvalidInputError("designated diagonal part must respect the stage-one blocks")

    if diagonal_case:
        new_vals = lam - np.diag(d.data)
        w_dense = None
    else:
        new_vals = np.empty(dim, dtype=complex)
        w_dense = np.zeros((dim, dim), dtype=complex)
        for g in range(part.n_groups):
            pos = part.group_positions(g)
            blk = np.diag(lam[pos]) - d.data[np.ix_(pos, pos)]
            if pos.size == 1:
                new_vals[pos[0]] = blk[0, 0]
                w_dense[pos[0], pos[0]] = 1.0
                continue
            vals_g, vecs_g = np.linalg.eig(blk)
            new_vals[pos] = vals_g
            w_dense[np.ix_(pos, pos)] = vecs_g

    scale = max(1.0, float(np.abs(new_vals).max()))
    reps, mults, members = _merge_sorted_values(new_vals, scale)
    if reps.size > 1:
        diff = np.abs(reps[:, None] - reps[None, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() < 1e-9 * scale:
            raise AssumptionViolationError(
                "re-derived eigenvalues too close to separate reliably"
            )
    pos_perm = np.array([p for grp in members for p in grp])

    lo = -(reps.size // 2)
    tilde = Spectrum(np.arange(lo, lo + reps.size), reps, mults, spectrum.interior_fraction)

    if diagonal_case:
        inv_perm = np.argsort(pos_perm)
        push = lambda mat: mat[np.ix_(pos_perm, pos_perm)]
        pull = lambda mat: mat[np.ix_(inv_perm, inv_perm)]
        info = {"kind": "permutation"}
    else:
        w_sorted = w_dense[:, pos_perm]
        cond = float(np.linalg.cond(w_sorted))
        if not math.isfinite(cond) or cond > _REBASE_COND_LIMIT:
            raise AssumptionViolationError(
                f"rebase eigenbasis too ill-conditioned (cond={cond:.3e})"
            )
        w_inv = np.linalg.inv(w_sorted)
        a_prime = np.diag(lam) - d.data
        # Frobenius: an upper bound of the operator norm of the residual
        check = float(np.linalg.norm(
            a_prime @ w_sorted - w_sorted @ np.diag(tilde.position_values)
        ))
        if check > _REBASE_RESIDUAL_LIMIT * scale:
            raise AssumptionViolationError(f"rebase diagonalization residual {check:.3e}")
        push = lambda mat: w_inv @ mat @ w_sorted
        pull = lambda mat: w_sorted @ mat @ w_inv
        info = {"kind": "eigenbasis", "condition": cond, "residual": float(check)}
    return tilde, push, pull, info, pos_perm


def pipeline_rebase(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    diag_part: BlockMatrix | None = None,
    margin: float = 0.9,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """Two-stage pipeline with an eigenbasis change between the stages.

    After the preliminary transform the designated diagonal part D
    (default: all the stage-one diagonal blocks) moves into the free
    operator; the remaining perturbation (JB - D) + B0 is rewritten in
    the eigenbasis of A - D, whose simple sorted spectrum gets fresh
    contiguous indices, and the coarse weighted fixed point runs there.
    Results are pulled back to the original frame.
    """
    one = _stage_one(spectrum, b)
    base = one.b.partition
    prelim = one.prelim
    d = prelim.diagonal if diag_part is None else _move(diag_part, one.partition)
    tilde, push, pull, frame_info, pos_perm = _rebase_frame(spectrum, d)

    hat_dense = push((prelim.diagonal - d + prelim.remainder).data)
    b_hat = BlockMatrix(Partition.trivial(tilde), hat_dense)
    two = _stage_two(b_hat, start=0, margin=margin, tol=tol, max_iter=max_iter)

    u2 = BlockMatrix(base, pull(two.u.data))
    a_minus_v_hat = np.diag(tilde.position_values) - two.v.data
    v = BlockMatrix(base, np.diag(spectrum.position_values) - pull(a_minus_v_hat))
    # tag estimates with the index each tilde slot descended from, so the
    # labels mean the same thing they do in the single-frame pipelines
    source = [int(spectrum.indices[spectrum.position_entry[int(p)]]) for p in pos_perm]
    return _two_stage_result(
        "mt4", spectrum, one, two, u2, v,
        labels=source,
        frame_certificates={"rebase": frame_info},
        frame_stages=[{"name": "rebase", **frame_info, "new_dim": int(tilde.dim)}],
    )


PIPELINES = {
    "mt1": pipeline_contraction,
    "mt2": pipeline_block_norm,
    "mt3": pipeline_coarse,
    "mt4": pipeline_rebase,
}
