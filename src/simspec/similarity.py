"""Similarity transforms that block-diagonalize a perturbed operator.

Given A - B with A diagonal and B a block perturbation, the goal is an
invertible I + U with

    (A - B)(I + U) = (I + U)(A - V),

V block diagonal, so that A - B and A - V share their spectrum and the
eigenvalue problem collapses to the diagonal blocks of A - V.

U and V come out of a fixed point of the quadratic map

    Phi(X) = B GX - (GX) JB - (GX) J(B GX) + B,

where J keeps diagonal blocks and G is the commutator inverse.  Both
act on the partition of the matrix they are given and reach its diagonal
blocks through the positions of their entries, which the partition
caches.  A step takes one dense product, B GX: the two products with a
block-diagonal factor, GX JB and GX J(B GX), scale the columns of GX on
the width-1 groups and take one batched product per wider width, and
the diagonal identity checked at the fixed point reads only the
diagonal blocks of B GX*.
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
* ``pipeline_rebase(spectrum, b, *, margin, tol, max_iter)``: two
  stages with a change of frame between them: the free operator absorbs
  the diagonal of the stage-one blocks JB, or all of JB if that fails,
  and stage two runs in its eigenbasis; handles perturbations whose
  diagonal blocks are too large to treat as a perturbation.

The two-stage pipelines share their stages and differ only in the frame
change.  Stage one scans for the least smoothing radius m with
||GB||_op < 1 and applies the preliminary transform there.  Stage two
builds the decay weights of the perturbation left over, selects the
least coarse radius k whose weighted certificate clears the margin (k >=
m for pipeline_coarse) and runs the weighted fixed point at k.  One
result assembly serves all four pipelines: it takes U2 = G X* and
V2 = J X* from the last fixed point, brings them back to the frame of A,
composes U = G + U2 + G U2 after a preliminary transform, measures the
similarity residual and reads the estimates off the blocks of V2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConditionViolationError,
    ContractionViolationError,
    InvariantBreachError,
    MethodConditionError,
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
from .transforms import (
    block_diagonal,
    block_diagonal_of_product,
    commutator_inverse,
    off_diagonal_part,
    times_block_diagonal,
)
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

    Any two partitions of one spectrum are nested, so only the tag changes;
    the entries, and with them a stored Frobenius norm, carry over.
    """
    if not x.partition.spectrum.same_entries(partition.spectrum):
        raise PartitionMismatchError("partitions of different spectra")
    if x.partition is partition:
        return x
    moved = BlockMatrix(partition, x.data)
    moved._hs = x._hs
    return moved


# -- fixed point --------------------------------------------------------


def contraction_step(x: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """One application of Phi(X) = B GX - (GX) JB - (GX) J(B GX) + B.

    B GX is the one dense product; the two products with a
    block-diagonal factor are column scalings and small batched
    products (:func:`~simspec.transforms.times_block_diagonal`).
    """
    gx = commutator_inverse(x)
    bgx = b @ gx
    return bgx - times_block_diagonal(gx, b) - times_block_diagonal(gx, bgx) + b


@dataclass
class FixedPointResult:
    """U = G X* and V = J X* for the fixed point X*, both on its partition.

    X* itself is not kept: the similarity reads it only through U and V,
    and X* = V + [A, U] recovers it.
    """

    u: BlockMatrix
    v: BlockMatrix
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
    refuses to start without it.  Each step takes one dense product
    (:func:`contraction_step`).  Convergence lands X* in the ball
    ||X* - B|| <= 3 ||B||, and the diagonal identity
    J X* = J(B G X*) + J B holds exactly; both are re-checked, the
    identity from the diagonal blocks of B G X* alone (a row-column dot
    product per width-1 group, one small product per wider group), so
    its residual is rounding noise.  The check takes U = G X* and
    V = J X*, which the result keeps in place of X*.
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
    u, v = commutator_inverse(x), block_diagonal(x)
    resid = (v - block_diagonal_of_product(b, u) - block_diagonal(b)).hs()
    if resid > _IDENTITY_SLACK * max(1.0, b.hs()):
        raise InvariantBreachError(f"diagonal identity residual {resid!r} too large")
    return FixedPointResult(u, v, iterations, steps, ratio, certificate, float(resid))


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
    residual = _residual(b.partition.spectrum.position_values, b.data, g.data,
                         jb.data + b0.data)
    return PreliminaryResult(g, jb, b0, float(gop), residual)


def _residual(lam: np.ndarray, b: np.ndarray, x: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of (A - B)(I + X) - (I + X)(A - V), A = diag(lam)."""
    eye_x = np.eye(lam.size) + x
    lhs = lam[:, None] * eye_x - b @ eye_x
    rhs = eye_x * lam[None, :] - eye_x @ v
    return float(np.linalg.norm(lhs - rhs))


# -- result assembly ------------------------------------------------------


def similarity_residual(spectrum: Spectrum, b: BlockMatrix, u: BlockMatrix, v: BlockMatrix) -> float:
    """Frobenius norm of (A - B)(I + U) - (I + U)(A - V)."""
    return _residual(spectrum.position_values, b.data, u.data, v.data)


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

    Width-1 groups give lambda_p - V_pp at once; each wider width takes
    one batched ``eigvals``, and a block's eigenvalues are paired to its
    indices by closeness to the free eigenvalues.  ``labels``, an index
    array, overrides the tag per position (a relabeled working spectrum).
    """
    partition = v.partition
    spectrum = partition.spectrum
    lam = spectrum.position_values
    if labels is None:
        labels = spectrum.indices[spectrum.position_entry]
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


def _result(
    pipeline: str,
    spectrum: Spectrum,
    b: BlockMatrix,
    fp: FixedPointResult,
    *,
    certificates: dict,
    stages: list,
    smoother: BlockMatrix | None = None,
    frame: tuple | None = None,
) -> SimilarityResult:
    """The result of a run whose last fixed point is ``fp``.

    ``b`` is B on the index-per-group partition; ``certificates`` and
    ``stages`` hold the entries of the stages before the fixed point.
    U2 = G X* and V2 = J X* act in the frame of X*.  A ``frame``
    ``(tilde, pull, labels)`` brings them to the frame of A, where A - V2
    becomes pull(diag(tilde) - V2), and a ``smoother`` G composes
    U = G + U2 + G U2.  The estimates and the off-diagonal residual are
    read from V2 in the frame of X*, whose positions ``labels`` tag.
    """
    base = b.partition
    u, v, labels = fp.u, fp.v, None
    if frame is not None:
        tilde, pull, labels = frame
        u = BlockMatrix(base, pull(u.data))
        v = BlockMatrix(base, np.diag(spectrum.position_values)
                        - pull(np.diag(tilde.position_values) - v.data))
    if smoother is not None:
        g, u = _move(smoother, base), _move(u, base)
        u = g + u + g @ u
    return SimilarityResult(
        pipeline=pipeline,
        u=u,
        v=v,
        certificates={**certificates, "contraction": fp.certificate},
        iterations={"fixed_point": fp.iterations},
        residual=similarity_residual(spectrum, b, u, _move(v, base)),
        residual_scale=float(np.abs(spectrum.position_values).max() + b.hs()),
        offdiag_residual=off_diagonal_part(fp.v).hs(),
        eigenvalue_estimates=block_eigenvalue_estimates(fp.v, labels=labels),
        stages=[*stages, {
            "name": "fixed_point",
            "iterations": fp.iterations,
            "certificate": fp.certificate,
            "identity_residual": fp.identity_residual,
        }],
    )


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
    return _result(pipeline, spectrum, bb, fp, certificates={}, stages=[])


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
    prelim: PreliminaryResult
    certificates: dict
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
    return _StageOne(bb, prelim, {"smoothing": certificate}, stages)


def _stage_two(q: BlockMatrix, *, start: int, margin: float, tol: float, max_iter: int):
    """Decay weights of Q, the least radius k >= start that certifies
    contraction, and the fixed point for Q at k in the weighted norm;
    returns the fixed point and the coarsening selection."""
    w = decay_weights(q)
    k, selection = select_coarsening(q, w, margin=margin, start=start)
    fp = fixed_point(
        _move(q, Partition.coarse(q.partition.spectrum, k)),
        gamma=selection["gamma"],
        norm_fn=lambda z: factorize(z, w),
        norm_name="weighted",
        tol=tol, max_iter=max_iter,
    )
    return fp, selection


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

    Stage one trades B for Q = JB + B0 with small B0; stage two runs on
    a coarsening at least as coarse as stage one, so that J_k(JB G_k X*)
    vanishes and the stage-one diagonal survives the projection: the
    fixed point's own identity J X* = J(Q G X*) + J Q then reads
    V = JB + J_k(B0 (I + G_k X*)).
    """
    one = _stage_one(spectrum, b)
    prelim = one.prelim
    fp, selection = _stage_two(_move(prelim.diagonal + prelim.remainder, one.b.partition),
                               start=prelim.smoother.partition.radius,
                               margin=margin, tol=tol, max_iter=max_iter)
    return _result(
        "mt3", spectrum, one.b, fp, smoother=prelim.smoother,
        certificates={**one.certificates, "coarsening": selection},
        stages=[*one.stages, {"name": "coarsening", **selection}],
    )


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


def _is_diagonal(x: BlockMatrix) -> bool:
    """No nonzero entry off the main diagonal."""
    return np.count_nonzero(x.data) == np.count_nonzero(np.diagonal(x.data))


def _conjugate(m: np.ndarray, classes: list) -> np.ndarray:
    """L m R in place, for L and R the identity outside their blocks.

    ``classes`` holds ``(positions, L blocks, R blocks)`` per width
    class; each side takes one batched product per class.
    """
    for pos, left, _ in classes:
        m[pos] = left @ m[pos]
    for pos, _, right in classes:
        m[:, pos] = (m[:, pos].transpose(1, 0, 2) @ right).transpose(1, 0, 2)
    return m


def _rebase_frame(spectrum: Spectrum, d: BlockMatrix):
    """Diagonalize A - D; return the sorted eigenbasis as a push and a pull.

    D is block diagonal on its (stage-one) partition, and so is the
    eigenbasis W.  A literally diagonal D keeps W = I: the frame is the
    exact permutation P that sorts the new eigenvalues.  Otherwise each
    width class of wider blocks takes one batched eig and one batched
    inv, and the condition number of W and the diagonalization residual
    are gated, both read from the blocks.  push(M) = P^T W^-1 M W P and
    pull(M) = W P M P^T W^-1 permute first, then apply W's blocks.
    """
    lam = spectrum.position_values
    part = d.partition
    new_vals = lam - np.diagonal(d.data)
    eig = []  # (positions, blocks of A - D, blocks of W) per width class
    if not _is_diagonal(d):
        for _, pos in part.wide_classes():
            blocks = (lam[pos][:, :, None] * np.eye(pos.shape[1])
                      - d.data[pos[:, :, None], pos[:, None, :]])
            new_vals[pos], w = np.linalg.eig(blocks)
            eig.append((pos, blocks, w))

    scale = max(1.0, float(np.abs(new_vals).max()))
    reps, mults, members = _merge_sorted_values(new_vals, scale)
    lo = -(reps.size // 2)
    tilde = Spectrum(np.arange(lo, lo + reps.size), reps, mults)
    if spectral_gap(tilde) < 1e-9 * scale:
        raise AssumptionViolationError(
            "re-derived eigenvalues too close to separate reliably"
        )
    perm = np.array([p for grp in members for p in grp])
    inv = np.argsort(perm)

    push_classes, pull_classes = [], []
    info = {"kind": "permutation"}
    if eig:
        # W has singular value 1 on the width-1 groups and those of its blocks
        svals = np.concatenate([np.ones(int(part.narrow.any()))]
                               + [np.linalg.svd(w, compute_uv=False).ravel() for _, _, w in eig])
        with np.errstate(divide="ignore", over="ignore"):
            cond = float(svals.max() / svals.min())
        if not math.isfinite(cond) or cond > _REBASE_COND_LIMIT:
            raise AssumptionViolationError(
                f"rebase eigenbasis too ill-conditioned (cond={cond:.3e})"
            )
        # Frobenius norm of (A - D) W - W diag(t), an upper bound of its
        # operator norm; its entries outside the blocks are exact zeros
        t = tilde.position_values[inv]
        check = float(np.linalg.norm(np.concatenate(
            [(new_vals - t)[part.narrow]]
            + [(blocks @ w - w * t[pos][:, None, :]).ravel() for pos, blocks, w in eig]
        )))
        if check > _REBASE_RESIDUAL_LIMIT * scale:
            raise AssumptionViolationError(f"rebase diagonalization residual {check:.3e}")
        for pos, _, w in eig:
            w_inv = np.linalg.inv(w)
            push_classes.append((inv[pos], w_inv, w))
            pull_classes.append((pos, w, w_inv))
        info = {"kind": "eigenbasis", "condition": cond, "residual": check}
    forward, back = np.ix_(perm, perm), np.ix_(inv, inv)
    push = lambda mat: _conjugate(mat[forward], push_classes)
    pull = lambda mat: _conjugate(mat[back], pull_classes)
    return tilde, push, pull, info, perm


def _rebased(spectrum: Spectrum, one: _StageOne, d: BlockMatrix, *, margin: float,
             tol: float, max_iter: int) -> SimilarityResult:
    """Stage two of mt4 in the eigenbasis of A - D, pulled back."""
    prelim = one.prelim
    tilde, push, pull, frame_info, perm = _rebase_frame(spectrum, d)
    # the pushed perturbation goes in unbound, so it is freed with stage two
    fp, selection = _stage_two(
        BlockMatrix(Partition.trivial(tilde), push((prelim.diagonal - d + prelim.remainder).data)),
        start=0, margin=margin, tol=tol, max_iter=max_iter)
    # tag estimates with the index each tilde slot descended from, so the
    # labels mean the same thing they do in the single-frame pipelines
    source = spectrum.indices[spectrum.position_entry[perm]]
    return _result(
        "mt4", spectrum, one.b, fp, smoother=prelim.smoother, frame=(tilde, pull, source),
        certificates={**one.certificates, "rebase": frame_info, "coarsening": selection},
        stages=[*one.stages, {"name": "rebase", **frame_info, "new_dim": int(tilde.dim)},
                {"name": "coarsening", **selection}],
    )


def pipeline_rebase(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    margin: float = 0.9,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """Two-stage pipeline with an eigenbasis change between the stages.

    After the preliminary transform a designated diagonal part D moves
    into the free operator; the remaining perturbation (JB - D) + B0 is
    rewritten in the eigenbasis of A - D, whose simple sorted spectrum
    gets fresh contiguous indices, and the coarse weighted fixed point
    runs there.  Results are pulled back to the original frame.

    D is the diagonal of JB, a permutation frame.  Only if that attempt
    fails a method condition and JB is not diagonal, D is all of JB; the
    attempts share stage one, and if both fail the first error is raised.
    """
    one = _stage_one(spectrum, b)
    jb = one.prelim.diagonal
    diag = BlockMatrix(jb.partition, np.diag(np.diagonal(jb.data)))
    kw = {"margin": margin, "tol": tol, "max_iter": max_iter}
    try:
        return _rebased(spectrum, one, diag, **kw)
    except MethodConditionError as first:
        if _is_diagonal(jb):
            raise
        try:
            return _rebased(spectrum, one, jb, **kw)
        except MethodConditionError:
            raise first from None


PIPELINES = {
    "mt1": pipeline_contraction,
    "mt2": pipeline_block_norm,
    "mt3": pipeline_coarse,
    "mt4": pipeline_rebase,
}
