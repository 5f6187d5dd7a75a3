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
transformed perturbation.  The transform takes one LU solve, and both
similarity residuals, the transform's and the result's, are taken in
commutator form, [A, U] - B - BU + V + UV, with no I + U formed.

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
m for pipeline_coarse) and runs the weighted fixed point at k.  The
stages return their pieces (the preliminary transform and its scan log,
the mt4 frame, the coarsening selection, the fixed point), and one
result assembly serves all four pipelines: it alone writes the stage
entries and certificates, takes U2 = G X* and V2 = J X* from the last
fixed point, brings them back to the frame of A, composes
U = G + U2 + G U2 after a preliminary transform, measures the
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
    NotInvertibleError,
    PartitionMismatchError,
)
from .opmatrix import (
    COND_LIMIT,
    INV_RESIDUAL_LIMIT,
    BlockMatrix,
    Partition,
    Spectrum,
    gap_inverse_square_sum,
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
    "iterate",
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
IDENTITY_SLACK = 1e-10


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


def iterate(phi, x, dist, *, tol: float, scale: float, max_iter: int, what: str):
    """Iterate ``phi`` from ``x`` until a step ``dist(phi(x), x)`` is at most
    ``tol * scale``; return the last iterate and the steps.  A run cut at
    ``max_iter`` raises, naming the ratio of its last two steps."""
    steps = []
    for _ in range(max_iter):
        x_next = phi(x)
        steps.append(dist(x_next, x))
        x = x_next
        if steps[-1] <= tol * max(scale, 1e-300):
            return x, steps
    last = steps[-1] / steps[-2] if len(steps) > 1 and steps[-2] > 0.0 else None
    raise NonConvergenceError(f"{what} in {max_iter} iterations", last_ratio=last)


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
    # contraction_step is looked up at each step, where a tracer may wrap it
    x, steps = iterate(lambda z: contraction_step(z, b), BlockMatrix.zeros(b.partition),
                       lambda new, old: norm_fn(new - old), tol=tol, scale=norm_b,
                       max_iter=max_iter, what="fixed point not reached")
    # the largest ratio of consecutive steps, read left to right from 0
    certificate["observed_ratio"] = float(
        max([0.0] + [s / p for p, s in zip(steps, steps[1:]) if p > 1e-300]))

    drift = norm_fn(x - b)
    if drift > 3.0 * norm_b * (1.0 + _BALL_SLACK):
        raise InvariantBreachError(
            f"fixed point left the guaranteed ball: {drift!r} > 3 * {norm_b!r}"
        )
    u, v = commutator_inverse(x), block_diagonal(x)
    resid = (v - block_diagonal_of_product(b, u) - block_diagonal(b)).hs()
    if resid > IDENTITY_SLACK * max(1.0, b.hs()):
        raise InvariantBreachError(f"diagonal identity residual {resid!r} too large")
    return FixedPointResult(u, v, len(steps), steps, certificate, float(resid))


# -- preliminary transform ----------------------------------------------


@dataclass
class PreliminaryResult:
    """A - B rewritten as A - Q, Q = JB + B0, through the similarity I + GB."""

    smoother: BlockMatrix
    q: BlockMatrix
    smoother_op_norm: float
    residual: float


def preliminary_transform(b: BlockMatrix, g: BlockMatrix, gop: float) -> PreliminaryResult:
    """Conjugate A - B by I + GB, splitting off the diagonal blocks of B.

    ``g`` is GB and ``gop`` its exact operator norm, as the smoothing
    scan computed them; G and J act on the partition of ``b``.  Valid
    once ||GB||_op < 1; then A - B is similar to A - Q, Q = JB + B0, with
    B0 the solution of (I + GB) B0 = B GB - (GB)(JB).

    The scan's norm alone decides invertibility: kappa_2(I + GB) <=
    (1 + c) / (1 - c) for c = ||GB||_op, refused above ``COND_LIMIT``.
    B0 takes one LU solve, whose residual (I + GB) B0 - rhs takes the
    one further product and is gated relative to rhs.  The similarity
    residual of the rewriting, ([A, GB] - B + JB) + ((I + GB) B0 - rhs),
    reuses it and is returned for the report.
    """
    if not gop < 1.0:
        raise ConditionViolationError(
            "preliminary transform needs ||GB||_op < 1", lhs=gop, rhs=1.0
        )
    cond = (1.0 + gop) / (1.0 - gop)
    if cond > COND_LIMIT:
        raise NotInvertibleError("I + GB is numerically singular", cond=cond)
    rhs = (b @ g).data - times_block_diagonal(g, b).data
    b0 = BlockMatrix(g.partition, np.linalg.solve(np.eye(len(rhs)) + g.data, rhs))
    resid = b0.data + (g @ b0).data - rhs
    solve_residual, rhs_norm = np.linalg.norm(resid), np.linalg.norm(rhs)
    if not solve_residual <= INV_RESIDUAL_LIMIT * rhs_norm:
        raise NotInvertibleError(
            f"solve residual {solve_residual:.3e} above {INV_RESIDUAL_LIMIT:g} "
            f"times ||rhs||_F = {rhs_norm:.3e}", cond=cond)
    # [A, GB] - B + JB: the commutator entrywise, less B off its blocks
    resid += _commutator(b.partition.spectrum, g) - off_diagonal_part(b).data
    q = BlockMatrix(g.partition, block_diagonal(b).data + b0.data)
    return PreliminaryResult(g, q, float(gop), float(np.linalg.norm(resid)))


def _commutator(spectrum: Spectrum, u: BlockMatrix) -> np.ndarray:
    """[A, U] = A U - U A, A = diag(lambda), as a fresh array."""
    lam = spectrum.position_values
    out = lam[:, None] - lam[None, :]
    out *= u.data
    return out


# -- result assembly ------------------------------------------------------


def similarity_residual(spectrum: Spectrum, b: BlockMatrix, u: BlockMatrix, v: BlockMatrix) -> float:
    """Frobenius norm of (A - B)(I + U) - (I + U)(A - V), accumulated in
    one array in commutator form, [A, U] - B - BU + V + UV: no I + U is
    formed, and the rounding scales with B, U and V, not with A."""
    r = _commutator(spectrum, u)
    r -= b.data
    r -= b.data @ u.data
    r += v.data
    r += u.data @ v.data
    return float(np.linalg.norm(r))


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
    one batched ``eigvals``.  A block whose positions carry more than one
    tag pairs its eigenvalues to its indices by closeness to the free
    eigenvalues; a block of one tag needs no pairing, since the final
    (tag, re, im) sort orders its values.  ``labels``, an index array,
    overrides the tag per position (a relabeled working spectrum).
    """
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
        block_vals = np.linalg.eigvals(blocks)
        for i in np.flatnonzero(np.ptp(labels[pos], axis=1) > 0):
            match = match_spectra(lam[pos[i]], block_vals[i])
            block_vals[i] = block_vals[i][[j for _, j in match.pairs]]
        tags.append(labels[pos].ravel())
        vals.append(block_vals.ravel())
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
    prelim: PreliminaryResult | None = None,
    scan: list | None = None,
    frame: tuple | None = None,
    selection: dict | None = None,
) -> SimilarityResult:
    """The result of a run whose last fixed point is ``fp``; the only
    writer of stage entries and certificates.

    ``b`` is B on the index-per-group partition; U2 = G X* and V2 = J X*
    act in the frame of X*.  Each optional piece is an earlier stage,
    logged in the order the stages ran:

    * ``prelim`` and its ``scan`` log: the smoothing scan and the
      preliminary transform I + GB, whose G composes U = G + U2 + G U2;
    * ``frame`` ``(tilde, pull, labels, info)``: the mt4 change of frame,
      which brings U2 and V2 to the frame of A, where A - V2 becomes
      pull(diag(tilde) - V2);
    * ``selection``: the coarsening of stage two.

    The estimates and the off-diagonal residual are read from V2 in the
    frame of X*, whose positions ``labels`` tag.
    """
    base = b.partition
    u, v, labels = fp.u, fp.v, None
    certificates, stages = {}, []
    if prelim is not None:
        smoothing = {"radius": prelim.smoother.partition.radius,
                     "smoother_op_norm": prelim.smoother_op_norm}
        certificates["smoothing"] = smoothing
        stages += [{"name": "smoothing_scan", "scan": scan},
                   {"name": "preliminary", **smoothing, "residual": prelim.residual}]
    if frame is not None:
        tilde, pull, labels, info = frame
        certificates["rebase"] = info
        stages.append({"name": "rebase", **info, "new_dim": int(tilde.dim)})
        u = BlockMatrix(base, pull(u.data))
        v = BlockMatrix(base, np.diag(spectrum.position_values)
                        - pull(np.diag(tilde.position_values) - v.data))
    if selection is not None:
        certificates["coarsening"] = selection
        stages.append({"name": "coarsening", **selection})
    if prelim is not None:
        g, u = _move(prelim.smoother, base), _move(u, base)
        u = g + u + g @ u
    certificates["contraction"] = fp.certificate
    stages.append({"name": "fixed_point", "iterations": fp.iterations,
                   "certificate": fp.certificate, "identity_residual": fp.identity_residual})
    return SimilarityResult(
        pipeline=pipeline,
        u=u,
        v=v,
        certificates=certificates,
        iterations={"fixed_point": fp.iterations},
        residual=similarity_residual(spectrum, b, u, _move(v, base)),
        residual_scale=float(np.abs(spectrum.position_values).max() + b.hs()),
        offdiag_residual=off_diagonal_part(fp.v).hs(),
        eigenvalue_estimates=block_eigenvalue_estimates(fp.v, labels=labels),
        stages=stages,
    )


# -- pipelines -------------------------------------------------------------


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
    bb = _move(b, Partition.trivial(spectrum))
    fp = fixed_point(
        bb,
        gamma=1.0 / spectral_gap(spectrum),
        norm_fn=lambda z: z.hs(),
        norm_name="hs",
        tol=tol, max_iter=max_iter,
    )
    return _result("mt1", spectrum, bb, fp)


def pipeline_block_norm(
    spectrum: Spectrum,
    b: BlockMatrix,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SimilarityResult:
    """Fixed point in the blockwise spectral norm; certificate through
    the inverse square gap sum instead of the worst single gap."""
    bb = _move(b, Partition.trivial(spectrum))
    fp = fixed_point(
        bb,
        gamma=math.sqrt(gap_inverse_square_sum(spectrum)),
        norm_fn=lambda z: z.hs_sigma(),
        norm_name="hs_sigma",
        tol=tol, max_iter=max_iter,
    )
    return _result("mt2", spectrum, bb, fp)


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


def _stage_one(spectrum: Spectrum, b: BlockMatrix):
    """B on the trivial partition, the preliminary similarity I + GB at
    the smallest smoothing radius, and the scan log."""
    bb = _move(b, Partition.trivial(spectrum))
    g, gop, scan = _scan_smoothing_radius(spectrum, bb)
    return bb, preliminary_transform(_move(bb, g.partition), g, gop), scan


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
    bb, prelim, scan = _stage_one(spectrum, b)
    fp, selection = _stage_two(_move(prelim.q, bb.partition),
                               start=prelim.smoother.partition.radius,
                               margin=margin, tol=tol, max_iter=max_iter)
    return _result("mt3", spectrum, bb, fp, prelim=prelim, scan=scan, selection=selection)


# -- rebase pipeline -------------------------------------------------------

_REBASE_COND_LIMIT = 1e10
_REBASE_RESIDUAL_LIMIT = 1e-8


def _merge_sorted_values(vals: np.ndarray, scale: float):
    """Sort by (re, im) and merge near-duplicates; return the reps, their
    mults and the sort order, in which each merged run is consecutive."""
    order = np.lexsort((vals.imag, vals.real))
    tol = 1e-12 * scale
    reps, mults = [], []
    for z in vals[order]:
        if reps and abs(z - reps[-1]) <= tol:
            mults[-1] += 1
            reps[-1] += (z - reps[-1]) / mults[-1]
        else:
            reps.append(complex(z))
            mults.append(1)
    return np.array(reps), np.array(mults), order


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
    reps, mults, perm = _merge_sorted_values(new_vals, scale)
    lo = -(reps.size // 2)
    tilde = Spectrum(np.arange(lo, lo + reps.size), reps, mults)
    if spectral_gap(tilde) < 1e-9 * scale:
        raise AssumptionViolationError(
            "re-derived eigenvalues too close to separate reliably"
        )
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


def _rebased(spectrum: Spectrum, prelim: PreliminaryResult, d: BlockMatrix, *,
             margin: float, tol: float, max_iter: int):
    """One mt4 attempt: stage two in the eigenbasis of A - D.

    Returns the fixed point, the coarsening selection and the frame
    ``(tilde, pull, labels, info)`` that brings the fixed point back.
    """
    tilde, push, pull, info, perm = _rebase_frame(spectrum, d)
    # the pushed perturbation goes in unbound, so it is freed with stage two
    fp, selection = _stage_two(
        BlockMatrix(Partition.trivial(tilde), push((prelim.q - d).data)),
        start=0, margin=margin, tol=tol, max_iter=max_iter)
    # tag estimates with the index each tilde slot descended from, so the
    # labels mean the same thing they do in the single-frame pipelines
    source = spectrum.position_index[perm]
    return fp, selection, (tilde, pull, source, info)


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
    into the free operator; the remaining perturbation Q - D, Q = JB + B0,
    is rewritten in the eigenbasis of A - D, whose simple sorted spectrum
    gets fresh contiguous indices, and the coarse weighted fixed point
    runs there.  Results are pulled back to the original frame.

    D is the diagonal of JB, which is that of B: a permutation frame.
    Only if that attempt fails a method condition and JB is not diagonal,
    D is all of JB, built only then.  The attempts share stage one; if
    both fail the first error is raised, otherwise the result is
    assembled once, after the attempt that certified, with no attempt's
    D alive.
    """
    bb, prelim, scan = _stage_one(spectrum, b)
    kw = {"margin": margin, "tol": tol, "max_iter": max_iter}
    try:
        # D = diag(JB) = diag(B) goes in unbound, so it is freed with its attempt
        fp, selection, frame = _rebased(
            spectrum, prelim, BlockMatrix(prelim.q.partition, np.diag(np.diagonal(bb.data))), **kw)
    except MethodConditionError as first:
        jb = block_diagonal(_move(bb, prelim.q.partition))
        if _is_diagonal(jb):
            raise
        # the traceback would keep the failed attempt's arrays alive
        first.__traceback__ = None
        try:
            fp, selection, frame = _rebased(spectrum, prelim, jb, **kw)
        except MethodConditionError:
            raise first from None
    return _result("mt4", spectrum, bb, fp, prelim=prelim, scan=scan, frame=frame,
                   selection=selection)


PIPELINES = {
    "mt1": pipeline_contraction,
    "mt2": pipeline_block_norm,
    "mt3": pipeline_coarse,
    "mt4": pipeline_rebase,
}
