"""
Certified eigenvalue splitting
==============================

Instead of transforming the whole operator at once, the splitting
isolates a single simple eigenvalue and corrects it with a quadratic
fixed point.  The payoff is a certificate: explicit radii bounding how
far the true eigenvalue and eigenvector can sit from the corrected
ones, computed from four norms of the split system.

For the rank-one kernel example those norms have closed forms, so the
certificate can be evaluated with no matrix in sight; the window
build then reproduces it from the truncated matrix.
"""

import numpy as np

from simspec.models import kernel_model, kernel_split_constants
from simspec.splitting import (
    certificate_from_constants,
    split_certificate,
    split_eigenpair,
    split_system,
)
from simspec.verify import oracle_eigenvalues

half_width = 64
mdl = kernel_model(half_width)

# -- closed-form certificates ---------------------------------------------------

print("closed-form certificates (no truncation involved)")
print("  k    m         bound_e      bound_b2")
for k in (0, 1, 2, 5):
    sb = certificate_from_constants(**kernel_split_constants(k))
    print(f"{k:3d}   {sb.m:.5f}   {sb.bound_e:.6f}   {sb.bound_b2:.6f}")

# -- the window route for the central eigenvalue --------------------------------

op = split_system(mdl.spectrum, mdl.perturbation, 0)
wb = split_certificate(op)
print(f"\nwindow certificate at k=0: lhs {wb.certificate['lhs']:.4f} "
      f"<= 1 is {wb.certificate['satisfied']}")
print(f"window column norm {wb.b21_norm:.6f} "
      f"(closed form uses the coefficient value {1 / (2 * np.pi):.6f})")

# -- corrected eigenvalue vs a dense solve ---------------------------------------

res = split_eigenpair(mdl.spectrum, mdl.perturbation, 0)
lam = mdl.spectrum.position_values
vals = oracle_eigenvalues(np.diag(lam) - mdl.perturbation.data)
nearest = vals[int(np.argmin(np.abs(vals - res.lam_prime)))]

print(f"\ncorrected eigenvalue lambda' = {res.lam_prime:.9f} "
      f"after {res.iterations} iterations")
print(f"dense solve finds             {nearest:.9f}")
print(f"deviation {abs(nearest - res.lam_prime):.2e}, "
      f"certified radius for b2 is {res.bounds.bound_b2:.2e}")
print(f"eigenvector correction norm {res.correction_norm:.4f} "
      f"<= bound {res.bounds.bound_e:.4f}")
