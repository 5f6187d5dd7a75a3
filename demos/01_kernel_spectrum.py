"""
Rank-one smooth kernel: spectrum of a perturbed derivative
==========================================================

The integral operator with kernel K(s, t) = s + t perturbs the
differentiation operator on the circle.  Its matrix in the exponential
basis has one dense row, one dense column, and nothing else, with total
Hilbert-Schmidt mass sqrt(7/6).  The contraction pipeline conjugates
the perturbed operator into block-diagonal form; the diagonal of that
form lists the perturbed eigenvalues directly.
"""

import numpy as np

from simspec.models import kernel_model
from simspec.similarity import pipeline_contraction
from simspec.verify import (
    build_spectrum_report,
    match_spectra,
    oracle_eigenvalues,
    values_by_position,
)
from simspec.weighted import decay_weights

# -- build the truncated problem ----------------------------------------------

half_width = 48
mdl = kernel_model(half_width)
b = mdl.perturbation

print(f"window half-width {half_width}, dimension {mdl.spectrum.dim}")
print(f"hs(B) = {b.hs():.9f}  (limit sqrt(7/6) = {np.sqrt(7/6):.9f})")

# -- run the similarity transform ---------------------------------------------

result = pipeline_contraction(mdl.spectrum, b)
cert = result.certificates["contraction"]
print(f"contraction q = {cert['contraction_q']:.4f} "
      f"(needs < 1), {result.iterations['fixed_point']} iterations")
print(f"similarity residual {result.residual:.2e} "
      f"on scale {result.residual_scale:.2e}")

# -- compare against a dense eigenvalue solve -----------------------------------

lam = mdl.spectrum.position_values
oracle = oracle_eigenvalues(np.diag(lam) - b.dense())
est_values = np.array([z for _, z in result.eigenvalue_estimates])
dev = match_spectra(est_values, oracle).max_abs_deviation
print(f"worst estimate deviation from the dense solve: {dev:.2e}")

# -- the deviation sequence and its two-term expansion ---------------------------

report = build_spectrum_report(
    mdl.spectrum,
    values_by_position(mdl.spectrum, est_values),
    values_by_position(mdl.spectrum, oracle),
    first_order=mdl.first_order, second_order=mdl.second_order,
    weights=decay_weights(b),
)


def c2s(pair):
    re, im = pair
    return f"{re:+.3e} {im:+.3e}i"


print("\n  n    lambda_n - mu_n             p_n + q_n (expansion)")
for row in report.rows:
    n = row["index"]
    if abs(n) in (1, 2, 3, 8):
        p, q = row["first_order"], row["second_order"]
        expansion = (p[0] + q[0], p[1] + q[1])
        print(f"{n:+4d}   {c2s(row['b'])}   {c2s(expansion)}")
print(f"\ninterior weighted deviation mass {report.tail_stats['weighted_sum']:.6f}")
print(f"matching quality (largest pairing distance) {report.matching_quality:.4f}")
