"""
Eigenvalue asymptotics for periodic model operators
===================================================

Two closing vignettes about the model library itself.

For the Hill-type operator with potential v the deviation of the n-th
eigenvalue from its free value has a closed two-term expansion: the
Fourier coefficient p_n plus a quadratic-in-v correction q_n.  The
expansion is computed straight from the coefficients, with no matrix
assembled, yet it matches a dense eigenvalue solve to leading order.

For the involution-coupled operator the quadratic correction is only
useful if the coupling term B Gamma B stays square-summable; that is a
quartic inequality in the potential, checked here on random draws.
"""

import numpy as np

from simspec.models import (
    hill_model,
    involution_offdiag_energy,
    random_trig_coeffs,
)
from simspec.verify import match_spectra, oracle_eigenvalues

# -- hill: two-term expansion vs dense solve ---------------------------------------

rng = np.random.default_rng(20260816)
coeffs = random_trig_coeffs(rng, degree=8, scale=0.35, real=True)
mdl = hill_model(64, 0.5, coeffs)

lam = mdl.spectrum.position_values
vals = oracle_eigenvalues(np.diag(lam) - mdl.perturbation.dense())
match = match_spectra(lam, vals)
paired = np.empty(mdl.spectrum.dim, dtype=complex)
for i, j in match.pairs:
    paired[i] = vals[j]

print("   n    b_n = lambda_n - mu_n    p_n + q_n       leftover")
for n in (1, 2, 4, 8, 16, 32):
    p = mdl.spectrum.positions_of(n)[0]
    b = lam[p] - paired[p]
    two = mdl.first_order[p] + mdl.second_order[p]
    print(f"{n:4d}    {b.real:+.8f}           {two.real:+.8f}     "
          f"{abs(b - two):.2e}")

# -- involution: quartic coupling inequality ----------------------------------------

print("\nquartic coupling bound on random real potentials")
print(" degree   lhs          rhs          lhs/rhs")
for trial in range(5):
    degree = int(rng.integers(1, 7))
    co = random_trig_coeffs(rng, degree=degree, scale=0.8, real=True)
    lhs, rhs = involution_offdiag_energy(co, 12)
    print(f"{degree:6d}   {lhs:.6e}   {rhs:.6e}   {lhs / rhs:.4f}")
