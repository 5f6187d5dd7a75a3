"""
Double eigenvalues: the Dirac system and the rebased pipeline
=============================================================

The one-dimensional Dirac operator with a four-potential matrix has
free eigenvalues 2 pi n, each of multiplicity two.  Two things make it
awkward for the basic transform: the double eigenvalues force genuine
2x2 blocks, and the potential only decays after a gauge change.

The rebased pipeline runs a preliminary transform, rediagonalizes the
shifted free part so its spectrum is indexed contiguously, finishes
with a weighted fixed point there, and pulls the answer back to the
original frame.  Each double eigenvalue splits into a nearby pair.
"""

import numpy as np

from simspec.models import dirac_model
from simspec.similarity import pipeline_rebase
from simspec.verify import match_spectra, oracle_eigenvalues

v1 = {0: 0.15, 1: 0.08, -1: 0.08}
v2 = {1: 0.1, -1: 0.1}
v3 = {0: 0.1}
v4 = {2: 0.05, -2: 0.05}

# -- gauge handling ---------------------------------------------------------------

plain = dirac_model(24, v1, v2, v3, v4, gauge=False)
gauged = dirac_model(24, v1, v2, v3, v4, gauge=True)
print(f"hs(B) without gauge change {plain.perturbation.hs():.4f}, "
      f"with {gauged.perturbation.hs():.4f}")

# -- run and inspect the paired spectrum --------------------------------------------

result = pipeline_rebase(gauged.spectrum, gauged.perturbation)
print(f"stages: {' -> '.join(s['name'] for s in result.stages)}")
print(f"residual {result.residual:.2e} on scale {result.residual_scale:.2e}")

print("\n  n    free 2 pi n   pair of perturbed eigenvalues")
for n in (0, 1, 2):
    pair = sorted(z.real for k, z in result.eigenvalue_estimates if k == n)
    free = 2 * np.pi * n
    print(f"{n:3d}   {free:+9.5f}    " +
          ", ".join(f"{v:+.5f}" for v in pair))

# -- confirm against a dense solve ---------------------------------------------------

lam = gauged.spectrum.position_values
vals = oracle_eigenvalues(np.diag(lam) - gauged.perturbation.dense())
ests = np.array([z for _, z in result.eigenvalue_estimates])
print(f"\nworst deviation from the dense solve "
      f"{match_spectra(vals, ests).max_abs_deviation:.2e}")
