"""Peak memory of a pipeline run, counted in dense d x d complex arrays.

A d x d complex array takes 16 d^2 bytes; tracemalloc sees numpy's data
buffers, so the traced peak of a run divided by that size is the number
of such arrays alive at once.  The bounds pin today's figure with a
little room, so that a change that keeps one more d x d table alive
fails here.
"""

import tracemalloc

import pytest

from simspec.models import dirac_model, hill_model, kernel_model
from simspec.similarity import PIPELINES

# the criterion-5 potentials of the dirac benchmark workload
_POTENTIALS = {
    "v1": {0: 0.15},
    "v2": {1: 0.1, -1: 0.1},
    "v3": {0: 0.1},
    "v4": {2: 0.05, -2: 0.05},
}


@pytest.mark.parametrize("build, pipeline, bound", [
    (lambda: dirac_model(32, **_POTENTIALS, gauge=True), "mt4", 13.0),
    (lambda: kernel_model(64), "mt1", 7.0),
    (lambda: hill_model(64, 0.5, {1: 5, -1: 5}), "mt3", 11.0),
], ids=["dirac-gauged-N32-mt4", "kernel-N64-mt1", "hill5-N64-mt3"])
def test_pipeline_peak_in_dense_arrays(build, pipeline, bound):
    model = build()
    d = model.spectrum.dim
    tracemalloc.start()
    try:
        PIPELINES[pipeline](model.spectrum, model.perturbation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * d * d) <= bound
