"""Peak memory of a pipeline run, counted in dense d x d complex arrays.

A d x d complex array takes 16 d^2 bytes; tracemalloc sees numpy's data
buffers, so the traced peak of a run divided by that size is the number
of such arrays alive at once.  The bounds pin today's figure with a
little room, so that a change that keeps one more d x d table alive
fails here.
"""

import json
import tracemalloc

import pytest

from simspec.cli import main
from simspec.models import dirac_model, hill_model, kernel_model
from simspec.similarity import PIPELINES
from test_similarity import jb_only_dirac

# the criterion-5 potentials of the dirac benchmark workload
_POTENTIALS = {
    "v1": {0: 0.15},
    "v2": {1: 0.1, -1: 0.1},
    "v3": {0: 0.1},
    "v4": {2: 0.05, -2: 0.05},
}


@pytest.mark.parametrize("build, pipeline, bound", [
    (lambda: dirac_model(32, **_POTENTIALS, gauge=True), "mt4", 11.2),
    (lambda: kernel_model(64), "mt1", 7.0),
    (lambda: hill_model(64, 0.5, {1: 5, -1: 5}), "mt3", 9.1),
    # the first mt4 attempt fails; it must not stay alive through the
    # second, nor Q and U2 through the assembly
    (jb_only_dirac, "mt4", 11.8),
], ids=["dirac-gauged-N32-mt4", "kernel-N64-mt1", "hill5-N64-mt3", "dirac-jb-only-N16-mt4"])
def test_pipeline_peak_in_dense_arrays(build, pipeline, bound):
    model = build()
    d = model.spectrum.dim
    # the kernel model builds its dense B on the first read: outside the trace
    b = model.perturbation
    tracemalloc.start()
    try:
        PIPELINES[pipeline](model.spectrum, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * d * d) <= bound


def test_kernel_split_builds_no_dense_array(tmp_path):
    # the whole CLI run: config, model, split and report; the generators
    # are d x 2, so one d x d array would be 20 times the bound.  At
    # d > 600 the oracle, on by default, is skipped as in analyze
    d = 1025
    for oracle in ({"oracle": False}, {}):
        config = tmp_path / "split.json"
        config.write_text(json.dumps({
            "schema": 1, "model": {"family": "kernel"}, "truncation": {"half_width": 512},
            "split_k": 0, "output": {"report": "report.json"}, **oracle,
        }))
        tracemalloc.start()
        try:
            code = main(["split", "--config", str(config), "--out", str(tmp_path), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.05 * 16 * d * d, oracle
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["oracle"] is None and report["timings"]["oracle_spectra"] == 0
