"""Tests of the benchmark's own output checks and span metrics.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import reference as ref
import tracing
import workloads
from workloads import DIRAC_POTENTIALS, WORKLOADS

from simspec import cli
from simspec.models import dirac_model, hill_model, kernel_model

# the hill case on which the spectrum checks are tested
HILL_COEFFS = {1: 5.0, -1: 5.0}


# -- independent builders ---------------------------------------------------


def test_kernel_builder_matches_program():
    mdl = kernel_model(12)
    lam, b = ref.kernel_matrix(12)
    assert np.array_equal(lam, mdl.spectrum.position_values)
    assert np.allclose(b, mdl.perturbation.dense(), rtol=0, atol=1e-15)


def test_hill_builder_matches_program():
    mdl = hill_model(12, 0.5, HILL_COEFFS)
    lam, b = ref.hill_matrix(12, 0.5, HILL_COEFFS)
    assert np.allclose(lam, mdl.spectrum.position_values, rtol=1e-15, atol=0)
    assert np.array_equal(b, mdl.perturbation.dense())


def test_dirac_builder_matches_ungauged_program():
    mdl = dirac_model(10, **DIRAC_POTENTIALS, gauge=False)
    lam, b = ref.dirac_matrix(10, **DIRAC_POTENTIALS)
    assert np.allclose(lam, mdl.spectrum.position_values, rtol=1e-15, atol=0)
    assert np.array_equal(b, mdl.perturbation.dense())


def test_secular_root_is_the_dense_eigenvalue():
    lam, b = ref.kernel_matrix(40)
    vals = ref.reference_eigenvalues(lam, b)
    root = ref.kernel_eigenvalue_near(40, -1.0)
    assert np.abs(vals - root).min() <= 1e-12


# -- spectrum checks on real program output ------------------------------------


def _analyze(tmp_path, family_cfg, half_width, seed=11):
    cfg = {"schema": 1, "model": family_cfg, "truncation": {"half_width": half_width},
           "pipeline": "auto", "output": {"report": "report.json"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["analyze", "--config", str(path), "--out", str(out), "--seed", str(seed), "--quiet"])
    assert code == 0
    return json.loads((out / "report.json").read_text())


@pytest.fixture(scope="module")
def hill_case(tmp_path_factory):
    report = _analyze(tmp_path_factory.mktemp("hill"),
                      {"family": "hill", "theta": 0.5, "coeffs": {"1": 5, "-1": 5}}, 10)
    lam, b = ref.hill_matrix(10, 0.5, HILL_COEFFS)
    vals = ref.reference_eigenvalues(lam, b)
    gap = np.diff(np.sort(lam.real)).min()
    return report, vals, ref.problem_scale(lam, b), gap


def test_program_output_passes(hill_case):
    report, vals, scale, _ = hill_case
    assert ref.check_certified_analyze(report, "mt3", 11) == []
    _, est = ref.estimates_of(report)
    assert ref.check_spectrum("hill", vals, est, scale) == []


def test_check_fails_when_one_estimate_moves(hill_case):
    report, vals, scale, gap = hill_case
    _, est = ref.estimates_of(report)
    est = est.copy()
    est[len(est) // 2] += 1e-6 * gap
    assert ref.check_spectrum("hill", vals, est, scale)


def test_check_fails_when_an_estimate_is_dropped(hill_case):
    report, vals, scale, _ = hill_case
    _, est = ref.estimates_of(report)
    assert ref.check_spectrum("hill", vals, est[1:], scale)


def test_certificate_checks_catch_breaches(hill_case):
    report = json.loads(json.dumps(hill_case[0]))
    assert ref.check_certified_analyze(report, "mt1", 11)
    assert ref.check_certified_analyze(report, "mt3", 12)
    report["certificates"]["contraction"]["contraction_q"] = 1.0
    assert ref.check_certified_analyze(report, "mt3", 11)
    report = json.loads(json.dumps(hill_case[0]))
    report["invariant_gates"]["similarity_residual"]["satisfied"] = False
    assert ref.check_certified_analyze(report, "mt3", 11)


def test_split_check(tmp_path):
    w = WORKLOADS["kernel-split"]
    cfg = dict(w.config, truncation={"half_width": 64})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["split", "--config", str(path), "--out", str(out), "--seed", "5", "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    lam, b = ref.kernel_matrix(64)
    root, scale = ref.kernel_eigenvalue_near(64, -1.0), ref.problem_scale(lam, b)
    assert ref.check_split(report, root, scale, 5) == []
    report["lambda_prime"][0] += 1e-6
    assert ref.check_split(report, root, scale, 5)


def test_series_check(tmp_path):
    w = WORKLOADS["dirac-mt4"]
    cfg = dict(w.config, truncation={"half_width": 6})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(path), "--out", str(out), "--seed", "5", "--quiet"]) == 0
    assert workloads.check_series(str(out), 26) == []
    assert workloads.check_series(str(out), 25)
    (out / "spectrum.svg").unlink()
    assert workloads.check_series(str(out), 26)


# -- span metrics -----------------------------------------------------------------


def test_layer_metrics_from_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["cli.cmd_analyze", 0.0, 10.0, 0, None],
        ["similarity.pipeline_rebase", 1.0, 8.0, 1, None],
        ["similarity.preliminary", 2.0, 3.0, 2, None],
        ["opmatrix.op_norm", 2.5, 2.6, 3, None],
        ["weighted.decay_weights", 3.5, 4.0, 2, None],
        ["similarity.fixed_point", 4.0, 7.0, 2, None],
        ["similarity.step", 4.0, 5.0, 6, None],
        ["opmatrix.matmul", 4.1, 4.2, 7, 8.0e9],
        ["similarity.step", 5.0, 7.0, 6, None],
        ["opmatrix.op_norm", 8.5, 9.0, 1, None],
    ]
    m = tracing.layer_metrics(spans, {"command": "analyze"})
    assert m["similarity.smoothing_scan_s"] == 1.0
    assert m["similarity.preliminary_s"] == 1.0
    assert m["similarity.rebase_s"] == 0.5
    assert m["similarity.fixed_point_iters"] == 2
    assert m["similarity.step_s"] == 1.5
    assert m["opmatrix.matmul_gflop"] == 8.0
    assert m["opmatrix.op_norm_calls"] == 2
    assert m["opmatrix.op_norm_s"] == pytest.approx(0.6)
    assert m["cli.write_s"] == 1.0
    assert m["splitting.iters"] == 0


def test_tracer_covers_every_binding():
    code = (
        "import tracing; t = tracing.Tracer(); t.install()\n"
        "import simspec, simspec.cli as c, simspec.verify as v, simspec.similarity as s\n"
        "assert c.oracle_eigenvalues is v.oracle_eigenvalues is simspec.oracle_eigenvalues\n"
        "assert s.PIPELINES['mt4'] is s.pipeline_rebase is c.pipeline_rebase\n"
        "assert hasattr(c.oracle_eigenvalues, '__wrapped__')\n"
        "assert hasattr(s.PIPELINES['mt1'], '__wrapped__')\n"
        "c.main(['verify', '--out', os_out, '--quiet'])\n"
        "names = {sp[0] for sp in t.spans}\n"
        "assert {'cli.main', 'verify.oracle', 'similarity.pipeline_contraction'} <= names, names\n"
    )
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.dirname(bench), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench, src]))
    with_out = f"import tempfile; os_out = tempfile.mkdtemp()\n{code}"
    proc = subprocess.run([sys.executable, "-c", with_out], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
