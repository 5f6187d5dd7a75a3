"""End-to-end acceptance gate.

Each test covers one shipped guarantee and prints a single PASS/FAIL
line (visible with -v through the test name, and on stdout with -s).
The expensive eigenvalue-oracle runs are shared through the session
cache in conftest.
"""

import json
import math
import time

import numpy as np
import pytest

from simspec.cli import main
from simspec.models import (
    dirac_model,
    hill_model,
    involution_model,
    involution_offdiag_energy,
    kernel_model,
    random_trig_coeffs,
)
from simspec.opmatrix import spectral_gap
from simspec.similarity import (
    fixed_point,
    pipeline_coarse,
    pipeline_contraction,
    pipeline_block_norm,
    pipeline_rebase,
)
from simspec.transforms import block_diagonal, commutator_inverse
from simspec.verify import (
    charpoly_eigenvalues,
    match_spectra,
    oracle_eigenvalues,
    projection_compare,
)
from simspec.weighted import decay_weights, factorize


ROOT_MASS = math.sqrt(7.0 / 6.0)

# (criterion, ok, detail) per _report call; conftest prints one line per
# criterion in the terminal summary, so the verdicts survive output capture
RESULTS = []


def _report(num, ok, detail):
    RESULTS.append((int(num), bool(ok), detail))
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _paired_deviations(model, oracle_vals):
    """b_n = lambda_n - (oracle eigenvalue matched to lambda_n), by index."""
    spec = model.spectrum
    lam = spec.position_values
    m = match_spectra(lam, oracle_vals)
    paired = np.empty(spec.dim, dtype=complex)
    for i, j in m.pairs:
        paired[i] = oracle_vals[j]
    out = {}
    for n in spec.indices:
        p = spec.positions_of(int(n))[0]
        out[int(n)] = lam[p] - paired[p]
    return out


class TestCriterion01KernelMass:
    def test_truncated_mass_and_runtime(self):
        t0 = time.perf_counter()
        mdl = kernel_model(512)
        hs = mdl.perturbation.hs()
        elapsed = time.perf_counter() - t0
        ok = (ROOT_MASS - 1e-3 <= hs <= ROOT_MASS) and elapsed < 5.0
        _report(1, ok, f"hs(B)={hs:.9f} target ({ROOT_MASS - 1e-3:.9f}, "
                       f"{ROOT_MASS:.9f}], {elapsed:.2f}s")


class TestCriterion02SplitBounds:
    def _split_report(self, tmp_path, k):
        cfg = {"truncation": {"half_width": 64}, "split_k": k, "oracle": False}
        p = tmp_path / f"cfg{k}.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / f"out{k}"
        assert main(["split", "--config", str(p), "--out", str(out), "--quiet"]) == 0
        return json.loads((out / "report.json").read_text())

    def test_central_bounds(self, tmp_path):
        rep = self._split_report(tmp_path, 0)
        pb = rep["published_bounds"]
        ok = (abs(pb["bound_e"] - 0.0302) <= 1e-3
              and abs(pb["bound_b2"] - 0.0071) <= 5e-4)
        _report(2, ok, f"k=0 bound_e={pb['bound_e']:.6f}, "
                       f"bound_b2={pb['bound_b2']:.6f}")

    def test_nonzero_index_bounds(self, tmp_path):
        worst = 0.0
        for k in (1, 2, 5):
            rep = self._split_report(tmp_path, k)
            pb = rep["published_bounds"]
            g = 2 * np.pi * k - 1.0
            amp = 1.0 + 1.0 / (4 * np.pi**2 * k * g * g)
            disp_e = amp / (2 * np.pi * g)
            disp_b2 = amp / (4 * np.pi**2 * k * k * g)
            worst = max(worst,
                        abs(pb["bound_e_taylor"] - disp_e),
                        abs(pb["bound_b2_taylor"] - disp_b2))
        _report(2, worst <= 1e-10, f"k in (1,2,5) worst display deviation {worst:.2e}")


class TestCriterion03OracleContainment:
    def test_central_eigenvalue(self, tmp_path, oracle_cache):
        mdl, vals = oracle_cache(("kernel", 256), lambda: kernel_model(256))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": {"half_width": 256},
                                   "oracle": False}))
        out = tmp_path / "out"
        assert main(["split", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rep = json.loads((out / "report.json").read_text())
        lam_prime = complex(*rep["lambda_prime"])
        budget = rep["published_bounds"]["bound_b2"] + 1e-3
        nearest = vals[int(np.argmin(np.abs(vals - (-1.0))))]
        dev = abs(nearest - lam_prime)
        _report(3, dev <= budget,
                f"|oracle({nearest:.6f}) - lambda'({lam_prime:.6f})| = "
                f"{dev:.2e} <= {budget:.2e}")

    def test_cubic_decay(self, oracle_cache):
        _, vals = oracle_cache(("kernel", 256), lambda: kernel_model(256))
        d = []
        for k in range(1, 9):
            target = 2j * np.pi * k
            nearest = vals[int(np.argmin(np.abs(vals - target)))]
            d.append(abs(nearest - target))
        c = d[0]
        ratios = [d[k - 1] / (c / k**3) for k in range(1, 9)]
        ok = all(0.25 <= r <= 4.0 for r in ratios)
        _report(3, ok, f"decay ratios against C k^-3: "
                       f"[{min(ratios):.3f}, {max(ratios):.3f}]")


class TestCriterion04ContractionCertificate:
    def test_fixed_point_convergence(self, kernel64):
        gamma = 1.0 / spectral_gap(kernel64.spectrum)
        res = fixed_point(kernel64.perturbation, gamma=gamma,
                          norm_fn=lambda m: m.hs(), norm_name="full",
                          tol=1e-12, max_iter=200)
        limit = 4.0 * (1.0 / (2 * np.pi)) * ROOT_MASS + 0.05
        ok = res.observed_ratio <= limit and res.iterations <= 60
        _report(4, ok, f"ratio {res.observed_ratio:.4f} <= {limit:.4f}, "
                       f"{res.iterations} iterations")


class TestCriterion05SimilarityResidual:
    CASES = [
        ("kernel mt1", lambda: kernel_model(64), pipeline_contraction),
        ("kernel mt3", lambda: kernel_model(64), pipeline_coarse),
        ("involution mt2",
         lambda: involution_model(32, 0.3, {0: 0.06, 1: 0.03 - 0.015j, -1: 0.03 + 0.015j}),
         pipeline_block_norm),
        ("hill mt3",
         lambda: hill_model(32, 0.5, {1: 5.0, -1: 5.0}),
         pipeline_coarse),
        ("dirac mt4",
         lambda: dirac_model(24, {0: 0.15}, {1: 0.1, -1: 0.1},
                             {0: 0.1}, {2: 0.05, -2: 0.05}),
         pipeline_rebase),
    ]

    @pytest.mark.parametrize("tag,build,pipe", CASES, ids=[c[0] for c in CASES])
    def test_accepted_run_invariants(self, tag, build, pipe):
        mdl = build()
        res = pipe(mdl.spectrum, mdl.perturbation)
        lam = mdl.spectrum.position_values
        scale = float(np.max(np.abs(lam))) + mdl.perturbation.hs()
        hs_v = res.v.hs()
        ok_res = res.residual <= 1e-9 * scale
        ok_off = res.offdiag_residual <= 1e-10 * max(hs_v, 1e-300)
        ref = oracle_eigenvalues(np.diag(lam) - mdl.perturbation.dense())
        got = oracle_eigenvalues(np.diag(lam) - res.v.dense())
        dev = match_spectra(ref, got).max_abs_deviation
        ok = ok_res and ok_off and dev <= 1e-8
        _report(5, ok, f"{tag}: residual {res.residual:.2e} <= {1e-9 * scale:.2e}, "
                       f"offdiag {res.offdiag_residual:.2e}, spectra {dev:.2e}")


class TestCriterion06HillSecondOrder:
    def test_closed_form_equals_assembled(self, hill128):
        bgb = hill128.perturbation @ commutator_inverse(hill128.perturbation)
        diag = block_diagonal(bgb).dense().diagonal()
        worst = 0.0
        for n in hill128.spectrum.interior_indices():
            p = hill128.spectrum.positions_of(int(n))[0]
            worst = max(worst, abs(hill128.second_order[p] - diag[p]))
        _report(6, worst <= 1e-10, f"max |q_n - diag(J(B Gamma B))_n| = {worst:.2e}")

    def test_second_order_beats_first(self, hill128, oracle_cache):
        mdl, vals = oracle_cache(("hill-acceptance", 128), lambda: hill128)
        devs = _paired_deviations(mdl, vals)
        wins = total = 0
        for n in mdl.spectrum.interior_indices():
            p = mdl.spectrum.positions_of(int(n))[0]
            b = devs[int(n)]
            if abs(b) == 0.0:
                continue
            total += 1
            correction = mdl.first_order[p] + mdl.second_order[p]
            if abs(b - correction) < abs(b):
                wins += 1
        frac = wins / total
        _report(6, frac >= 0.9, f"two-term expansion closer than zero for "
                                f"{wins}/{total} interior indices ({frac:.1%})")


class TestCriterion07InvolutionInequality:
    def test_energy_bound_over_samples(self):
        rng = np.random.default_rng(7_2026)
        worst = -np.inf
        for _ in range(50):
            degree = int(rng.integers(1, 7))
            scale = float(rng.uniform(0.1, 1.5))
            co = random_trig_coeffs(rng, degree=degree, scale=scale, real=True)
            lhs, rhs = involution_offdiag_energy(co, 12)
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs + 1e-12
        _report(7, worst <= 1e-12, f"50 samples, max(lhs - rhs) = {worst:.2e}")


class TestCriterion08Equiconvergence:
    def test_tail_projection_bound_decays(self):
        mdl = kernel_model(48)
        res = pipeline_contraction(mdl.spectrum, mdl.perturbation)
        w = decay_weights(mdl.perturbation)
        uw = factorize(res.u, w)
        part = res.u.partition
        lhs_prev = np.inf
        monotone = bounded = True
        for level in range(4, 33):
            sigma = [n for n in mdl.spectrum.indices if abs(int(n)) >= level]
            out = projection_compare(res.u, part, sigma, w.alpha_of(level),
                                     weighted_norm=uw)
            bounded = bounded and out["ok"]
            monotone = monotone and out["lhs"] <= lhs_prev + 1e-10
            lhs_prev = out["lhs"]
        _report(8, monotone and bounded,
                f"levels 4..32: lhs nonincreasing={monotone}, "
                f"lhs<=rhs everywhere={bounded}, final lhs {lhs_prev:.2e}")


class TestCriterion09WeightedTailStability:
    def test_weighted_deviation_sum_stable(self, oracle_cache):
        sums = {}
        for half in (128, 256):
            mdl, vals = oracle_cache(("kernel", half), lambda h=half: kernel_model(h))
            devs = _paired_deviations(mdl, vals)
            w = decay_weights(mdl.perturbation)
            total = 0.0
            for n in range(-64, 65):
                total += abs(devs[n]) ** 2 / w.alpha_of(abs(n)) ** 2
            sums[half] = total
        change = abs(sums[256] - sums[128]) / sums[128]
        _report(9, change <= 0.05,
                f"sum at N=128 {sums[128]:.6e}, N=256 {sums[256]:.6e}, "
                f"change {change:.2%}")


class TestCriterion10DualOracle:
    def test_oracles_agree(self):
        rng = np.random.default_rng(10_2026)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= max(1.0, np.abs(a).max())
            qr_vals = oracle_eigenvalues(a, cross_check=False)
            poly_vals = charpoly_eigenvalues(a)
            worst = max(worst, match_spectra(qr_vals, poly_vals).max_abs_deviation)
        _report(10, worst <= 1e-10, f"100 matrices, worst deviation {worst:.2e}")

    def test_verify_battery_runtime(self, tmp_path):
        t0 = time.perf_counter()
        code = main(["verify", "--out", str(tmp_path), "--quiet"])
        elapsed = time.perf_counter() - t0
        ok = code == 0 and elapsed < 60.0
        _report(10, ok, f"cmd_verify exit {code} in {elapsed:.2f}s (< 60s)")
