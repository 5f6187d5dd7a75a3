import json
import os

import numpy as np
import pytest

from simspec.cli import (
    build_model,
    default_config,
    load_config,
    main,
    validate_config,
)
from simspec.errors import ParseError


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestConfigValidation:
    def test_defaults_fill_in(self):
        cfg = validate_config({})
        assert cfg["pipeline"] == "auto"
        assert cfg["truncation"]["half_width"] == 32

    def test_unknown_top_key(self):
        with pytest.raises(ParseError) as err:
            validate_config({"modle": {}})
        assert "modle" in str(err.value)

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ParseError) as err:
            validate_config({"truncation": {"half_widht": 8}})
        assert "truncation.half_widht" in str(err.value)

    def test_bad_schema_version(self):
        with pytest.raises(ParseError):
            validate_config({"schema": 99})

    def test_bad_pipeline(self):
        with pytest.raises(ParseError):
            validate_config({"pipeline": "mt9"})

    def test_bad_fraction(self):
        with pytest.raises(ParseError):
            validate_config({"truncation": {"interior_fraction": 0.0}})

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ParseError):
            validate_config({"tolerances": {"fixed_point_tol": True}})

    def test_family_checked(self):
        with pytest.raises(ParseError):
            validate_config({"model": {"family": "unknown"}})


class TestModelBuilding:
    def test_kernel_rejects_coeffs(self, tmp_path):
        cfg = validate_config({"model": {"family": "kernel", "coeffs": {"0": 1.0}}})
        with pytest.raises(ParseError):
            build_model(cfg)

    def test_hill_requires_theta(self):
        cfg = validate_config({"model": {"family": "hill", "coeffs": {"1": 0.5, "-1": 0.5}}})
        with pytest.raises(ParseError):
            build_model(cfg)

    def test_involution_inline_coeffs(self):
        cfg = validate_config({
            "model": {"family": "involution", "theta": 0.25,
                      "coeffs": {"0": 0.3, "1": [0.1, -0.05], "-1": [0.1, 0.05]}},
            "truncation": {"half_width": 6},
        })
        mdl = build_model(cfg)
        assert mdl.name == "involution"
        assert mdl.spectrum.dim == 13

    def test_coeffs_file(self, tmp_path):
        coeffs = tmp_path / "v.csv"
        coeffs.write_text("k,re,im\n1,0.5,0.0\n-1,0.5,0.0\n")
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5, "coeffs_file": "v.csv"},
            "truncation": {"half_width": 6},
        })
        cfg = load_config(path)
        mdl = build_model(cfg)
        assert mdl.name == "hill"

    def test_inline_and_file_exclusive(self, tmp_path):
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 0.5}, "coeffs_file": "v.csv"},
        })
        with pytest.raises(ParseError):
            build_model(load_config(path))

    def test_dirac_potentials(self):
        pot = {"0": 0.2, "1": [0.1, 0.0], "-1": [0.1, 0.0]}
        cfg = validate_config({
            "model": {"family": "dirac",
                      "potentials": {"v1": pot, "v2": pot, "v3": pot, "v4": pot}},
            "truncation": {"half_width": 6},
        })
        mdl = build_model(cfg)
        assert mdl.name == "dirac"
        assert mdl.spectrum.dim == 26


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["analyze", "--config", str(p)]) == 2

    def test_method_condition_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 40.0, "-1": 40.0}},
            "truncation": {"half_width": 6},
            "pipeline": "mt1",
        })
        code = main(["analyze", "--config", path, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        # both sides of the failed condition are visible
        assert "4 * gamma * norm" in err or "lhs" in err

    def test_fault_injection_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "truncation": {"half_width": 8},
            "fault_injection": {"corrupt_v": 0.25},
        })
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 5
        assert "invariant gate" in capsys.readouterr().err

    def test_split_condition_failure_prints_sides(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 30.0, "-1": 30.0}},
            "truncation": {"half_width": 6},
            "split_k": 0,
        })
        code = main(["split", "--config", path, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "lhs=" in err and "rhs=" in err


class TestAnalyzeCommand:
    def test_default_run_and_report_shape(self, tmp_path):
        code = main(["analyze", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("config_echo", "pipeline", "stages", "certificates",
                    "invariant_gates", "spectrum_report", "timings"):
            assert key in report
        assert report["pipeline"] == "mt1"
        assert all(g["satisfied"] for g in report["invariant_gates"].values())
        # small eigenvalues keep the absolute floor of the spectral gate
        assert report["invariant_gates"]["spectra_agree"]["threshold"] == 1e-8
        # complex numbers are [re, im] pairs
        first = report["eigenvalue_estimates"][0]
        assert isinstance(first[0], int) and len(first[1]) == 2
        assert (tmp_path / "timings_wall.json").exists()

    def test_reports_byte_identical(self, tmp_path):
        path = write_config(tmp_path, {
            "model": {"family": "involution", "theta": 0.3,
                      "coeffs": {"0": 0.06, "2": [0.03, 0.0], "-2": [0.03, 0.0]}},
            "truncation": {"half_width": 10},
            "pipeline": "mt2",
        })
        for sub in ("a", "b"):
            os.makedirs(tmp_path / sub, exist_ok=True)
            assert main(["analyze", "--config", path, "--out",
                         str(tmp_path / sub), "--quiet"]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_spectral_gate_scales_with_eigenvalues(self, tmp_path):
        # hill eigenvalues grow like N^2; at N=64 max|lambda| is about 1.6e5
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 5.0, "-1": 5.0}},
            "truncation": {"half_width": 64},
        })
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        gate = report["invariant_gates"]["spectra_agree"]
        top = max(abs(complex(*z)) for _, z in report["eigenvalue_estimates"])
        assert top > 1e5
        assert gate["threshold"] == pytest.approx(1e-12 * top, rel=1e-9)
        assert gate["satisfied"]

    def test_auto_rule_picks_coarse_for_strong_coupling(self, tmp_path):
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 15.0, "-1": 15.0}},
            "truncation": {"half_width": 24},
        })
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pipeline"] == "mt3"
        assert report["pipeline_requested"] == "auto"

    def test_auto_rule_picks_rebase_for_dirac(self, tmp_path):
        pot = {"0": 0.2, "1": [0.08, 0.0], "-1": [0.08, 0.0]}
        path = write_config(tmp_path, {
            "model": {"family": "dirac",
                      "potentials": {"v1": pot, "v2": pot, "v3": pot, "v4": pot}},
            "truncation": {"half_width": 8},
        })
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pipeline"] == "mt4"

    def test_csv_and_svg_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "truncation": {"half_width": 10},
            "output": {"report": "r.json", "csv_dir": "series", "svg": "s.svg"},
        })
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        series = tmp_path / "series"
        for name in ("spectrum_scatter.csv", "deviation_decay.csv",
                     "weight_decay.csv", "spectrum_report.csv"):
            assert (series / name).exists(), name
        svg = (tmp_path / "s.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_oracle_off_skips_spectrum_report(self, tmp_path):
        path = write_config(tmp_path, {"truncation": {"half_width": 8},
                                       "oracle": False})
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["spectrum_report"] is None
        assert "spectra_agree" not in report["invariant_gates"]


class TestSplitCommand:
    def test_report_fields(self, tmp_path):
        path = write_config(tmp_path, {"truncation": {"half_width": 24},
                                       "split_k": 1})
        assert main(["split", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["k"] == 1
        assert report["published_bounds"] is not None
        assert report["window_bounds"]["certificate"]["satisfied"]
        assert report["oracle"]["deviation"] <= 1e-9
        assert len(report["lambda_prime"]) == 2

    def test_pipeline_split_from_analyze(self, tmp_path):
        path = write_config(tmp_path, {"truncation": {"half_width": 16},
                                       "pipeline": "split", "split_k": 0})
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["command"] == "split"


class TestVerifyCommand:
    def test_battery_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "dual_oracle" in names
        assert "pipeline_invariants" in names

    def test_battery_deterministic_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            os.makedirs(tmp_path / sub, exist_ok=True)
            assert main(["verify", "--out", str(tmp_path / sub),
                         "--seed", "77", "--quiet"]) == 0
        a = (tmp_path / "a" / "verify_report.json").read_bytes()
        b = (tmp_path / "b" / "verify_report.json").read_bytes()
        assert a == b
