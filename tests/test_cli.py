import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from simspec import cli
from simspec.cli import (
    _svg_scatter,
    build_model,
    default_config,
    load_config,
    main,
    validate_config,
)
from simspec.errors import InvalidInputError, ParseError


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestConfigValidation:
    def test_defaults_fill_in(self):
        cfg = validate_config({})
        assert cfg["pipeline"] == "auto"
        assert cfg["truncation"]["half_width"] == 32

    def test_unknown_top_key(self, tmp_path, capsys):
        with pytest.raises(ParseError) as err:
            validate_config({"modle": {}})
        assert "modle" in str(err.value)
        assert err.value.path is None
        # a config file names itself once, at the end of the line
        path = write_config(tmp_path, {"modle": {}})
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {err.value} [{path}]\n"

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

    @pytest.mark.parametrize("family, half_width", [
        ("kernel", 1448),  # dim 2897
        ("dirac", 724),  # two coordinates per index: dim 2898
        ("kernel", 10**12),
    ])
    def test_dimension_cap_refused(self, family, half_width):
        dim = (2 * half_width + 1) * (2 if family == "dirac" else 1)
        with pytest.raises(ParseError, match=f"model dimension {dim} "):
            validate_config({"model": {"family": family},
                             "truncation": {"half_width": half_width}})

    def test_dimension_cap_admits_largest_array(self):
        cfg = validate_config({"truncation": {"half_width": 1447}})  # dim 2895
        assert cfg["truncation"]["half_width"] == 1447


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

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # numpy's generators take no negative seed; refused before any run
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --seed: must be a non-negative integer, got -1" in err
        assert not (tmp_path / "verify_report.json").exists()

    def test_missing_config(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        payloads = {
            "syntax": b"{not json",
            "long_integer": b'{"truncation": {"half_width": 1' + b"0" * 5000 + b"}}",
            "deep_nesting": b"[" * 200000 + b"]" * 200000,
            "undecodable": b"\xff\xfe{",
        }
        for name, payload in payloads.items():
            p = tmp_path / f"{name}.json"
            p.write_bytes(payload)
            assert main(["analyze", "--config", str(p)]) == 2, name

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

    def test_invariant_breach_exit(self, tmp_path, capsys, monkeypatch):
        # a pipeline whose V keeps cross-group mass fails the v_block_diagonal gate
        run = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline", lambda *args: dataclasses.replace(
            run(*args), offdiag_residual=0.25))
        path = write_config(tmp_path, {"truncation": {"half_width": 8}})
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 5
        assert "invariant gate 'v_block_diagonal' failed" in capsys.readouterr().err

    def test_moved_estimate_fails_the_spectral_gate(self, tmp_path, capsys, monkeypatch):
        # the oracle of A - B is compared with the estimates the run reports
        run = cli.run_pipeline

        def moved(*args):
            result = run(*args)
            (k, z), *rest = result.eigenvalue_estimates
            return dataclasses.replace(result, eigenvalue_estimates=[(k, z + 1e-6), *rest])

        monkeypatch.setattr(cli, "run_pipeline", moved)
        path = write_config(tmp_path, {"truncation": {"half_width": 8}})
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 5
        assert "invariant gate 'spectra_agree' failed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("payload, csv_text", [
        ({"model": {"family": "involution", "theta": float("nan"),
                    "coeffs": {"0": 0.3}}}, None),
        ({"model": {"family": "hill", "theta": 0.5, "coeffs": {"1": 0.5, "-1": 0.5}},
          "tolerances": {"fixed_point_tol": float("inf")}}, None),
        ({"model": {"family": "hill", "theta": 0.5,
                    "coeffs": {"1": float("nan"), "-1": 0.5}}}, None),
        ({"model": {"family": "hill", "theta": 0.5,
                    "coeffs": {"1": [0.5, float("-inf")], "-1": 0.5}}}, None),
        ({"model": {"family": "hill", "theta": 0.5, "coeffs_file": "v.csv"}},
         "k,re,im\n1,nan,0.0\n-1,0.5,0.0\n"),
    ], ids=["theta-nan", "tol-infinity", "coeff-nan", "coeff-pair-inf", "csv-nan"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, payload, csv_text):
        # json writes and reads NaN / Infinity; the config must refuse them
        if csv_text is not None:
            (tmp_path / "v.csv").write_text(csv_text)
        payload = {**payload, "truncation": {"half_width": 6}, "pipeline": "mt3"}
        path = write_config(tmp_path, payload)
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    def test_oversize_dimension_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"truncation": {"half_width": 100_000}})
        code = main(["split", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "model dimension 200001" in capsys.readouterr().err

    def test_window_with_no_coarsening_radius_exits_3(self, tmp_path, capsys):
        # coupling so strong that the smoothing scan leaves no radius to try
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.5,
                      "coeffs": {"1": 1e3, "-1": 1e3}},
            "truncation": {"half_width": 8},
            "pipeline": "mt3",
        })
        code = main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "best product inf" in capsys.readouterr().err


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

    def test_rebase_takes_the_eigenbasis_frame(self, tmp_path):
        # the smoothing radius 1 leaves a central block whose designated
        # diagonal part is not diagonal, so mt4 diagonalizes it numerically
        path = write_config(tmp_path, {
            "model": {"family": "hill", "theta": 0.9,
                      "coeffs": {"0": [0.45, -0.38], "1": [-0.13, 3.0], "-1": [-4.0, -2.0]}},
            "truncation": {"half_width": 11},
            "pipeline": "mt4",
        })
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificates"]["rebase"]["kind"] == "eigenbasis"
        assert all(g["satisfied"] for g in report["invariant_gates"].values())

    def test_rebase_falls_back_to_the_whole_diagonal_blocks(self, tmp_path):
        # the diagonal of JB leaves no certified coarsening; all of JB does
        path = write_config(tmp_path, {
            "model": {"family": "dirac", "gauge": False, "potentials": {
                "v1": {"0": 0.18}, "v2": {"-1": [0.01, 0.025], "2": [0.04, -0.05]},
                "v3": {"0": [-0.04, -0.08]},
                "v4": {"-2": -0.04, "-1": [0.07, -0.08], "0": [0.03, 0.01], "2": [0.06, 0.02]}}},
            "truncation": {"half_width": 16},
            "pipeline": "mt4",
        })
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificates"]["rebase"]["kind"] == "eigenbasis"
        assert all(g["satisfied"] for g in report["invariant_gates"].values())

    def test_rebase_reports_the_first_failure_when_both_frames_fail(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model": {"family": "dirac", "gauge": False, "potentials": {
                "v1": {"0": [0.169, 0.062], "1": [-0.153, 0.203], "-1": [-0.04, -0.088]},
                "v2": {"0": [0.147, -0.005]}, "v3": {"0": [0.022, 0.084]},
                "v4": {"0": [0.099, -0.138]}}},
            "truncation": {"half_width": 5},
            "pipeline": "mt4",
        })
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 3
        # the permutation frame's best product; all of JB would give 0.9546...
        assert "(best product 1.961440531799762)" in capsys.readouterr().err

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

    def test_svg_ignores_rounding_noise_off_the_axis(self, tmp_path):
        # a real spectrum with imaginary parts below 1e-12 max|lambda|
        n = np.arange(-10, 11)
        lam = (np.pi * (2 * n - 0.5)) ** 2
        rng = np.random.default_rng(5)
        noise = 1e-12 * lam.max() * rng.uniform(-0.5, 0.5, n.size)
        moved = noise + 5e-13 * rng.choice([-1.0, 1.0], n.size)
        paths = []
        for i, imag in enumerate((noise, moved)):
            pts = list(zip(lam, imag))
            paths.append(tmp_path / f"s{i}.svg")
            _svg_scatter([("a", "#777777", pts), ("b", "#c0392b", pts[::-1])],
                         paths[-1], "spectrum")
        svg = paths[0].read_text()
        assert svg == paths[1].read_text()
        # every data point at one y coordinate (the legend dots have r="4")
        cys = set(re.findall(r'cy="([^"]+)" r="3"', svg))
        assert len(cys) == 1

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

    def test_pipeline_split_from_analyze_builds_the_model_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_build_model(*args, **kwargs):
            calls.append(args)
            return build_model(*args, **kwargs)

        monkeypatch.setattr(cli, "build_model", counting_build_model)
        path = write_config(tmp_path, {"truncation": {"half_width": 16},
                                       "pipeline": "split", "split_k": 0})
        assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 1


class TestVerifyCommand:
    def test_battery_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "dual_oracle" in names
        assert "pipeline_invariants" in names

    def test_raising_check_is_graded(self, tmp_path, monkeypatch):
        # a check that raises is graded by the exit code of its error, and
        # the battery goes on to write the report of every check
        def boom(x):
            raise InvalidInputError("boom")

        monkeypatch.setattr(cli, "commutator_residual", boom)
        assert main(["verify", "--out", str(tmp_path), "--quiet"]) == 2
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report["checks"]) == 7 and not report["passed"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed == [{"name": "commutator_identity", "passed": False, "detail": "boom",
                           "severity": 2}]

    def test_battery_deterministic_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            os.makedirs(tmp_path / sub, exist_ok=True)
            assert main(["verify", "--out", str(tmp_path / sub),
                         "--seed", "77", "--quiet"]) == 0
        a = (tmp_path / "a" / "verify_report.json").read_bytes()
        b = (tmp_path / "b" / "verify_report.json").read_bytes()
        assert a == b


    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        path = write_config(tmp_path, {"truncation": {"half_width": 8}, "seed": 11})
        assert main(["verify", "--config", path, "--out", str(tmp_path),
                     "--seed", "7", "--quiet"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["seed"] == 7
        assert report["config_echo"]["seed"] == 7


# every report opens with the same header; each command adds its body
_HEADER = {"command", "schema", "config_echo"}
_FRAMES = {
    "analyze": ("report.json", {"oracle_seconds"}, _HEADER | {
        "model", "pipeline", "pipeline_requested", "stages", "certificates",
        "invariant_gates", "eigenvalue_estimates", "spectrum_report", "timings"}),
    "split": ("report.json", {"oracle_seconds"}, _HEADER | {
        "model", "pipeline", "k", "lambda", "lambda_prime", "b1", "b2", "iterations",
        "residual", "residual_scale", "correction_norm", "normalized_deviation_bound",
        "window_bounds", "published_bounds", "operator_norm_condition", "oracle", "timings"}),
    "verify": ("verify_report.json", set(), _HEADER | {"seed", "checks", "passed"}),
}


@pytest.mark.parametrize("command", sorted(_FRAMES))
def test_command_frame(tmp_path, capsys, command):
    """Each command's report keys, its clock sidecar and its one wall line."""
    report_name, wall_extra, keys = _FRAMES[command]
    path = write_config(tmp_path, {"truncation": {"half_width": 8}})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / report_name).read_text())
    assert set(report) == keys
    assert report["command"] == command and report["schema"] == cli._SCHEMA_VERSION
    wall = json.loads((out / "timings_wall.json").read_text())
    assert list(wall) == ["wall"]
    assert set(wall["wall"]) == {"total_seconds"} | wall_extra
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("wall ")]) == 1
    assert any(re.fullmatch(r"wall \d+\.\d\ds", line) for line in err)


# -- config fuzzing --------------------------------------------------------------

_HILL = {"family": "hill", "theta": 0.5, "coeffs": {"1": 0.5, "-1": 0.5}}
_POT = {"0": 0.1, "1": 0.05, "-1": 0.05}
# a coefficient file in Latin-1, not UTF-8: 0xe9 is an e with an acute accent
_LATIN1 = b"k,re,im\n0,0.2,0.0\n1,0.1,0.0 # \xe9\n"

_SMALL = st.floats(-50.0, 50.0)
_PAIRS = st.lists(_SMALL, min_size=2, max_size=2)


@st.composite
def _configs(draw):
    def pick(valid, invalid):
        # mostly a valid value, now and then one the CLI has to refuse or survive
        return draw(invalid if draw(st.sampled_from(range(10))) == 9 else valid)

    def coeffs():
        return {str(pick(st.integers(-8, 8), st.sampled_from([10**20, -10**25, 10**400]))):
                pick(st.one_of(_SMALL, _PAIRS), st.floats(allow_nan=False))
                for _ in range(draw(st.integers(0, 3)))}

    # v.csv is a valid coefficient file, bad.csv a malformed one, latin1.csv
    # one that is not UTF-8, missing.csv absent
    files = st.sampled_from(["bad.csv", "latin1.csv", "missing.csv", 3, None, ["v.csv"]])
    family = draw(st.sampled_from(["kernel", "involution", "hill", "dirac"]))
    model = {"family": pick(st.just(family), st.sampled_from([[family], {}, 1, None]))}
    if family in ("involution", "hill"):
        model["theta"] = draw(st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            model["coeffs"] = coeffs()
        else:
            model["coeffs_file"] = pick(st.just("v.csv"), files)
    elif family == "dirac":
        model["gauge"] = draw(st.booleans())
        model["potentials"] = {
            name: coeffs() if draw(st.booleans()) else {"file": pick(st.just("v.csv"), files)}
            for name in ("v1", "v2", "v3", "v4")
        }
    # output paths are relative to the output directory, where missing/ does not exist
    outputs = st.sampled_from(["missing/x", "", 1, False, None])
    output = {key: pick(st.just(name), outputs)
              for key, name in (("report", "r.json"), ("csv_dir", "series"), ("svg", "s.svg"))
              if draw(st.booleans())}
    return {
        "model": model,
        "truncation": {"half_width": draw(st.integers(2, 6))},
        "pipeline": draw(st.sampled_from(["auto", "mt1", "mt2", "mt3", "mt4", "split"])),
        "split_k": pick(st.integers(-8, 8), st.integers(-10**25, 10**25)),
        "tolerances": {
            "fixed_point_tol": pick(st.floats(1e-14, 1e-10), st.sampled_from([0.0, 1e-3, "x"])),
            "max_iter": pick(st.integers(1, 60), st.sampled_from([0, 2.5, True])),
            "contraction_margin": pick(st.floats(0.01, 0.99), st.sampled_from([0.0, 1.0, 1.5])),
        },
        "oracle": draw(st.booleans()),
        "output": output,
        "seed": pick(st.integers(0, 2**64), st.integers(-2**64, -1)),
    }


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["analyze", "split"]), cfg=_configs())
@example(command="analyze", cfg={"model": {"family": "hill", "theta": 0.5, "coeffs_file": "missing.csv"}})
@example(command="split", cfg={"model": {"family": "hill", "theta": 0.5, "coeffs_file": 3}})
@example(command="analyze", cfg={"model": {"family": "dirac", "potentials": {
    "v1": {"file": "missing.csv"}, "v2": _POT, "v3": _POT, "v4": _POT}}})
@example(command="analyze", cfg={"model": {"family": "dirac", "potentials": {
    "v1": {"file": ["v.csv"]}, "v2": _POT, "v3": _POT, "v4": _POT}}})
@example(command="analyze", cfg={"model": _HILL, "output": {"report": 1}})
@example(command="analyze", cfg={"model": _HILL, "output": {"csv_dir": False}})
@example(command="analyze", cfg={"model": _HILL, "output": {"svg": None}})
@example(command="split", cfg={"model": _HILL, "output": {"report": "missing/x.json"}})
@example(command="analyze", cfg={"model": _HILL, "output": {"svg": "missing/x.svg"}})
@example(command="analyze", cfg={"model": {**_HILL, "coeffs": {"100000000000000000000": 1}}})
@example(command="analyze", cfg={"model": _HILL, "pipeline": "mt3",
                                 "tolerances": {"contraction_margin": 1.0}})
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_config_keeps_the_exit_code_contract(tmp_path, command, cfg):
    # exit 1 is usage and 4 / 5 are oracle and invariant failures; no
    # config may reach them, nor end in an exception
    work = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(work, "v.csv"), "w") as fh:
        fh.write("k,re,im\n0,0.2,0.0\n1,0.1,0.0\n-1,0.1,0.0\n")
    with open(os.path.join(work, "bad.csv"), "w") as fh:
        fh.write("k,re,im\n1,0.5\n")
    with open(os.path.join(work, "latin1.csv"), "wb") as fh:
        fh.write(_LATIN1)
    path = os.path.join(work, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    code = main([command, "--config", path, "--out", os.path.join(work, "out"), "--quiet"])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("cfg, code", [
    ({"model": {"family": "hill", "theta": 0.5, "coeffs_file": "missing.csv"}}, 2),
    ({"model": {"family": "hill", "theta": 0.5, "coeffs_file": 3}}, 2),
    ({"model": {"family": "dirac", "potentials": {
        "v1": {"file": 7}, "v2": _POT, "v3": _POT, "v4": _POT}}}, 2),
    ({"model": _HILL, "output": {"report": 1}}, 2),
    ({"model": _HILL, "output": {"csv_dir": ["series"]}}, 2),
    ({"model": _HILL, "output": {"report": "missing/x.json"}}, 2),
    ({"model": _HILL, "pipeline": "mt3", "tolerances": {"contraction_margin": 1.0}}, 2),
    ({"model": _HILL, "tolerances": {"max_iter": True}}, 2),
    ({"model": _HILL, "tolerances": {"fixed_point_tol": 1e-3}}, 2),
    ({"model": {**_HILL, "coeffs": {"100000000000000000000": 1}}}, 0),
    ({"model": {**_HILL, "coeffs": {"1" + "0" * 400: 1}}}, 2),
    ({"model": {**_HILL, "theta": 5.960464477539063e-08, "coeffs": {}},
      "truncation": {"half_width": 2}, "pipeline": "mt2"}, 0),
    ({"model": {**_HILL, "coeffs": {"1": 1e200, "-1": 1e200}},
      "truncation": {"half_width": 8}, "pipeline": "mt3"}, 2),
    ({"model": {"family": ["kernel"]}}, 2),
    ({"model": {"family": {}}}, 2),
    ({"model": _HILL, "seed": -1}, 2),
    # gauged dirac: a potential sum that overflows, and a gauge factor
    # exp(-Im g) that does; both are refused before the FFT
    ({"model": {"family": "dirac", "gauge": True, "potentials": {
        "v1": {}, "v2": {"1": 1.7e308, "-1": 1.7e308}, "v3": {}, "v4": {}}},
      "truncation": {"half_width": 4}, "pipeline": "mt4"}, 2),
    ({"model": {"family": "dirac", "gauge": True, "potentials": {
        "v1": {"1": [0, 1e5]}, "v2": {"0": 0.1}, "v3": {"0": 0.1}, "v4": {}}},
      "truncation": {"half_width": 4}, "pipeline": "mt4"}, 2),
    # "1" and "01" name the same index
    ({"model": {**_HILL, "coeffs": {"1": 0.3, "01": 0.5, "-1": 0.3}}}, 2),
    ({"model": {"family": "dirac", "potentials": {
        "v1": _POT, "v2": {"1": 0.1, "+1": 0.2}, "v3": _POT, "v4": _POT}}}, 2),
    # the eigenvalues pi i (2n - theta) overflow
    ({"model": {"family": "involution", "theta": 1e308, "coeffs": {"0": 0.1}}}, 2),
], ids=["coeffs-file-missing", "coeffs-file-int", "potential-file-int", "report-int",
        "csv-dir-list", "report-in-missing-dir", "margin-one", "max-iter-bool",
        "loose-fixed-point-tol", "hill-21-digit-index", "index-past-float-range",
        "hill-near-integer-theta", "hill-overflow", "family-list", "family-object",
        "negative-seed", "dirac-gauged-sum-overflow", "dirac-gauged-exp-overflow",
        "duplicate-index", "dirac-duplicate-index", "involution-huge-theta"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_probes(tmp_path, capsys, cfg, code):
    path = write_config(tmp_path, {"truncation": {"half_width": 6}, **cfg})
    assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (code == 0) == (not err.startswith("error:"))
    if code:
        assert err.count("\n") == 1


_OVERFLOW = {"model": {**_HILL, "coeffs": {"1": 1e200, "-1": 1e200}},
             "truncation": {"half_width": 8}, "pipeline": "mt3"}


@pytest.mark.parametrize("command, cfg, code", [
    ("split", _OVERFLOW, 2),
    ("verify", _OVERFLOW, 2),
    ("verify", {"model": {"family": "kernel", "theta": 0.5}, "truncation": {"half_width": 8}}, 2),
    ("verify", {"truncation": {"half_width": 32}, "pipeline": "mt2"}, 3),
    ("verify", {"truncation": {"half_width": 8}, "seed": -1}, 2),
    ("split", {"truncation": {"half_width": 8}, "split_k": 10**400}, 2),
    ("verify", {"model": {"family": "hill", "theta": 0.5, "coeffs_file": "latin1.csv"},
                "truncation": {"half_width": 8}}, 2),
], ids=["split-overflow", "verify-overflow", "verify-kernel-theta", "verify-kernel-mt2",
        "verify-negative-seed", "split-huge-k", "verify-non-utf8-file"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_command_exit_code_probes(tmp_path, capsys, command, cfg, code):
    # split refuses what analyze refuses (see test_exit_code_probes), and
    # verify grades a failed pipeline check by the exit code analyze gives
    (tmp_path / "latin1.csv").write_bytes(_LATIN1)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if "seed" in cfg:
        # refused with the config, before the battery runs or seeds anything
        assert err.startswith("error: 'seed' must be a non-negative integer")
        assert not (tmp_path / "verify_report.json").exists()
    elif command == "verify":
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [(c["name"], c["severity"]) for c in failed] == [("pipeline_invariants", code)]
    elif "split_k" in cfg:
        assert err.startswith("error: index 1000") and err.count("\n") == 1
    else:
        assert err.startswith("error: the perturbation overflows")


@pytest.mark.parametrize("data", [_LATIN1, b"k,re,im\n0," + b"1" * 140_000 + b",0\n"],
                         ids=["non-utf8", "field-over-csv-limit"])
@pytest.mark.parametrize("model", [
    {"family": "hill", "theta": 0.5, "coeffs_file": "c.csv"},
    {"family": "dirac", "potentials": {"v1": {"file": "c.csv"}, "v2": _POT, "v3": _POT, "v4": _POT}},
], ids=["coeffs-file", "dirac-potential-file"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unreadable_coefficient_file_exits_2(tmp_path, capsys, data, model):
    (tmp_path / "c.csv").write_bytes(data)
    path = write_config(tmp_path, {"model": model, "truncation": {"half_width": 4}})
    assert main(["analyze", "--config", path, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable coefficient file: ")
    assert err.endswith(f"[{tmp_path / 'c.csv'}]\n") and err.count("\n") == 1
