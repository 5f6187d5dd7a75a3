"""Command line front end: analyze, split, verify.

Runs are driven by a JSON config; every run writes a JSON report whose
bytes depend only on the config (and seed), never on wall time.  Wall
clock goes to stderr and a sidecar file instead.  Exit codes sort
failures by kind: 1 usage, 2 unreadable input, 3 a method condition
failed on this input, 4 the reference eigensolver failed, 5 an internal
invariant broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import models as model_lib
from .errors import (
    InvalidInputError,
    InvariantBreachError,
    MethodConditionError,
    NotSupportedError,
    OracleFailureError,
    ParseError,
    SimspecError,
)
from .models import (
    MODELS,
    coeffs_from_csv,
    involution_offdiag_energy,
    kernel_split_constants,
    random_trig_coeffs,
)
from .opmatrix import BlockMatrix, Partition, free_diagonal
from .similarity import (
    PIPELINES,
    SimilarityResult,
    pipeline_rebase,
    similarity_residual,
)
from .splitting import (
    certificate_from_constants,
    operator_norm_condition,
    split_certificate,
    split_eigenpair,
    split_system,
)
from .transforms import TransformContext, commutator_inverse, commutator_residual
from .verify import (
    build_spectrum_report,
    charpoly_eigenvalues,
    match_spectra,
    oracle_eigenvalues,
)
from .weighted import decay_weights, weights_to_csv

_SCHEMA_VERSION = 1
_ORACLE_GATE_DIM = 600
_DEFAULT_SEED = 2026

_PIPELINE_CHOICES = ("auto", "mt1", "mt2", "mt3", "mt4", "split")

_TOP_KEYS = {
    "schema",
    "model",
    "truncation",
    "tolerances",
    "pipeline",
    "split_k",
    "oracle",
    "output",
    "fault_injection",
    "seed",
}
_MODEL_KEYS = {"family", "theta", "coeffs", "coeffs_file", "gauge", "potentials"}
_TRUNC_KEYS = {"half_width", "interior_fraction"}
_TOL_KEYS = {"fixed_point_tol", "max_iter", "contraction_margin"}
_OUT_KEYS = {"report", "csv_dir", "svg"}
_FAULT_KEYS = {"corrupt_v"}


# -- config -------------------------------------------------------------------


def default_config() -> dict:
    return {
        "schema": _SCHEMA_VERSION,
        "model": {"family": "kernel"},
        "truncation": {"half_width": 32, "interior_fraction": 0.5},
        "tolerances": {
            "fixed_point_tol": 1e-12,
            "max_iter": 200,
            "contraction_margin": 0.9,
        },
        "pipeline": "auto",
        "split_k": 0,
        "oracle": True,
        "output": {"report": "report.json"},
        "seed": _DEFAULT_SEED,
    }


def _reject_unknown(section: dict, allowed: set, where: str, cfg_path):
    for key in section:
        if key not in allowed:
            raise ParseError(f"unknown config key '{where}{key}'", path=cfg_path)


def _expect(cond: bool, message: str, cfg_path):
    if not cond:
        raise ParseError(message, path=cfg_path)


def _as_number(value, name, cfg_path) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"'{name}' must be a number", cfg_path)
    return float(value)


def validate_config(raw: dict, cfg_path=None) -> dict:
    """Merge a raw config over the defaults; reject unknown keys."""
    _expect(isinstance(raw, dict), "config must be a JSON object", cfg_path)
    _reject_unknown(raw, _TOP_KEYS, "", cfg_path)
    cfg = default_config()
    if "schema" in raw:
        _expect(raw["schema"] == _SCHEMA_VERSION,
                f"unsupported schema version {raw['schema']!r}, expected {_SCHEMA_VERSION}",
                cfg_path)
    for section, allowed in (
        ("model", _MODEL_KEYS),
        ("truncation", _TRUNC_KEYS),
        ("tolerances", _TOL_KEYS),
        ("output", _OUT_KEYS),
        ("fault_injection", _FAULT_KEYS),
    ):
        if section in raw:
            _expect(isinstance(raw[section], dict),
                    f"'{section}' must be an object", cfg_path)
            _reject_unknown(raw[section], allowed, section + ".", cfg_path)
            cfg.setdefault(section, {})
            cfg[section] = {**cfg.get(section, {}), **raw[section]}
    if "pipeline" in raw:
        _expect(raw["pipeline"] in _PIPELINE_CHOICES,
                f"pipeline must be one of {', '.join(_PIPELINE_CHOICES)}", cfg_path)
        cfg["pipeline"] = raw["pipeline"]
    if "split_k" in raw:
        _expect(isinstance(raw["split_k"], int) and not isinstance(raw["split_k"], bool),
                "'split_k' must be an integer", cfg_path)
        cfg["split_k"] = raw["split_k"]
    if "oracle" in raw:
        _expect(isinstance(raw["oracle"], bool), "'oracle' must be a boolean", cfg_path)
        cfg["oracle"] = raw["oracle"]
    if "seed" in raw:
        _expect(isinstance(raw["seed"], int) and not isinstance(raw["seed"], bool),
                "'seed' must be an integer", cfg_path)
        cfg["seed"] = raw["seed"]
    trunc = cfg["truncation"]
    _expect(isinstance(trunc["half_width"], int) and trunc["half_width"] >= 2,
            "'truncation.half_width' must be an integer >= 2", cfg_path)
    frac = _as_number(trunc["interior_fraction"], "truncation.interior_fraction", cfg_path)
    _expect(0.0 < frac <= 1.0, "'truncation.interior_fraction' must be in (0, 1]", cfg_path)
    trunc["interior_fraction"] = frac
    tols = cfg["tolerances"]
    tols["fixed_point_tol"] = _as_number(tols["fixed_point_tol"], "tolerances.fixed_point_tol", cfg_path)
    _expect(tols["fixed_point_tol"] > 0.0, "'tolerances.fixed_point_tol' must be positive", cfg_path)
    _expect(isinstance(tols["max_iter"], int) and tols["max_iter"] > 0,
            "'tolerances.max_iter' must be a positive integer", cfg_path)
    margin = _as_number(tols["contraction_margin"], "tolerances.contraction_margin", cfg_path)
    _expect(0.0 < margin <= 1.0, "'tolerances.contraction_margin' must be in (0, 1]", cfg_path)
    tols["contraction_margin"] = margin
    if "fault_injection" in cfg:
        fi = cfg["fault_injection"]
        if "corrupt_v" in fi:
            fi["corrupt_v"] = _as_number(fi["corrupt_v"], "fault_injection.corrupt_v", cfg_path)
            _expect(fi["corrupt_v"] >= 0.0, "'fault_injection.corrupt_v' must be >= 0", cfg_path)
    family = cfg["model"].get("family")
    _expect(family in MODELS, f"'model.family' must be one of {', '.join(sorted(MODELS))}", cfg_path)
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", path=path, line=exc.lineno)
    cfg = validate_config(raw, cfg_path=path)
    cfg["_base_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


def _parse_coeff_map(obj, where: str, cfg_path) -> dict:
    _expect(isinstance(obj, dict), f"'{where}' must be an object of index: value", cfg_path)
    out = {}
    for key, val in obj.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"'{where}' key {key!r} is not an integer index", path=cfg_path)
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            out[k] = complex(val)
        elif isinstance(val, list) and len(val) == 2 and all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in val
        ):
            out[k] = complex(val[0], val[1])
        else:
            raise ParseError(
                f"'{where}.{key}' must be a number or a [re, im] pair", path=cfg_path
            )
    return out


def _coeffs_from_config(model_cfg: dict, base_dir: str, cfg_path, required: bool):
    inline = model_cfg.get("coeffs")
    fname = model_cfg.get("coeffs_file")
    if inline is not None and fname is not None:
        raise ParseError("'model.coeffs' and 'model.coeffs_file' are mutually exclusive",
                         path=cfg_path)
    if inline is not None:
        return _parse_coeff_map(inline, "model.coeffs", cfg_path)
    if fname is not None:
        return coeffs_from_csv(os.path.join(base_dir, fname))
    if required:
        raise ParseError("this model family needs 'model.coeffs' or 'model.coeffs_file'",
                         path=cfg_path)
    return None


def build_model(cfg: dict, cfg_path=None):
    """Instantiate the configured model problem."""
    model_cfg = cfg["model"]
    family = model_cfg["family"]
    base_dir = cfg.get("_base_dir", ".")
    half = cfg["truncation"]["half_width"]
    frac = cfg["truncation"]["interior_fraction"]
    if family == "kernel":
        for key in ("theta", "coeffs", "coeffs_file", "gauge", "potentials"):
            _expect(key not in model_cfg, f"'model.{key}' is not used by family kernel", cfg_path)
        return model_lib.kernel_model(half, frac)
    if family == "involution":
        for key in ("gauge", "potentials"):
            _expect(key not in model_cfg, f"'model.{key}' is not used by family involution", cfg_path)
        theta = _as_number(model_cfg.get("theta", 0.0), "model.theta", cfg_path)
        coeffs = _coeffs_from_config(model_cfg, base_dir, cfg_path, required=True)
        return model_lib.involution_model(half, theta, coeffs, interior_fraction=frac)
    if family == "hill":
        for key in ("gauge", "potentials"):
            _expect(key not in model_cfg, f"'model.{key}' is not used by family hill", cfg_path)
        _expect("theta" in model_cfg, "family hill needs 'model.theta'", cfg_path)
        theta = _as_number(model_cfg["theta"], "model.theta", cfg_path)
        coeffs = _coeffs_from_config(model_cfg, base_dir, cfg_path, required=True)
        return model_lib.hill_model(half, theta, coeffs, interior_fraction=frac)
    # dirac
    for key in ("theta", "coeffs", "coeffs_file"):
        _expect(key not in model_cfg, f"'model.{key}' is not used by family dirac", cfg_path)
    pots = model_cfg.get("potentials")
    _expect(isinstance(pots, dict), "family dirac needs 'model.potentials'", cfg_path)
    _reject_unknown(pots, {"v1", "v2", "v3", "v4"}, "model.potentials.", cfg_path)
    parsed = {}
    for name in ("v1", "v2", "v3", "v4"):
        _expect(name in pots, f"'model.potentials.{name}' is required", cfg_path)
        entry = pots[name]
        if isinstance(entry, dict) and set(entry) == {"file"}:
            parsed[name] = coeffs_from_csv(os.path.join(base_dir, entry["file"]))
        else:
            parsed[name] = _parse_coeff_map(entry, f"model.potentials.{name}", cfg_path)
    gauge = model_cfg.get("gauge", True)
    _expect(isinstance(gauge, bool), "'model.gauge' must be a boolean", cfg_path)
    return model_lib.dirac_model(
        half, parsed["v1"], parsed["v2"], parsed["v3"], parsed["v4"],
        gauge=gauge, interior_fraction=frac,
    )


# -- serialization -------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonify(float(obj.real)), _jsonify(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def _write_json(path, payload: dict):
    text = json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _echo_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


# -- analyze ------------------------------------------------------------------


def _auto_pipeline(model) -> str:
    if model.name == "dirac":
        return "mt4"
    ctx = TransformContext(Partition.trivial(model.spectrum))
    q = 4.0 * model.perturbation.hs() / ctx.delta
    return "mt1" if q < 1.0 else "mt3"


def run_pipeline(model, name: str, tols: dict) -> SimilarityResult:
    tol = tols["fixed_point_tol"]
    max_iter = tols["max_iter"]
    margin = tols["contraction_margin"]
    spectrum = model.spectrum
    b = model.perturbation
    if name == "mt1":
        return PIPELINES["mt1"](spectrum, b, tol=tol, max_iter=max_iter)
    if name == "mt2":
        return PIPELINES["mt2"](spectrum, b, tol=tol, max_iter=max_iter)
    if name == "mt3":
        return PIPELINES["mt3"](spectrum, b, margin=margin, tol=tol, max_iter=max_iter)
    if name == "mt4":
        return pipeline_rebase(
            spectrum, b, diag_part=model.diag_part,
            margin=margin, tol=tol, max_iter=max_iter,
        )
    raise InvalidInputError(f"unknown pipeline {name!r}")


def _offdiag_mass(v: BlockMatrix) -> float:
    outside = ~v.partition.same_group_mask()
    return float(np.linalg.norm(v.data[outside]))


def _apply_fault(model, result: SimilarityResult, magnitude: float) -> SimilarityResult:
    """Test hook: corrupt one cross-group entry of V and remeasure."""
    if magnitude <= 0.0:
        return result
    v = result.v.copy()
    outside = np.argwhere(~v.partition.same_group_mask())
    if outside.size == 0:
        return result
    i, j = outside[0]
    v.data[i, j] += magnitude
    base = Partition.trivial(model.spectrum)
    res = similarity_residual(
        model.spectrum,
        BlockMatrix(base, model.perturbation.dense()),
        BlockMatrix(base, result.u.dense()),
        BlockMatrix(base, v.dense()),
    )
    return replace(
        result,
        v=v,
        offdiag_residual=max(result.offdiag_residual, _offdiag_mass(v)),
        residual=res,
    )


def invariant_gates(model, result: SimilarityResult, oracle_on: bool):
    """Evaluate the always-on acceptance gates for a pipeline run.

    Returns (gates, oracle_values); oracle_values is None when the
    spectral comparison was skipped.
    """
    gates = {}
    res_tol = 1e-9 * result.residual_scale
    gates["similarity_residual"] = {
        "measured": result.residual,
        "threshold": res_tol,
        "satisfied": bool(result.residual <= res_tol),
    }
    hs_v = result.v.hs()
    off_tol = 1e-10 * max(hs_v, 1e-300)
    gates["v_block_diagonal"] = {
        "measured": result.offdiag_residual,
        "threshold": off_tol,
        "satisfied": bool(result.offdiag_residual <= off_tol),
    }
    oracle_vals = None
    if oracle_on and model.spectrum.dim <= _ORACLE_GATE_DIM:
        lam = free_diagonal(model.spectrum)
        a_minus_b = np.diag(lam) - model.perturbation.dense()
        a_minus_v = np.diag(lam) - result.v.dense()
        oracle_vals = oracle_eigenvalues(a_minus_b)
        shifted = oracle_eigenvalues(a_minus_v)
        dev = match_spectra(oracle_vals, shifted).max_abs_deviation
        # eigenvalues grow like N^2, so the QR rounding grows with max|lambda|
        spec_tol = max(1e-8, 1e-12 * float(np.abs(oracle_vals).max()))
        gates["spectra_agree"] = {
            "measured": float(dev),
            "threshold": spec_tol,
            "satisfied": bool(dev <= spec_tol),
        }
    return gates, oracle_vals


def _estimates_by_position(spectrum, estimates) -> np.ndarray:
    vals = np.array([z for _, z in estimates], dtype=complex)
    m = match_spectra(spectrum.position_values, vals)
    out = np.empty(spectrum.dim, dtype=complex)
    for i, j in m.pairs:
        out[i] = vals[j]
    return out


def _write_series(csv_dir, model, result, weights, oracle_vals, report_obj):
    os.makedirs(csv_dir, exist_ok=True)
    spectrum = model.spectrum
    est = _estimates_by_position(spectrum, result.eigenvalue_estimates)
    ora = None
    if oracle_vals is not None:
        m = match_spectra(spectrum.position_values, oracle_vals)
        ora = np.empty(spectrum.dim, dtype=complex)
        for i, j in m.pairs:
            ora[i] = oracle_vals[j]
    path = os.path.join(csv_dir, "spectrum_scatter.csv")
    with open(path, "w") as fh:
        cols = "index,free_re,free_im,estimate_re,estimate_im"
        fh.write(cols + (",oracle_re,oracle_im\n" if ora is not None else "\n"))
        for pos in range(spectrum.dim):
            n = int(spectrum.indices[spectrum.position_entry[pos]])
            lam = spectrum.position_values[pos]
            row = [str(n), repr(float(lam.real)), repr(float(lam.imag)),
                   repr(float(est[pos].real)), repr(float(est[pos].imag))]
            if ora is not None:
                row += [repr(float(ora[pos].real)), repr(float(ora[pos].imag))]
            fh.write(",".join(row) + "\n")
    if report_obj is not None:
        with open(os.path.join(csv_dir, "deviation_decay.csv"), "w") as fh:
            fh.write("index,abs_b,residual,alpha\n")
            for row in report_obj.rows:
                b_abs = math.hypot(row["b"][0], row["b"][1])
                alpha = "" if weights is None else repr(float(weights.alpha_of(row["index"])))
                fh.write(f"{row['index']},{b_abs!r},{row['residual']!r},{alpha}\n")
    if weights is not None:
        weights_to_csv(weights, os.path.join(csv_dir, "weight_decay.csv"))


def _svg_scatter(series, path, title):
    """Small self-contained scatter plot; series = [(name, color, pts)]."""
    width, height, margin = 640, 420, 56
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xpad = (xmax - xmin) or 1.0
    ypad = (ymax - ymin) or 1.0
    xmin -= 0.05 * xpad
    xmax += 0.05 * xpad
    ymin -= 0.05 * ypad
    ymax += 0.05 * ypad

    def sx(x):
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    if xmin < 0.0 < xmax:
        parts.append(
            f'<line x1="{sx(0):.2f}" y1="{margin}" x2="{sx(0):.2f}" '
            f'y2="{height - margin}" stroke="#ccc"/>'
        )
    if ymin < 0.0 < ymax:
        parts.append(
            f'<line x1="{margin}" y1="{sy(0):.2f}" x2="{width - margin}" '
            f'y2="{sy(0):.2f}" stroke="#ccc"/>'
        )
    for si, (name, color, pts) in enumerate(series):
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
        ly = margin + 16 + 16 * si
        parts.append(
            f'<circle cx="{margin + 12}" cy="{ly - 4}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{margin + 22}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    for x, anchor in ((xmin, "start"), (xmax, "end")):
        parts.append(
            f'<text x="{sx(x):.2f}" y="{height - margin + 16}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{x:.4g}</text>'
        )
    for y in (ymin, ymax):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(y):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:.4g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_analyze(cfg: dict, out_dir: str, quiet: bool) -> int:
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    requested = cfg["pipeline"]
    if requested == "split":
        return cmd_split(cfg, out_dir, quiet)
    name = _auto_pipeline(model) if requested == "auto" else requested
    result = run_pipeline(model, name, cfg["tolerances"])
    fault = cfg.get("fault_injection", {}).get("corrupt_v", 0.0)
    result = _apply_fault(model, result, fault)
    t_oracle = time.perf_counter()
    gates, oracle_vals = invariant_gates(model, result, cfg["oracle"])
    t_oracle = time.perf_counter() - t_oracle
    try:
        weights = decay_weights(model.perturbation)
    except MethodConditionError:
        weights = None
    report_obj = None
    if oracle_vals is not None:
        report_obj = build_spectrum_report(
            model.spectrum,
            result.eigenvalue_estimates,
            oracle_vals,
            first_order=model.first_order,
            second_order=model.second_order,
            weights=weights,
        )
    timings = {
        "dimension": model.spectrum.dim,
        "iterations": dict(result.iterations),
        "stage_count": len(result.stages),
        "oracle_spectra": 0 if oracle_vals is None else 2,
    }
    report = {
        "command": "analyze",
        "schema": _SCHEMA_VERSION,
        "config_echo": _echo_config(cfg),
        "model": model.name,
        "pipeline": result.pipeline,
        "pipeline_requested": requested,
        "stages": result.stages,
        "certificates": result.certificates,
        "invariant_gates": gates,
        "eigenvalue_estimates": [[int(k), z] for k, z in result.eigenvalue_estimates],
        "spectrum_report": None if report_obj is None else report_obj.to_dict(),
        "timings": timings,
    }
    report_path = os.path.join(out_dir, cfg["output"].get("report", "report.json"))
    _write_json(report_path, report)
    csv_dir = cfg["output"].get("csv_dir")
    if csv_dir is not None:
        _write_series(os.path.join(out_dir, csv_dir), model, result, weights,
                      oracle_vals, report_obj)
        if report_obj is not None:
            report_obj.to_csv(os.path.join(out_dir, csv_dir, "spectrum_report.csv"))
    svg = cfg["output"].get("svg")
    if svg is not None:
        spectrum = model.spectrum
        est = _estimates_by_position(spectrum, result.eigenvalue_estimates)
        series = [
            ("unperturbed", "#777777",
             [(z.real, z.imag) for z in spectrum.position_values]),
            ("estimates", "#c0392b", [(z.real, z.imag) for z in est]),
        ]
        if oracle_vals is not None:
            series.append(
                ("reference", "#2e6da4", [(z.real, z.imag) for z in oracle_vals])
            )
        _svg_scatter(series, os.path.join(out_dir, svg), "spectrum")
    wall = {"total_seconds": time.perf_counter() - t_start, "oracle_seconds": t_oracle}
    _write_json(os.path.join(out_dir, "timings_wall.json"), {"wall": wall})
    if not quiet:
        print(f"pipeline {result.pipeline}: residual {result.residual:.3e} "
              f"(scale {result.residual_scale:.3e}), report {report_path}")
    print(f"wall {wall['total_seconds']:.2f}s", file=sys.stderr)
    bad = [k for k, g in gates.items() if not g["satisfied"]]
    if bad:
        worst = gates[bad[0]]
        raise InvariantBreachError(
            f"invariant gate '{bad[0]}' failed: measured {worst['measured']:.3e} "
            f"> threshold {worst['threshold']:.3e} (report at {report_path})"
        )
    return 0


# -- split --------------------------------------------------------------------


def cmd_split(cfg: dict, out_dir: str, quiet: bool) -> int:
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    k = cfg["split_k"]
    tols = cfg["tolerances"]
    op = split_system(model.spectrum, model.perturbation, k)
    window_bounds = split_certificate(op)
    published = None
    if model.name == "kernel":
        published = certificate_from_constants(**kernel_split_constants(k))
    result = split_eigenpair(
        model.spectrum, model.perturbation, k,
        tol=min(tols["fixed_point_tol"], 1e-13),
        max_iter=tols["max_iter"],
        bounds=window_bounds,
    )
    oracle_info = None
    t_oracle = 0.0
    if cfg["oracle"]:
        t_oracle = time.perf_counter()
        lam = free_diagonal(model.spectrum)
        vals = oracle_eigenvalues(np.diag(lam) - model.perturbation.dense())
        nearest = vals[int(np.argmin(np.abs(vals - result.lam_prime)))]
        oracle_info = {
            "nearest": complex(nearest),
            "deviation": float(abs(nearest - result.lam_prime)),
        }
        t_oracle = time.perf_counter() - t_oracle
    report = {
        "command": "split",
        "schema": _SCHEMA_VERSION,
        "config_echo": _echo_config(cfg),
        "model": model.name,
        "pipeline": "split",
        "k": k,
        "lambda": result.lam,
        "lambda_prime": result.lam_prime,
        "b1": result.b1,
        "b2": result.b2,
        "iterations": result.iterations,
        "residual": result.residual,
        "residual_scale": result.residual_scale,
        "correction_norm": result.correction_norm,
        "normalized_deviation_bound": result.normalized_deviation_bound,
        "window_bounds": window_bounds.to_dict(),
        "published_bounds": None if published is None else published.to_dict(),
        "operator_norm_condition": operator_norm_condition(model.perturbation, op.s_max),
        "oracle": oracle_info,
        "timings": {
            "dimension": model.spectrum.dim,
            "iterations": result.iterations,
            "oracle_spectra": 0 if oracle_info is None else 1,
        },
    }
    report_path = os.path.join(out_dir, cfg["output"].get("report", "report.json"))
    _write_json(report_path, report)
    wall = {"total_seconds": time.perf_counter() - t_start, "oracle_seconds": t_oracle}
    _write_json(os.path.join(out_dir, "timings_wall.json"), {"wall": wall})
    if not quiet:
        lp = result.lam_prime
        print(f"split k={k}: lambda' = {lp.real:.9g}{lp.imag:+.9g}i, "
              f"|b2| = {abs(result.b2):.3e} <= {result.bounds.bound_b2:.3e}, "
              f"report {report_path}")
    print(f"wall {wall['total_seconds']:.2f}s", file=sys.stderr)
    return 0


# -- verify -------------------------------------------------------------------


def _verify_battery(seed: int, quiet: bool, cfg: dict | None):
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, passed, detail, severity):
        checks.append({
            "name": name, "passed": bool(passed), "detail": detail,
            "severity": severity,
        })
        if not quiet:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    # two independent eigensolvers on random small matrices
    worst = 0.0
    failed = None
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        try:
            v1 = oracle_eigenvalues(a, cross_check=False)
            v2 = charpoly_eigenvalues(a)
        except (OracleFailureError, SimspecError) as exc:
            failed = str(exc)
            break
        scale = max(1.0, float(np.abs(v1).max()))
        worst = max(worst, match_spectra(v1, v2).max_abs_deviation / scale)
    if failed is not None:
        record("dual_oracle", False, failed, 4)
    else:
        record("dual_oracle", worst <= 1e-10,
               f"100 random matrices, worst relative deviation {worst:.2e}", 4)

    # norm chain op <= block <= full on random block matrices
    from .opmatrix import Spectrum, TruncationWindow

    ok = True
    detail = ""
    for _ in range(20):
        n = int(rng.integers(3, 9))
        win = TruncationWindow(n)
        values = 2j * np.pi * np.arange(-n, n + 1)
        spec = Spectrum(np.arange(-n, n + 1), values, window=win)
        part = Partition.coarse(spec, int(rng.integers(0, n)))
        x = BlockMatrix(part, rng.normal(size=(spec.dim, spec.dim))
                        + 1j * rng.normal(size=(spec.dim, spec.dim)))
        r = x.norms()
        if not (r.op <= r.hs_sigma + 1e-9 * r.hs and r.hs_sigma <= r.hs + 1e-9 * r.hs):
            ok = False
            detail = f"violated: op={r.op}, block={r.hs_sigma}, full={r.hs}"
            break
    record("norm_chain", ok, detail or "20 random block matrices ordered correctly", 5)

    # transform identity A(GX) - (GX)A = X - JX
    ok = True
    detail = ""
    for _ in range(10):
        n = int(rng.integers(3, 8))
        win = TruncationWindow(n)
        spec = Spectrum(np.arange(-n, n + 1), 2j * np.pi * np.arange(-n, n + 1), window=win)
        part = Partition.coarse(spec, int(rng.integers(0, n)))
        ctx = TransformContext(part)
        x = BlockMatrix(part, rng.normal(size=(spec.dim, spec.dim))
                        + 1j * rng.normal(size=(spec.dim, spec.dim)))
        res = commutator_residual(ctx, x)
        if res > 1e-12 * max(x.hs(), 1.0):
            ok = False
            detail = f"residual {res:.2e}"
            break
    record("commutator_identity", ok, detail or "10 random transforms within 1e-12", 5)

    # pipeline invariants on a small built-in problem (or the config's)
    try:
        if cfg is not None:
            model = build_model(cfg)
            name = cfg["pipeline"]
            if name in ("auto", "split"):
                name = _auto_pipeline(model)
            result = run_pipeline(model, name, cfg["tolerances"])
        else:
            model = model_lib.kernel_model(24)
            result = run_pipeline(model, "mt1", default_config()["tolerances"])
        gates, _ = invariant_gates(model, result, True)
        bad = [k for k, g in gates.items() if not g["satisfied"]]
        record("pipeline_invariants", not bad,
               ("gates " + ", ".join(f"{k}={g['measured']:.2e}" for k, g in gates.items()))
               if not bad else f"failed gates: {', '.join(bad)}", 5)
    except SimspecError as exc:
        record("pipeline_invariants", False, str(exc), 5)

    # splitting against the reference spectrum
    try:
        model = model_lib.kernel_model(32)
        lam = free_diagonal(model.spectrum)
        vals = oracle_eigenvalues(np.diag(lam) - model.perturbation.dense())
        ok = True
        detail_parts = []
        for k in (0, 1):
            r = split_eigenpair(model.spectrum, model.perturbation, k)
            dev = float(np.abs(vals - r.lam_prime).min())
            detail_parts.append(f"k={k}: dev {dev:.2e}")
            ok = ok and dev <= 1e-9
        record("split_consistency", ok, "; ".join(detail_parts), 5)
    except SimspecError as exc:
        record("split_consistency", False, str(exc), 5)

    # quartic coupling inequality on random real potentials
    ok = True
    detail = ""
    for _ in range(5):
        co = random_trig_coeffs(rng, degree=4, scale=1.0, real=True)
        lhs, rhs = involution_offdiag_energy(co, 10)
        if lhs > rhs:
            ok = False
            detail = f"lhs {lhs:.4e} > rhs {rhs:.4e}"
            break
    record("coupling_inequality", ok, detail or "5 random potentials within the quartic bound", 5)

    # weight sequence sanity
    try:
        w = decay_weights(model_lib.kernel_model(32).perturbation)
        mono = bool(np.all(np.diff(w.alpha) <= 1e-12))
        ok = float(w.alpha[0]) == 1.0 and mono
        record("weight_sanity", ok,
               f"alpha0 = {float(w.alpha[0])!r}, nonincreasing = {mono}", 5)
    except SimspecError as exc:
        record("weight_sanity", False, str(exc), 5)

    return checks


def cmd_verify(cfg: dict | None, out_dir: str, seed: int, quiet: bool) -> int:
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    checks = _verify_battery(seed, quiet, cfg)
    report = {
        "command": "verify",
        "schema": _SCHEMA_VERSION,
        "seed": seed,
        "config_echo": None if cfg is None else _echo_config(cfg),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _write_json(os.path.join(out_dir, "verify_report.json"), report)
    wall = {"total_seconds": time.perf_counter() - t_start}
    _write_json(os.path.join(out_dir, "timings_wall.json"), {"wall": wall})
    print(f"wall {wall['total_seconds']:.2f}s", file=sys.stderr)
    failed = [c for c in checks if not c["passed"]]
    if failed:
        return max(c["severity"] for c in failed)
    if not quiet:
        print(f"all {len(checks)} checks passed")
    return 0


# -- entry point ----------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simspec",
        description="Certified spectral analysis of perturbed diagonal operators.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, text in (
        ("analyze", "run a similarity pipeline and write a report"),
        ("split", "correct a single eigenpair with certified bounds"),
        ("verify", "run the self-check battery"),
    ):
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("--config", default=None, help="JSON run configuration")
        sp.add_argument("--out", default=".", help="directory for reports")
        sp.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required (analyze, split, verify)", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command == "verify":
            seed = args.seed if args.seed is not None else (
                cfg["seed"] if cfg else _DEFAULT_SEED
            )
            return cmd_verify(cfg, args.out, seed, args.quiet)
        if cfg is None:
            cfg = validate_config({})
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "analyze":
            return cmd_analyze(cfg, args.out, args.quiet)
        return cmd_split(cfg, args.out, args.quiet)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, NotSupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MethodConditionError as exc:
        print(f"method condition failed: {exc}", file=sys.stderr)
        return 3
    except OracleFailureError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4
    except InvariantBreachError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 5
    except SimspecError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
