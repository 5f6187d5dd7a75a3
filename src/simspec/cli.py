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
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import models as model_lib
from .errors import (
    InvalidInputError,
    InvariantBreachError,
    MethodConditionError,
    OracleFailureError,
    ParseError,
    SimspecError,
)
from .models import MODELS, involution_offdiag_energy, kernel_split_constants, random_trig_coeffs
from .opmatrix import BlockMatrix, Partition, Spectrum, spectral_gap
from .similarity import PIPELINES, SimilarityResult, pipeline_rebase
from .splitting import (
    certificate_from_constants,
    operator_norm_condition,
    split_eigenpair,
)
from .transforms import commutator_residual
from .verify import (
    build_spectrum_report,
    charpoly_eigenvalues,
    match_spectra,
    oracle_eigenvalues,
    values_by_position,
)
from .weighted import decay_weights

_SCHEMA_VERSION = 1
_ORACLE_GATE_DIM = 600
# a run's traced peak is 12.6 dense d x d complex arrays (16 d^2 bytes
# each) for gauged dirac mt4 at d = 1026, 7.5 for kernel mt1 at d = 1025;
# a config whose one such array exceeds this is refused up front
_DENSE_ARRAY_CAP_MIB = 128
_DEFAULT_SEED = 2026

_PIPELINE_CHOICES = ("auto", "mt1", "mt2", "mt3", "mt4", "split")

# the model keys each family reads besides 'family'; a key that only
# other families read is refused, the first in the order listed here
_FAMILY_KEYS = {
    "kernel": (),
    "involution": ("theta", "coeffs", "coeffs_file"),
    "hill": ("theta", "coeffs", "coeffs_file"),
    "dirac": ("gauge", "potentials"),
}
_MODEL_KEYS = ("family", *dict.fromkeys(k for keys in _FAMILY_KEYS.values() for k in keys))
# csv_dir and svg have no default to read their names from
_OUT_KEYS = {"report", "csv_dir", "svg"}

# exception kinds, most specific first, with their exit code and the
# prefix of the stderr line; the verify battery grades its checks by it
_FAILURES = (
    ((InvalidInputError, OSError), 2, "error"),  # OSError: unreadable input, unwritable output
    ((MethodConditionError,), 3, "method condition failed"),
    ((OracleFailureError,), 4, "oracle failure"),
    ((InvariantBreachError,), 5, "invariant breach"),
    ((SimspecError,), 5, "internal error"),
)


def _failure(exc: Exception) -> tuple[int, str]:
    """(exit code, stderr prefix) of an exception the CLI reports."""
    return next((code, prefix) for kinds, code, prefix in _FAILURES if isinstance(exc, kinds))


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


def _reject_unknown(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ParseError(f"unknown config key '{where}{key}'")


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_number(value) -> bool:
    """A finite JSON number; json accepts NaN and Infinity, simspec does not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _as_number(value, name) -> float:
    _expect(_is_number(value), f"'{name}' must be a finite number")
    return float(value)


def validate_config(raw: dict) -> dict:
    """Merge a raw config over the defaults; reject unknown keys."""
    _expect(isinstance(raw, dict), "config must be a JSON object")
    cfg = default_config()
    _reject_unknown(raw, cfg, "")
    if "schema" in raw:
        _expect(raw["schema"] == _SCHEMA_VERSION,
                f"unsupported schema version {raw['schema']!r}, expected {_SCHEMA_VERSION}")
    for section, allowed in (
        ("model", _MODEL_KEYS),
        ("truncation", cfg["truncation"]),
        ("tolerances", cfg["tolerances"]),
        ("output", _OUT_KEYS),
    ):
        if section in raw:
            _expect(isinstance(raw[section], dict), f"'{section}' must be an object")
            _reject_unknown(raw[section], allowed, section + ".")
            cfg[section] = {**cfg[section], **raw[section]}
    if "pipeline" in raw:
        _expect(raw["pipeline"] in _PIPELINE_CHOICES,
                f"pipeline must be one of {', '.join(_PIPELINE_CHOICES)}")
        cfg["pipeline"] = raw["pipeline"]
    if "split_k" in raw:
        _expect(isinstance(raw["split_k"], int) and not isinstance(raw["split_k"], bool),
                "'split_k' must be an integer")
        cfg["split_k"] = raw["split_k"]
    if "oracle" in raw:
        _expect(isinstance(raw["oracle"], bool), "'oracle' must be a boolean")
        cfg["oracle"] = raw["oracle"]
    if "seed" in raw:
        _expect(type(raw["seed"]) is int and raw["seed"] >= 0,  # a bool is no seed
                "'seed' must be a non-negative integer")
        cfg["seed"] = raw["seed"]
    trunc = cfg["truncation"]
    _expect(isinstance(trunc["half_width"], int) and trunc["half_width"] >= 2,
            "'truncation.half_width' must be an integer >= 2")
    frac = _as_number(trunc["interior_fraction"], "truncation.interior_fraction")
    _expect(0.0 < frac <= 1.0, "'truncation.interior_fraction' must be in (0, 1]")
    trunc["interior_fraction"] = frac
    tols = cfg["tolerances"]
    tols["fixed_point_tol"] = _as_number(tols["fixed_point_tol"], "tolerances.fixed_point_tol")
    # a looser stop cannot meet the 1e-10 diagonal identity check of the fixed point
    _expect(0.0 < tols["fixed_point_tol"] <= 1e-10,
            "'tolerances.fixed_point_tol' must be in (0, 1e-10]")
    _expect(type(tols["max_iter"]) is int and tols["max_iter"] > 0,  # a bool is no count
            "'tolerances.max_iter' must be a positive integer")
    margin = _as_number(tols["contraction_margin"], "tolerances.contraction_margin")
    _expect(0.0 < margin < 1.0, "'tolerances.contraction_margin' must be in (0, 1)")
    tols["contraction_margin"] = margin
    for key, path in cfg["output"].items():
        _expect(isinstance(path, str), f"'output.{key}' must be a string")
    family = cfg["model"].get("family")
    _expect(isinstance(family, str) and family in MODELS,  # a list or object is unhashable
            f"'model.family' must be one of {', '.join(sorted(MODELS))}")
    # dirac carries two coordinates per index, the other families one
    dim = (2 * trunc["half_width"] + 1) * (2 if family == "dirac" else 1)
    _expect(16 * dim * dim <= _DENSE_ARRAY_CAP_MIB * 2**20,
            f"model dimension {dim} is too large: one dense d x d complex array "
            f"(16 d^2 bytes) would exceed the {_DENSE_ARRAY_CAP_MIB} MiB cap; "
            f"lower 'truncation.half_width'")
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", path=path, line=exc.lineno)
    except ValueError as exc:  # undecodable bytes, or an integer past the digit limit
        raise ParseError(f"config is not valid JSON: {exc}", path=path)
    except RecursionError:
        raise ParseError("config is not valid JSON: nested too deeply", path=path)
    try:
        cfg = validate_config(raw)
    except ParseError as exc:
        raise ParseError(str(exc), path=path) from None
    cfg["_base_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


def _parse_coeff_map(obj, where: str) -> dict:
    _expect(isinstance(obj, dict), f"'{where}' must be an object of index: value")
    out = {}
    for key, val in obj.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"'{where}' key {key!r} is not an integer index")
        _expect(k not in out, f"duplicate coefficient {k} in '{where}'")
        if _is_number(val):
            out[k] = complex(val)
        elif isinstance(val, list) and len(val) == 2 and all(_is_number(p) for p in val):
            out[k] = complex(val[0], val[1])
        else:
            raise ParseError(f"'{where}.{key}' must be a finite number or a [re, im] pair")
    return out


def _coeffs_from_csv(path) -> dict:
    """Coefficients from a UTF-8 CSV file of ``k,re,im`` rows; a first row
    that starts with ``k`` is a header."""
    out = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for ln, row in enumerate(csv.reader(fh), start=1):
                if ln == 1 and row and row[0].strip() == "k":
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 3:
                    raise ParseError(f"expected 3 fields, got {len(row)}", path=path, line=ln)
                try:
                    k = int(row[0])
                    z = complex(float(row[1]), float(row[2]))
                except ValueError as exc:
                    raise ParseError(f"bad field: {exc}", path=path, line=ln) from None
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise ParseError(f"coefficient {k} is not finite", path=path, line=ln)
                if k in out:
                    raise ParseError(f"duplicate coefficient {k}", path=path, line=ln)
                out[k] = z
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable coefficient file: {exc}", path=path) from None
    return out


def _coeffs_from_config(model_cfg: dict, base_dir: str) -> dict:
    inline = model_cfg.get("coeffs")
    fname = model_cfg.get("coeffs_file")
    if inline is not None and fname is not None:
        raise ParseError("'model.coeffs' and 'model.coeffs_file' are mutually exclusive")
    if inline is not None:
        return _parse_coeff_map(inline, "model.coeffs")
    if fname is not None:
        _expect(isinstance(fname, str), "'model.coeffs_file' must be a string")
        return _coeffs_from_csv(os.path.join(base_dir, fname))
    raise ParseError("this model family needs 'model.coeffs' or 'model.coeffs_file'")


def _dirac_potentials(model_cfg: dict, base_dir: str) -> dict:
    pots = model_cfg.get("potentials")
    _expect(isinstance(pots, dict), "family dirac needs 'model.potentials'")
    _reject_unknown(pots, {"v1", "v2", "v3", "v4"}, "model.potentials.")
    parsed = {}
    for name in ("v1", "v2", "v3", "v4"):
        _expect(name in pots, f"'model.potentials.{name}' is required")
        entry = pots[name]
        if isinstance(entry, dict) and set(entry) == {"file"}:
            _expect(isinstance(entry["file"], str),
                    f"'model.potentials.{name}.file' must be a string")
            parsed[name] = _coeffs_from_csv(os.path.join(base_dir, entry["file"]))
        else:
            parsed[name] = _parse_coeff_map(entry, f"model.potentials.{name}")
    return parsed


def build_model(cfg: dict):
    """Instantiate the configured model problem; refuse a perturbation
    whose norm overflows."""
    model_cfg = cfg["model"]
    family = model_cfg["family"]
    for key in _MODEL_KEYS[1:]:
        _expect(key in _FAMILY_KEYS[family] or key not in model_cfg,
                f"'model.{key}' is not used by family {family}")
    base_dir = cfg.get("_base_dir", ".")
    half = cfg["truncation"]["half_width"]
    if family == "kernel":
        model = model_lib.kernel_model(half)
    elif family == "dirac":
        pots = _dirac_potentials(model_cfg, base_dir)
        gauge = model_cfg.get("gauge", True)
        _expect(isinstance(gauge, bool), "'model.gauge' must be a boolean")
        model = model_lib.dirac_model(half, **pots, gauge=gauge)
    else:
        _expect(family != "hill" or "theta" in model_cfg, "family hill needs 'model.theta'")
        theta = _as_number(model_cfg.get("theta", 0.0), "model.theta")
        coeffs = _coeffs_from_config(model_cfg, base_dir)
        model = MODELS[family](half, theta, coeffs)
    # hs() is taken once here and stored; its sum may overflow to inf
    hs = model.perturbation.hs()
    if not math.isfinite(hs):
        raise InvalidInputError("the perturbation overflows: the sum of its squared moduli "
                                f"is {hs * hs!r}; scale the coefficients down")
    return model


# -- serialization -------------------------------------------------------------


_float_repr = float.__repr__
_json_string = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` in one pass, where
    ``pad`` is the line break and indent of obj's own level.

    Keys go through ``str()`` before they are sorted; a non-finite float
    is its quoted repr, a complex value the pair [re, im], an array its
    ``tolist()`` and any other object its quoted repr.
    """
    kind = type(obj)
    if kind is float:
        text = _float_repr(obj)
        return text if obj - obj == 0.0 else '"' + text + '"'
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return ("{" + inner + ("," + inner).join(
            [_json_string(k) + ": " + _json_text(v, inner) for k, v in items]) + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        if all(isinstance(v, float) for v in obj):
            text = sep.join(map(_float_repr, obj))
            if "n" not in text:  # no "nan" or "inf" among the reprs
                return "[" + inner + text + pad + "]"
        return "[" + inner + sep.join([_json_text(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_text(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _json_text([float(obj.real), float(obj.imag)], pad)
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), pad)
    if obj is None:
        return "null"
    return _json_string(obj if isinstance(obj, str) else repr(obj))


def _write_text(path, text: str):
    """The one writer of an output file: its bytes are exactly ``text``."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path, payload: dict):
    _write_text(path, _json_text(payload) + "\n")


def _write_report(path, command: str, cfg: dict | None, body: dict):
    """A command's report: the header every report opens with, then ``body``."""
    echo = None if cfg is None else {k: v for k, v in cfg.items() if not k.startswith("_")}
    _write_json(path, {"command": command, "schema": _SCHEMA_VERSION, "config_echo": echo, **body})


def _write_wall(out_dir, t_start: float, **extra):
    """The run's only clock readings: the ``timings_wall.json`` sidecar
    and one ``wall`` line on stderr."""
    wall = {"total_seconds": time.perf_counter() - t_start, **extra}
    _write_json(os.path.join(out_dir, "timings_wall.json"), {"wall": wall})
    print(f"wall {wall['total_seconds']:.2f}s", file=sys.stderr)


def _oracle(model) -> np.ndarray:
    """The reference eigenvalues of A - B, from one dense solve."""
    return oracle_eigenvalues(np.diag(model.spectrum.position_values) - model.perturbation.data)


# -- analyze ------------------------------------------------------------------


def _pipeline_for(model, requested: str) -> str:
    """The similarity pipeline a run takes; "auto" and "split" choose one
    by the model."""
    if requested not in ("auto", "split"):
        return requested
    if model.name == "dirac":
        return "mt4"
    q = 4.0 * model.perturbation.hs() / spectral_gap(model.spectrum)
    return "mt1" if q < 1.0 else "mt3"


def run_pipeline(model, requested: str, tols: dict) -> SimilarityResult:
    name = _pipeline_for(model, requested)
    tol = tols["fixed_point_tol"]
    max_iter = tols["max_iter"]
    margin = tols["contraction_margin"]
    spectrum = model.spectrum
    b = model.perturbation
    if name in ("mt1", "mt2"):
        return PIPELINES[name](spectrum, b, tol=tol, max_iter=max_iter)
    if name == "mt3":
        return PIPELINES["mt3"](spectrum, b, margin=margin, tol=tol, max_iter=max_iter)
    if name == "mt4":
        return pipeline_rebase(spectrum, b, margin=margin, tol=tol, max_iter=max_iter)
    raise InvalidInputError(f"unknown pipeline {name!r}")


def _gate(measured: float, threshold: float) -> dict:
    return {"measured": measured, "threshold": threshold, "satisfied": bool(measured <= threshold)}


def invariant_gates(model, result: SimilarityResult, oracle_on: bool):
    """Evaluate the always-on acceptance gates for a pipeline run.

    The spectral gate pairs one dense solve of A - B with the run's
    eigenvalue estimates.  Returns (gates, oracle_values); oracle_values
    is None when the spectral comparison was skipped.
    """
    gates = {
        "similarity_residual": _gate(result.residual, 1e-9 * result.residual_scale),
        "v_block_diagonal": _gate(result.offdiag_residual, 1e-10 * max(result.v.hs(), 1e-300)),
    }
    oracle_vals = None
    if oracle_on and model.spectrum.dim <= _ORACLE_GATE_DIM:
        oracle_vals = _oracle(model)
        estimates = [z for _, z in result.eigenvalue_estimates]
        dev = match_spectra(oracle_vals, estimates).max_abs_deviation
        # eigenvalues grow like N^2, so the solver rounding grows with max|lambda|
        gates["spectra_agree"] = _gate(dev, max(1e-8, 1e-12 * float(np.abs(oracle_vals).max())))
    return gates, oracle_vals


def _write_series(csv_dir, model, est, weights, ora, report_obj):
    """The CSV series; ``est`` and ``ora`` (None without the oracle) hold
    the estimates and the oracle values arranged by dense position.  The
    spectrum report and the weights end their rows with CRLF, the other
    two files with LF."""
    os.makedirs(csv_dir, exist_ok=True)
    spectrum = model.spectrum
    lam = spectrum.position_values
    header = "index,free_re,free_im,estimate_re,estimate_im"
    cols = [spectrum.position_index.tolist(),
            lam.real.tolist(), lam.imag.tolist(), est.real.tolist(), est.imag.tolist()]
    row = "%d,%r,%r,%r,%r\n"
    if ora is not None:
        header += ",oracle_re,oracle_im"
        cols += [ora.real.tolist(), ora.imag.tolist()]
        row = "%d,%r,%r,%r,%r,%r,%r\n"
    _write_text(os.path.join(csv_dir, "spectrum_scatter.csv"),
                header + "\n" + "".join([row % cells for cells in zip(*cols)]))
    if report_obj is not None:
        lines = ["index,abs_b,residual,alpha\n"]
        for r in report_obj.rows:
            alpha = "" if weights is None else repr(weights.alpha_of(r["index"]))
            lines.append(f"{r['index']},{math.hypot(*r['b'])!r},{r['residual']!r},{alpha}\n")
        _write_text(os.path.join(csv_dir, "deviation_decay.csv"), "".join(lines))
        # the columns are the row keys in order; a (re, im) pair takes two
        first = report_obj.rows[0]
        header = ",".join(f"{k}_re,{k}_im" if type(v) is tuple else k for k, v in first.items())
        cell = {tuple: "%r,%r", float: "%r", int: "%d", bool: "%d"}
        row = ",".join([cell[type(v)] for v in first.values()]) + "\r\n"
        _write_text(os.path.join(csv_dir, "spectrum_report.csv"), header + "\r\n" + "".join([
            row % tuple(c for v in r.values() for c in (v if type(v) is tuple else (v,)))
            for r in report_obj.rows]))
    if weights is not None:
        rows = zip(range(weights.max_level + 1), weights.alpha.tolist(),
                   weights.alpha_prime.tolist(), weights.alpha_tilde.tolist())
        _write_text(os.path.join(csv_dir, "weight_decay.csv"),
                    "level,alpha,alpha_prime,alpha_tilde\r\n"
                    + "".join(["%d,%r,%r,%r\r\n" % r for r in rows]))


def _points(values) -> list:
    """(re, im) pairs of a complex array, as Python floats."""
    return list(zip(values.real.tolist(), values.imag.tolist()))


def _svg_scatter(series, path, title):
    """Small self-contained scatter plot; series = [(name, color, pts)]."""
    width, height, margin = 640, 420, 56
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    # an axis span below 1e-6 max|coordinate| is rounding noise (the
    # imaginary parts of a real spectrum): widen it about its midpoint,
    # so that the noise neither sets the scale nor moves a point
    floor = 1e-6 * max(max(map(abs, xs)), max(map(abs, ys)))

    def axis_range(vals):
        lo, hi = min(vals), max(vals)
        pad = max(hi - lo, floor) or 1.0
        grow = 0.5 * (pad - (hi - lo))
        return lo - grow - 0.05 * pad, hi + grow + 0.05 * pad

    xmin, xmax = axis_range(xs)
    ymin, ymax = axis_range(ys)

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
        circle = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" fill-opacity="0.75"/>'
        parts += [circle % (sx(x), sy(y)) for x, y in pts]
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
    _write_text(path, "\n".join(parts) + "\n")


def cmd_analyze(cfg: dict, out_dir: str, quiet: bool) -> int:
    requested = cfg["pipeline"]
    if requested == "split":
        return cmd_split(cfg, out_dir, quiet)
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    result = run_pipeline(model, requested, cfg["tolerances"])
    t_oracle = time.perf_counter()
    gates, oracle_vals = invariant_gates(model, result, cfg["oracle"])
    t_oracle = time.perf_counter() - t_oracle
    spectrum = model.spectrum
    csv_dir = cfg["output"].get("csv_dir")
    svg = cfg["output"].get("svg")
    weights = est = ora = report_obj = None
    # only the spectrum report and the CSV series read the weights
    if oracle_vals is not None or csv_dir is not None:
        try:
            weights = decay_weights(model.perturbation)
        except MethodConditionError:
            pass
    if oracle_vals is not None or csv_dir is not None or svg is not None:
        est = values_by_position(spectrum, [z for _, z in result.eigenvalue_estimates])
    if oracle_vals is not None:
        ora = values_by_position(spectrum, oracle_vals)
        report_obj = build_spectrum_report(
            spectrum,
            est,
            ora,
            first_order=model.first_order,
            second_order=model.second_order,
            weights=weights,
            interior_fraction=cfg["truncation"]["interior_fraction"],
        )
    timings = {
        "dimension": model.spectrum.dim,
        "iterations": dict(result.iterations),
        "stage_count": len(result.stages),
        "oracle_spectra": 0 if oracle_vals is None else 1,
    }
    report_path = os.path.join(out_dir, cfg["output"]["report"])
    _write_report(report_path, "analyze", cfg, {
        "model": model.name,
        "pipeline": result.pipeline,
        "pipeline_requested": requested,
        "stages": result.stages,
        "certificates": result.certificates,
        "invariant_gates": gates,
        "eigenvalue_estimates": [[int(k), z] for k, z in result.eigenvalue_estimates],
        "spectrum_report": None if report_obj is None else vars(report_obj),
        "timings": timings,
    })
    if csv_dir is not None:
        _write_series(os.path.join(out_dir, csv_dir), model, est, weights, ora, report_obj)
    if svg is not None:
        series = [
            ("unperturbed", "#777777", _points(spectrum.position_values)),
            ("estimates", "#c0392b", _points(est)),
        ]
        if oracle_vals is not None:
            # in the oracle's (re, im) order, which fixes the order of the circles
            series.append(("reference", "#2e6da4", _points(oracle_vals)))
        _svg_scatter(series, os.path.join(out_dir, svg), "spectrum")
    _write_wall(out_dir, t_start, oracle_seconds=t_oracle)
    if not quiet:
        print(f"pipeline {result.pipeline}: residual {result.residual:.3e} "
              f"(scale {result.residual_scale:.3e}), report {report_path}")
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
    # the split refuses a k outside the window before the constants see it
    result = split_eigenpair(
        model.spectrum, model.perturbation, k,
        tol=min(tols["fixed_point_tol"], 1e-13),
        max_iter=tols["max_iter"],
    )
    published = None
    if model.name == "kernel":
        published = certificate_from_constants(**kernel_split_constants(k))
    oracle_info = None
    t_oracle = 0.0
    if cfg["oracle"]:
        t_oracle = time.perf_counter()
        vals = _oracle(model)
        nearest = vals[int(np.argmin(np.abs(vals - result.lam_prime)))]
        oracle_info = {
            "nearest": complex(nearest),
            "deviation": float(abs(nearest - result.lam_prime)),
        }
        t_oracle = time.perf_counter() - t_oracle
    report_path = os.path.join(out_dir, cfg["output"]["report"])
    _write_report(report_path, "split", cfg, {
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
        "window_bounds": vars(result.bounds),
        "published_bounds": None if published is None else vars(published),
        "operator_norm_condition": operator_norm_condition(model.perturbation.hs(),
                                                           result.bounds.s),
        "oracle": oracle_info,
        "timings": {
            "dimension": model.spectrum.dim,
            "iterations": result.iterations,
            "oracle_spectra": 0 if oracle_info is None else 1,
        },
    })
    _write_wall(out_dir, t_start, oracle_seconds=t_oracle)
    if not quiet:
        lp = result.lam_prime
        print(f"split k={k}: lambda' = {lp.real:.9g}{lp.imag:+.9g}i, "
              f"|b2| = {abs(result.b2):.3e} <= {result.bounds.bound_b2:.3e}, "
              f"report {report_path}")
    return 0


# -- verify -------------------------------------------------------------------


def _random_block_matrix(rng, top: int) -> BlockMatrix:
    """A complex Gaussian matrix on a coarse partition of -n..n, 3 <= n < top."""
    n = int(rng.integers(3, top))
    spec = Spectrum(np.arange(-n, n + 1), 2j * np.pi * np.arange(-n, n + 1))
    part = Partition.coarse(spec, int(rng.integers(0, n)))
    return BlockMatrix(part, rng.normal(size=(spec.dim, spec.dim))
                       + 1j * rng.normal(size=(spec.dim, spec.dim)))


def _check_dual_oracle(rng, cfg):
    """Two independent eigensolvers on random small matrices."""
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v1 = oracle_eigenvalues(a, cross_check=False)
        v2 = charpoly_eigenvalues(a)
        scale = max(1.0, float(np.abs(v1).max()))
        worst = max(worst, match_spectra(v1, v2).max_abs_deviation / scale)
    return worst <= 1e-10, f"100 random matrices, worst relative deviation {worst:.2e}"


def _check_norm_chain(rng, cfg):
    """op <= block <= full on random block matrices."""
    for _ in range(20):
        x = _random_block_matrix(rng, 9)
        op, block, full = x.op(), x.hs_sigma(), x.hs()
        if not (op <= block + 1e-9 * full and block <= full + 1e-9 * full):
            return False, f"violated: op={op}, block={block}, full={full}"
    return True, "20 random block matrices ordered correctly"


def _check_commutator_identity(rng, cfg):
    """The transform identity A(GX) - (GX)A = X - JX."""
    for _ in range(10):
        x = _random_block_matrix(rng, 8)
        res = commutator_residual(x)
        if res > 1e-12 * max(x.hs(), 1.0):
            return False, f"residual {res:.2e}"
    return True, "10 random transforms within 1e-12"


def _check_pipeline_invariants(rng, cfg):
    """The invariant gates on a small built-in problem, or the config's."""
    if cfg is not None:
        model = build_model(cfg)
        result = run_pipeline(model, cfg["pipeline"], cfg["tolerances"])
    else:
        model = model_lib.kernel_model(24)
        result = run_pipeline(model, "mt1", default_config()["tolerances"])
    gates, _ = invariant_gates(model, result, True)
    bad = [k for k, g in gates.items() if not g["satisfied"]]
    if bad:
        return False, f"failed gates: {', '.join(bad)}"
    return True, "gates " + ", ".join(f"{k}={g['measured']:.2e}" for k, g in gates.items())


def _check_split_consistency(rng, cfg):
    """Split eigenvalues against the reference spectrum."""
    model = model_lib.kernel_model(32)
    spectrum, b = model.spectrum, model.perturbation
    vals = _oracle(model)
    devs = [float(np.abs(vals - split_eigenpair(spectrum, b, k).lam_prime).min()) for k in (0, 1)]
    return (all(dev <= 1e-9 for dev in devs),
            "; ".join(f"k={k}: dev {dev:.2e}" for k, dev in enumerate(devs)))


def _check_coupling_inequality(rng, cfg):
    """The quartic coupling inequality on random real potentials."""
    for _ in range(5):
        co = random_trig_coeffs(rng, degree=4, scale=1.0, real=True)
        lhs, rhs = involution_offdiag_energy(co, 10)
        if lhs > rhs:
            return False, f"lhs {lhs:.4e} > rhs {rhs:.4e}"
    return True, "5 random potentials within the quartic bound"


def _check_weight_sanity(rng, cfg):
    """The decay weights start at 1 and do not increase."""
    w = decay_weights(model_lib.kernel_model(32).perturbation)
    mono = bool(np.all(np.diff(w.alpha) <= 1e-12))
    return (float(w.alpha[0]) == 1.0 and mono,
            f"alpha0 = {float(w.alpha[0])!r}, nonincreasing = {mono}")


# (name, severity of a failed check, check) in the order the checks draw
# from the one seeded generator; a check that raises takes the exit code
# of its exception instead
_VERIFY_CHECKS = (
    ("dual_oracle", 4, _check_dual_oracle),
    ("norm_chain", 5, _check_norm_chain),
    ("commutator_identity", 5, _check_commutator_identity),
    ("pipeline_invariants", 5, _check_pipeline_invariants),
    ("split_consistency", 5, _check_split_consistency),
    ("coupling_inequality", 5, _check_coupling_inequality),
    ("weight_sanity", 5, _check_weight_sanity),
)


def _verify_battery(seed: int, quiet: bool, cfg: dict | None):
    rng = np.random.default_rng(seed)
    checks = []
    for name, severity, check in _VERIFY_CHECKS:
        try:
            passed, detail = check(rng, cfg)
        except SimspecError as exc:
            passed, detail, severity = False, str(exc), _failure(exc)[0]
        checks.append({"name": name, "passed": bool(passed), "detail": detail,
                       "severity": severity})
        if not quiet:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return checks


def cmd_verify(cfg: dict | None, out_dir: str, seed: int, quiet: bool) -> int:
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    checks = _verify_battery(seed, quiet, cfg)
    _write_report(os.path.join(out_dir, "verify_report.json"), "verify", cfg, {
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    })
    _write_wall(out_dir, t_start)
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


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process at the first call."""
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
        sp.add_argument("--seed", type=_seed, default=None, help="seed for randomized checks")
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
        if cfg is None and args.command != "verify":
            cfg = validate_config({})
        if cfg is not None and args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "verify":
            seed = cfg["seed"] if cfg else (_DEFAULT_SEED if args.seed is None else args.seed)
            return cmd_verify(cfg, args.out, seed, args.quiet)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.out, args.quiet)
        return cmd_split(cfg, args.out, args.quiet)
    except (SimspecError, OSError) as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
