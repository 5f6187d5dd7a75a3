"""The one-pass writers of report.json, the CSV series and the SVG
write exactly the bytes of the json.dumps, csv.writer and per-point
loops they replace; those old forms live here as the references."""

import csv
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simspec import cli
from simspec.verify import SpectrumReport

# -- old forms -------------------------------------------------------------------


def old_jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (complex, np.complexfloating)):
        return [old_jsonify(float(obj.real)), old_jsonify(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return [old_jsonify(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def old_json_bytes(payload) -> bytes:
    return (json.dumps(old_jsonify(payload), sort_keys=True, indent=2) + "\n").encode()


def old_weights_to_csv(w, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "alpha", "alpha_prime", "alpha_tilde"])
        tilde = w.alpha_tilde
        for h in range(w.max_level + 1):
            writer.writerow(
                [h, repr(float(w.alpha[h])), repr(float(w.alpha_prime[h])), repr(float(tilde[h]))]
            )


_ROW_FIELDS = (
    "index", "lambda", "estimate", "first_order", "second_order", "oracle", "b",
    "residual", "flagged",
)
_PAIR_FIELDS = frozenset(("lambda", "estimate", "first_order", "second_order", "oracle", "b"))


def _old_csv_cells(name, value):
    if name in _PAIR_FIELDS:
        return [repr(value[0]), repr(value[1])]
    if name == "flagged":
        return [int(value)]
    if name == "index":
        return [value]
    return [repr(value)]


def old_report_to_csv(report, path):
    header = [col for name in _ROW_FIELDS
              for col in ([f"{name}_re", f"{name}_im"] if name in _PAIR_FIELDS else [name])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in report.rows:
            writer.writerow([c for name in _ROW_FIELDS for c in _old_csv_cells(name, row[name])])


def old_write_series(csv_dir, model, est, weights, ora, report_obj):
    os.makedirs(csv_dir, exist_ok=True)
    spectrum = model.spectrum
    path = os.path.join(csv_dir, "spectrum_scatter.csv")
    with open(path, "w") as fh:
        cols = "index,free_re,free_im,estimate_re,estimate_im"
        fh.write(cols + (",oracle_re,oracle_im\n" if ora is not None else "\n"))
        for pos in range(spectrum.dim):
            n = int(spectrum.position_index[pos])
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
        old_weights_to_csv(weights, os.path.join(csv_dir, "weight_decay.csv"))


def old_svg_scatter(series, path, title):
    """The per-point loop, with the points as numpy scalars."""
    width, height, margin = 640, 420, 56
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
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
        parts.append(f'<line x1="{sx(0):.2f}" y1="{margin}" x2="{sx(0):.2f}" '
                     f'y2="{height - margin}" stroke="#ccc"/>')
    if ymin < 0.0 < ymax:
        parts.append(f'<line x1="{margin}" y1="{sy(0):.2f}" x2="{width - margin}" '
                     f'y2="{sy(0):.2f}" stroke="#ccc"/>')
    for si, (name, color, pts) in enumerate(series):
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}" fill-opacity="0.75"/>')
        ly = margin + 16 + 16 * si
        parts.append(f'<circle cx="{margin + 12}" cy="{ly - 4}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{margin + 22}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{name}</text>')
    for x, anchor in ((xmin, "start"), (xmax, "end")):
        parts.append(f'<text x="{sx(x):.2f}" y="{height - margin + 16}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="11">{x:.4g}</text>')
    for y in (ymin, ymax):
        parts.append(f'<text x="{margin - 6}" y="{sy(y):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{y:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# -- report.json -------------------------------------------------------------------

_KEYS = st.one_of(st.integers(-12, 12), st.text(max_size=4))
_NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
)
_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(),  # nan and +-inf included
    st.text(),  # non-ASCII and control characters included
    st.complex_numbers(),
    _NUMPY_SCALARS,
    _ARRAYS,
    st.sampled_from([Fraction(1, 3), range(3), b"\x00bytes"]),  # written as their repr
)
# lists of floats take the one-join path while all are finite, the item path otherwise
_FLOAT_LISTS = st.lists(st.one_of(st.floats(), st.floats().map(np.float64)), max_size=5)
_PAYLOADS = st.recursive(
    st.one_of(_LEAVES, _FLOAT_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(payload=st.dictionaries(_KEYS, _PAYLOADS, max_size=5))
def test_write_json_matches_indented_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        cli._write_json(path, payload)
        with open(path, "rb") as fh:
            assert fh.read() == old_json_bytes(payload)


@pytest.mark.parametrize("payload", [
    {},
    {"a": [], "b": {}, "c": ()},
    {10: 1, 9: 2, "10": 3},  # str keys sort "10" before "9"; the later "10" wins
    {"x": [1.5, -0.0, 1e-300, 2.5e300], "y": [1.5, float("nan")], "z": [float("-inf")]},
    {"s": "\x00\x1fé ퟿\"\\/"},
    {"t": (True, np.bool_(False), np.int8(-3), np.float16(0.5), 1 + 2j, None)},
])
def test_write_json_edge_cases(tmp_path, payload):
    path = tmp_path / "r.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == old_json_bytes(payload)


# -- CSV series and SVG ----------------------------------------------------------------

_POT = {"0": 0.2, "1": [0.08, 0.0], "-1": [0.08, 0.0]}
_ZERO = {}


def _dirac_config(pot, pipeline, oracle):
    return {
        "model": {"family": "dirac", "potentials": {v: pot for v in ("v1", "v2", "v3", "v4")}},
        "truncation": {"half_width": 8},
        "pipeline": pipeline,
        "oracle": oracle,
        "output": {"report": "report.json", "csv_dir": "series", "svg": "spectrum.svg"},
    }


def _files(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(base, name), "rb") as fh:
                out[os.path.relpath(os.path.join(base, name), root)] = fh.read()
    return out


@pytest.mark.parametrize("pot, pipeline, oracle, branch", [
    (_POT, "mt4", True, "oracle on"),
    (_POT, "mt4", False, "oracle off"),
    (_ZERO, "mt1", True, "no weights"),
])
def test_series_and_svg_match_the_old_loops(tmp_path, monkeypatch, pot, pipeline, oracle, branch):
    calls = {}

    def spy(name, fn):
        def wrapped(*args):
            calls[name] = args
            return fn(*args)
        monkeypatch.setattr(cli, name, wrapped)

    spy("_write_series", cli._write_series)
    spy("_svg_scatter", cli._svg_scatter)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_dirac_config(pot, pipeline, oracle)))
    new_dir = tmp_path / "new"
    assert cli.main(["analyze", "--config", str(cfg_path), "--out", str(new_dir), "--quiet"]) == 0

    csv_dir, model, est, weights, ora, report_obj = calls["_write_series"]
    assert (ora is None) == (branch == "oracle off")
    assert (weights is None) == (branch == "no weights")
    old_dir = tmp_path / "old"
    old_write_series(str(old_dir / "series"), model, est, weights, ora, report_obj)
    if report_obj is not None:
        old_report_to_csv(report_obj, old_dir / "series" / "spectrum_report.csv")
    # the old caller passed the points as numpy scalars
    series, _, title = calls["_svg_scatter"]
    old_series = [(name, color, [(np.float64(x), np.float64(y)) for x, y in pts])
                  for name, color, pts in series]
    old_svg_scatter(old_series, old_dir / "spectrum.svg", title)

    new = {k: v for k, v in _files(new_dir).items() if not k.endswith(".json")}
    old = _files(old_dir)
    assert sorted(new) == sorted(old)
    assert ("series/weight_decay.csv" in new) == (weights is not None)
    for name in old:
        assert new[name] == old[name], name


def test_report_csv_ends_rows_with_crlf(tmp_path):
    report = SpectrumReport(rows=[{
        "index": -1, "lambda": (1.0, -0.0), "estimate": (0.5, 1e-300),
        "first_order": (0.0, 0.0), "second_order": (2.5e300, -1.0), "oracle": (3.0, 4.0),
        "b": (0.1, 0.2), "residual": 5e-17, "flagged": True,
    }], tail_stats={}, matching_quality=0.0)
    report.to_csv(tmp_path / "new.csv")
    old_report_to_csv(report, tmp_path / "old.csv")
    text = (tmp_path / "new.csv").read_bytes()
    assert text == (tmp_path / "old.csv").read_bytes()
    assert text.count(b"\r\n") == 2
