"""tools/compare_outputs.py names the fields that moved between two runs."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


def test_json_names_leaf_paths_with_both_values():
    old = _json({"residual": 1.5, "bounds": {"m": [0.1, 0.2]}, "k": 0, "gone": True})
    new = _json({"residual": 1.25, "bounds": {"m": [0.1, 0.3]}, "k": 0, "added": None})
    assert compare_outputs.moved("report.json", old, new) == [
        "residual: 1.5 -> 1.25 (rel 1.7e-01)",
        "bounds.m[1]: 0.2 -> 0.3 (rel 5.0e-01)",
        "gone: true -> <absent>",
        "added: <absent> -> null",
    ]


def test_json_float_shows_its_relative_change():
    old = _json({"ratio": 0.16194708485590262, "zero": 0.0, "n": 3, "s": "inf"})
    new = _json({"ratio": 0.16194708485590265, "zero": 1e-300, "n": 4, "s": 1.0})
    assert compare_outputs.moved("report.json", old, new) == [
        "ratio: 0.16194708485590262 -> 0.16194708485590265 (rel 1.7e-16)",
        "zero: 0.0 -> 1e-300 (rel inf)",
        "n: 3 -> 4",
        's: "inf" -> 1.0',
    ]


def test_json_lists_at_most_ten_paths():
    old = _json({"v": list(range(12))})
    new = _json({"v": [x + 1 for x in range(12)]})
    lines = compare_outputs.moved("report.json", old, new)
    assert lines[:2] == ["v[0]: 0 -> 1", "v[1]: 1 -> 2"]
    assert len(lines) == 11 and lines[-1] == "... 2 more paths"


def test_csv_gives_the_first_differing_row():
    old = b"n,alpha\n0,1.0\n1,0.5\n2,0.25\n"
    new = b"n,alpha\n0,1.0\n1,0.5000000000000001\n2,0.2\n"
    assert compare_outputs.moved("series/weight_decay.csv", old, new) == [
        "line 3: 1,0.5 -> 1,0.5000000000000001"
    ]


def test_json_with_equal_leaves_falls_back_to_the_text():
    assert compare_outputs.moved("r.json", b'{"a": 1, "b": 2}', b'{"b": 2, "a": 1}') == [
        'line 1: {"a": 1, "b": 2} -> {"b": 2, "a": 1}'
    ]


def test_file_on_one_side_only():
    assert compare_outputs.moved("spectrum.svg", None, b"<svg/>") == ["only in the working tree"]


def test_differences_pairs_each_item_with_what_moved():
    base = {"exit": 0, "stdout": "a\nb\n", "stderr": "", "files": {"r.json": _json({"x": 1})}}
    work = {"exit": 0, "stdout": "a\nc\n", "stderr": "", "files": {"r.json": _json({"x": 2})}}
    assert compare_outputs.differences(base, work) == [
        ("stdout", ["line 2: b -> c"]),
        ("r.json", ["x: 1 -> 2"]),
    ]


def test_wall_file_is_compared_by_shape():
    old = _json({"wall": {"total_seconds": 0.51, "oracle_seconds": 0.02}})
    same = _json({"wall": {"oracle_seconds": 0.3, "total_seconds": 1.25}})
    extra = _json({"wall": {"total_seconds": 0.51, "oracle_seconds": 0.02, "gates": 0.01}})
    a = compare_outputs.compared_bytes("timings_wall.json", old)
    assert compare_outputs.compared_bytes("timings_wall.json", same) == a
    b = compare_outputs.compared_bytes("timings_wall.json", extra)
    assert compare_outputs.moved("timings_wall.json", a, b) == ['wall.gates: <absent> -> "<num>"']
    # every other file is compared as it is
    assert compare_outputs.compared_bytes("report.json", old) == old


def test_package_lines_counts_only_python_files(tmp_path):
    pkg = tmp_path / "simspec"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "a.cpython-311.pyc").write_bytes(b"\n\n\n\n")
    assert compare_outputs.package_lines(str(tmp_path)) == 3
