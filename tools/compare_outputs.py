"""Compare the CLI outputs of the working tree with those of another revision.

    python3 tools/compare_outputs.py BASE_REV

Run from the repository root.  The script extracts BASE_REV's ``src/``
with ``git archive``, runs the fixed run list below against that tree
and against the working tree's ``src/`` (``--seed 7``, one BLAS thread),
and compares for each run the exit code, stdout, stderr and every output
file.  ``timings_wall.json`` holds clock readings, so it is compared by
shape only: its keys, with every number masked.  The output directory,
the source directory (numpy warnings name it) and the ``wall ...s`` line
are masked before the text is compared.  It prints one line per run and exits 1 if
any run differs.  Under a differing run it names what moved: up to
10 differing leaf paths of a JSON file, with both values (and, for two
floats, their relative change |new - old| / |old|), and the first
differing line of stdout, stderr or any other file (a CSV row).  Its
last line gives the number of lines in the ``.py`` files of
``src/simspec`` in both trees.

The dirac potentials and the two benchmark workload configs are read
from ``bench/workloads.py`` in a child process, so that this script
itself needs nothing beyond the standard library.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

SEED = "7"
# files of clock readings, compared by their key structure alone
SHAPE_ONLY_FILES = {"timings_wall.json"}
MAX_JSON_PATHS = 10
_WALL = re.compile(r"wall \d+\.\d+s")
_ABSENT = object()

_LOAD_WORKLOADS = (
    "import json, sys\n"
    "sys.path.insert(0, 'bench')\n"
    "from workloads import DIRAC_POTENTIALS, WORKLOADS\n"
    "print(json.dumps({'potentials': DIRAC_POTENTIALS,\n"
    "                  'workloads': {n: w.config for n, w in WORKLOADS.items()}}))\n"
)


def run_list(repo: str) -> list:
    """(name, command, config or None[, extra files]) for every compared
    run; the extra files map a file name next to the config to its text."""
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", _LOAD_WORKLOADS], cwd=repo, check=True,
        capture_output=True, text=True,
    ).stdout)
    pots, workloads = loaded["potentials"], loaded["workloads"]

    def demo(name):
        with open(os.path.join(repo, "demos", "configs", name)) as fh:
            return json.load(fh)

    def cfg(model, half_width, pipeline, csv=False, svg=False, **extra):
        output = {"report": "report.json"}
        if csv:
            output["csv_dir"] = "series"
        if svg:
            output["svg"] = "spectrum.svg"
        return {"schema": 1, "model": model, "truncation": {"half_width": half_width},
                "pipeline": pipeline, "output": output, **extra}

    def coeff_csv(coeffs):
        """A coefficient map as the text of a ``k,re,im`` file with a header."""
        pairs = {k: v if isinstance(v, list) else [v, 0.0] for k, v in coeffs.items()}
        return "k,re,im\n" + "".join(f"{k},{float(re)!r},{float(im)!r}\n"
                                     for k, (re, im) in pairs.items())

    dirac = {"family": "dirac", "gauge": True, "potentials": pots}
    ungauged = {**dirac, "gauge": False}
    zero_dirac = {"family": "dirac", "potentials": {v: {} for v in ("v1", "v2", "v3", "v4")}}
    hill5 = {"family": "hill", "theta": 0.5, "coeffs": {"1": 5, "-1": 5}}
    hill03 = {"family": "hill", "theta": 0.5, "coeffs": {"1": 0.3, "-1": 0.3}}
    hill03_file = {"family": "hill", "theta": 0.5, "coeffs_file": "v.csv"}
    dirac_v2_file = {**dirac, "potentials": {**pots, "v2": {"file": "v2.csv"}}}
    # mt4 on it rebases in a numerical eigenbasis, not a permutation
    hill_eig = {"family": "hill", "theta": 0.9,
                "coeffs": {"0": [0.45, -0.38], "1": [-0.13, 3.0], "-1": [-4.0, -2.0]}}
    # mt4 certifies only with all of JB absorbed: the diagonal of JB fails
    jb_only = {"family": "dirac", "gauge": False, "potentials": {
        "v1": {"0": 0.18}, "v2": {"-1": [0.01, 0.025], "2": [0.04, -0.05]},
        "v3": {"0": [-0.04, -0.08]},
        "v4": {"-2": -0.04, "-1": [0.07, -0.08], "0": [0.03, 0.01], "2": [0.06, 0.02]}}}
    # mt4 fails with both the diagonal of JB and all of JB
    no_frame = {"family": "dirac", "gauge": False, "potentials": {
        "v1": {"0": [0.169, 0.062], "1": [-0.153, 0.203], "-1": [-0.04, -0.088]},
        "v2": {"0": [0.147, -0.005]}, "v3": {"0": [0.022, 0.084]}, "v4": {"0": [0.099, -0.138]}}}
    overflow = {"family": "hill", "theta": 0.5, "coeffs": {"1": 1e200, "-1": 1e200}}
    # gauged dirac whose potential sum overflows, and one whose gauge
    # factor exp(-Im g) does
    sum_overflow = {"family": "dirac", "gauge": True, "potentials": {
        "v1": {}, "v2": {"1": 1.7e308, "-1": 1.7e308}, "v3": {}, "v4": {}}}
    gauge_overflow = {"family": "dirac", "gauge": True, "potentials": {
        "v1": {"1": [0, 1e5]}, "v2": {"0": 0.1}, "v3": {"0": 0.1}, "v4": {}}}
    involution = {"family": "involution", "theta": 0.3,
                  "coeffs": {"0": 0.06, "1": [0.03, -0.015], "-1": [0.03, 0.015]}}
    kernel = {"family": "kernel"}
    # a converged run whose spectra_agree gate fails on an ill-conditioned
    # eigenvalue (eigenvalue condition number 5.8e6)
    ill = {"family": "dirac", "gauge": True, "potentials": {
        "v1": {"5": [0, -44.96]}, "v2": {"0": 0.2, "1": 0.1, "-1": 0.1},
        "v3": {"0": 0.2, "1": 0.1, "-1": 0.1}, "v4": {}}}
    return [
        ("kernel_window", "analyze", demo("kernel_window.json")),
        ("kernel_sum", "analyze", demo("kernel_sum.json")),
        ("workload dirac-mt4", "analyze", workloads["dirac-mt4"]),
        ("workload kernel-split", "split", workloads["kernel-split"]),
        ("dirac N=64 mt4 csv svg", "analyze", cfg(dirac, 64, "mt4", csv=True, svg=True)),
        # dim 514 with the oracle on: the mt4 run whose time stage one dominates
        ("dirac N=128 mt4", "analyze", cfg(dirac, 128, "mt4")),
        ("dirac N=12 mt3", "analyze", cfg(dirac, 12, "mt3")),
        # converges at coarsening radius 5: a wide central group and blocks
        # of multiplicity 2
        ("dirac N=6 mt3 csv", "analyze", cfg(dirac, 6, "mt3", csv=True)),
        ("dirac ungauged N=16 mt4 csv", "analyze", cfg(ungauged, 16, "mt4", csv=True)),
        ("dirac N=16 mt4 csv svg no oracle", "analyze",
         cfg(dirac, 16, "mt4", csv=True, svg=True, oracle=False)),
        # no decay weights: an empty alpha column and no weight_decay.csv
        ("dirac zero N=8 mt1 csv svg", "analyze", cfg(zero_dirac, 8, "mt1", csv=True, svg=True)),
        ("hill5 N=64 mt3 csv svg", "analyze", cfg(hill5, 64, "mt3", csv=True, svg=True)),
        ("hill5 N=32 mt4", "analyze", cfg(hill5, 32, "mt4")),
        # auto falls back to mt3: mt1's contraction certificate fails
        ("hill5 N=32 auto", "analyze", cfg(hill5, 32, "auto")),
        ("hill eigenbasis N=11 mt4", "analyze", cfg(hill_eig, 11, "mt4")),
        ("dirac jb-only ungauged N=16 mt4", "analyze", cfg(jb_only, 16, "mt4")),
        ("dirac both frames fail ungauged N=5 mt4", "analyze", cfg(no_frame, 5, "mt4")),
        ("hill0.3 N=32 mt2", "analyze", cfg(hill03, 32, "mt2")),
        # the coefficient-file reader, with the inline runs' coefficients
        ("hill0.3 coeffs_file N=32 mt2", "analyze", cfg(hill03_file, 32, "mt2"),
         {"v.csv": coeff_csv(hill03["coeffs"])}),
        ("hill0.3 coeffs_file BOM N=32 mt2", "analyze", cfg(hill03_file, 32, "mt2"),
         {"v.csv": "\ufeff" + coeff_csv(hill03["coeffs"])}),
        ("dirac v2 file N=8 mt4", "analyze", cfg(dirac_v2_file, 8, "mt4"),
         {"v2.csv": coeff_csv(pots["v2"])}),
        ("hill0.3 split k=3 N=40", "split", cfg(hill03, 40, "auto", split_k=3)),
        ("involution N=20 mt2", "analyze", cfg(involution, 20, "mt2")),
        ("involution N=20 mt3", "analyze", cfg(involution, 20, "mt3")),
        ("involution N=20 mt4", "analyze", cfg(involution, 20, "mt4")),
        ("kernel N=64 mt3 csv", "analyze", cfg(kernel, 64, "mt3", csv=True)),
        ("kernel N=32 mt1", "analyze", cfg(kernel, 32, "mt1")),
        ("kernel N=32 mt2", "analyze", cfg(kernel, 32, "mt2")),
        # the non-convergence report of each fixed-point map, cut at two steps
        ("kernel N=32 mt1 max_iter=2", "analyze", cfg(kernel, 32, "mt1", tolerances={"max_iter": 2})),
        ("kernel split N=64 k=0 max_iter=2", "split",
         cfg(kernel, 64, "auto", split_k=0, tolerances={"max_iter": 2})),
        # off index 0 every complement coordinate is live: B22 and its SVD
        ("kernel split N=64 k=3", "split", cfg(kernel, 64, "auto", split_k=3)),
        ("kernel_sum pipeline split", "analyze", {**demo("kernel_sum.json"), "pipeline": "split"}),
        ("dirac zero N=8 pipeline split", "analyze", cfg(zero_dirac, 8, "split")),
        ("kernel theta pipeline split", "analyze", cfg({**kernel, "theta": 0.5}, 8, "split")),
        ("spectra_agree dirac N=5 mt3", "analyze", cfg(ill, 5, "mt3")),
        ("overflow hill N=8 mt3", "analyze", cfg(overflow, 8, "mt3")),
        ("overflow hill N=8 split", "split", cfg(overflow, 8, "mt3")),
        ("overflow gauged dirac N=4 mt4", "analyze", cfg(sum_overflow, 4, "mt4")),
        ("overflow gauge factor dirac N=4 mt4", "analyze", cfg(gauge_overflow, 4, "mt4")),
        ("family list analyze", "analyze", cfg({"family": ["kernel"]}, 8, "mt1")),
        # refused inputs: a k past the float range, a theta whose eigenvalues
        # overflow, and a coefficient map that names index 1 twice
        ("kernel split k=1e400", "split", cfg(kernel, 8, "auto", split_k=10**400)),
        ("involution theta 1e308", "analyze", cfg({**involution, "theta": 1e308}, 8, "mt2")),
        ("hill coeffs duplicate index", "analyze",
         cfg({**hill03, "coeffs": {"1": 0.3, "01": 0.5, "-1": 0.3}}, 8, "mt2")),
        ("verify", "verify", None),
        ("verify kernel theta N=8", "verify", cfg({**kernel, "theta": 0.5}, 8, "auto")),
        ("verify kernel N=32 mt2", "verify", cfg(kernel, 32, "mt2")),
        # the one run whose config-driven pipeline check passes (auto -> mt4)
        ("verify dirac N=8 auto", "verify", cfg(dirac, 8, "auto")),
        ("verify overflow hill N=8", "verify", cfg(overflow, 8, "mt3")),
        # the --seed 7 of every run overrides this seed only once it is valid
        ("verify config seed -1", "verify", cfg(kernel, 8, "auto", seed=-1)),
    ]


def extract_src(rev: str, dest: str) -> str:
    """BASE_REV's src/ unpacked under dest; returns the src path."""
    tar = subprocess.run(["git", "archive", rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return os.path.join(dest, "src")


def package_lines(src: str) -> int:
    """Number of lines in the ``.py`` files of ``src/simspec``."""
    pkg = os.path.join(src, "simspec")
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _shape(obj):
    """A parsed JSON document with every number replaced by ``"<num>"``."""
    if isinstance(obj, dict):
        return {key: _shape(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_shape(value) for value in obj]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return "<num>"
    return obj


def compared_bytes(fname: str, data: bytes) -> bytes:
    """What is compared of one output file: its bytes, or the shape of a
    file of clock readings."""
    if fname not in SHAPE_ONLY_FILES:
        return data
    return (json.dumps(_shape(json.loads(data)), sort_keys=True, indent=2) + "\n").encode()


def run_one(src: str, root: str, name: str, command: str, cfg, files=None) -> dict:
    """Run one CLI command in its own directory and collect what it left;
    ``files`` (name: text) are written next to the config first."""
    work = os.path.join(root, re.sub(r"\W+", "_", name))
    out = os.path.join(work, "out")
    os.makedirs(work)
    for fname, text in (files or {}).items():
        with open(os.path.join(work, fname), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    argv = [sys.executable, "-m", "simspec", command, "--out", out, "--seed", SEED]
    if cfg is not None:
        path = os.path.join(work, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv += ["--config", path]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)

    def mask(text):
        return _WALL.sub("wall <t>s", text.replace(work, "<work>").replace(src, "<src>"))

    files = {}
    for base, _, names in os.walk(out):
        for fname in names:
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = compared_bytes(fname, fh.read())
    return {"exit": proc.returncode, "stdout": mask(proc.stdout),
            "stderr": mask(proc.stderr), "files": files}


def _leaves(obj, path: str = ""):
    """(path, value) for every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _shown(value) -> str:
    return "<absent>" if value is _ABSENT else json.dumps(value)


def _leaf_change(path: str, old, new) -> str:
    """``path: old -> new``, with the relative change when both are floats."""
    line = f"{path}: {_shown(old)} -> {_shown(new)}"
    if isinstance(old, float) and isinstance(new, float):
        rel = abs(new - old) / abs(old) if old else math.inf
        line += f" (rel {rel:.1e})"
    return line


def _first_line_diff(old: str, new: str) -> list:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else "<absent>"
        b = new_lines[i] if i < len(new_lines) else "<absent>"
        if a != b:
            return [f"line {i + 1}: {a} -> {b}"]
    return []


def moved(name: str, old, new) -> list:
    """Lines naming what differs between two versions of one output.

    JSON files list up to MAX_JSON_PATHS differing leaf paths with both
    values; other text (a CSV file, stdout) gives its first differing line.
    """
    if old is None or new is None:
        return ["only in the working tree" if old is None else "only in the base"]
    if isinstance(old, bytes):
        old, new = old.decode(errors="replace"), new.decode(errors="replace")
    if name.endswith(".json"):
        try:
            a = dict(_leaves(json.loads(old)))
            b = dict(_leaves(json.loads(new)))
        except ValueError:
            pass
        else:
            paths = [p for p in {**a, **b} if a.get(p, _ABSENT) != b.get(p, _ABSENT)]
            lines = [_leaf_change(p, a.get(p, _ABSENT), b.get(p, _ABSENT))
                     for p in paths[:MAX_JSON_PATHS]]
            if len(paths) > MAX_JSON_PATHS:
                lines.append(f"... {len(paths) - MAX_JSON_PATHS} more paths")
            # equal leaves (key order, 1 against true) leave the text diff
            if lines:
                return lines
    return _first_line_diff(old, new)


def differences(a: dict, b: dict) -> list:
    """(what differs, lines naming what moved) for one run."""
    diffs = []
    if a["exit"] != b["exit"]:
        diffs.append((f"exit {a['exit']} -> {b['exit']}", []))
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            diffs.append((stream, moved(stream, a[stream], b[stream])))
    for fname in sorted(set(a["files"]) | set(b["files"])):
        old, new = a["files"].get(fname), b["files"].get(fname)
        if old != new:
            diffs.append((fname, moved(fname, old, new)))
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    repo = os.getcwd()
    runs = run_list(repo)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        sides = {"base": extract_src(args[0], os.path.join(tmp, "base_tree")),
                 "work": os.path.join(repo, "src")}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {(side, name): pool.submit(run_one, src, os.path.join(tmp, side),
                                                 name, command, cfg, *files)
                       for name, command, cfg, *files in runs for side, src in sides.items()}
            any_diff = False
            for name, *_ in runs:
                base = futures["base", name].result()
                work = futures["work", name].result()
                diffs = differences(base, work)
                any_diff = any_diff or bool(diffs)
                status = "DIFF" if diffs else "same"
                detail = "; ".join(d for d, _ in diffs) if diffs else f"exit {work['exit']}"
                print(f"{status}  {name}: {detail}")
                for what, lines in diffs:
                    for line in lines:
                        print(f"      {what}: {line}")
                sys.stdout.flush()
        print(f"src/simspec lines: base {package_lines(sides['base'])}, "
              f"work {package_lines(sides['work'])}")
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main())
