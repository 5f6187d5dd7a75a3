"""Compare the CLI outputs of the working tree with those of another revision.

    python3 tools/compare_outputs.py BASE_REV

Run from the repository root.  The script extracts BASE_REV's ``src/``
with ``git archive``, runs the fixed run list below against that tree
and against the working tree's ``src/`` (``--seed 7``, one BLAS thread),
and compares for each run the exit code, stdout, stderr and every output
file except ``timings_wall.json``.  The output directory, the source
directory (numpy warnings name it) and the ``wall ...s`` line are masked
before the text is compared.  It prints one line per run and exits 1 if
any run differs.

The dirac potentials and the two benchmark workload configs are read
from ``bench/workloads.py`` in a child process, so that this script
itself needs nothing beyond the standard library.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

SEED = "7"
SKIPPED_FILES = {"timings_wall.json"}
_WALL = re.compile(r"wall \d+\.\d+s")

_LOAD_WORKLOADS = (
    "import json, sys\n"
    "sys.path.insert(0, 'bench')\n"
    "from workloads import DIRAC_POTENTIALS, WORKLOADS\n"
    "print(json.dumps({'potentials': DIRAC_POTENTIALS,\n"
    "                  'workloads': {n: w.config for n, w in WORKLOADS.items()}}))\n"
)


def run_list(repo: str) -> list:
    """(name, command, config or None) for every compared run."""
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

    dirac = {"family": "dirac", "gauge": True, "potentials": pots}
    ungauged = {**dirac, "gauge": False}
    zero_dirac = {"family": "dirac", "potentials": {v: {} for v in ("v1", "v2", "v3", "v4")}}
    hill5 = {"family": "hill", "theta": 0.5, "coeffs": {"1": 5, "-1": 5}}
    hill03 = {"family": "hill", "theta": 0.5, "coeffs": {"1": 0.3, "-1": 0.3}}
    overflow = {"family": "hill", "theta": 0.5, "coeffs": {"1": 1e200, "-1": 1e200}}
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
        ("dirac N=12 mt3", "analyze", cfg(dirac, 12, "mt3")),
        ("dirac ungauged N=16 mt4 csv", "analyze", cfg(ungauged, 16, "mt4", csv=True)),
        ("hill5 N=64 mt3 csv svg", "analyze", cfg(hill5, 64, "mt3", csv=True, svg=True)),
        ("hill5 N=32 mt4", "analyze", cfg(hill5, 32, "mt4")),
        ("hill0.3 N=32 mt2", "analyze", cfg(hill03, 32, "mt2")),
        ("hill0.3 split k=3 N=40", "split", cfg(hill03, 40, "auto", split_k=3)),
        ("involution N=20 mt2", "analyze", cfg(involution, 20, "mt2")),
        ("involution N=20 mt3", "analyze", cfg(involution, 20, "mt3")),
        ("involution N=20 mt4", "analyze", cfg(involution, 20, "mt4")),
        ("kernel N=64 mt3 csv", "analyze", cfg(kernel, 64, "mt3", csv=True)),
        ("kernel N=32 mt1", "analyze", cfg(kernel, 32, "mt1")),
        ("kernel N=32 mt2", "analyze", cfg(kernel, 32, "mt2")),
        ("kernel_sum pipeline split", "analyze", {**demo("kernel_sum.json"), "pipeline": "split"}),
        ("dirac zero N=8 pipeline split", "analyze", cfg(zero_dirac, 8, "split")),
        ("kernel theta pipeline split", "analyze", cfg({**kernel, "theta": 0.5}, 8, "split")),
        ("spectra_agree dirac N=5 mt3", "analyze", cfg(ill, 5, "mt3")),
        ("overflow hill N=8 mt3", "analyze", cfg(overflow, 8, "mt3")),
        ("overflow hill N=8 split", "split", cfg(overflow, 8, "mt3")),
        ("verify", "verify", None),
        ("verify kernel theta N=8", "verify", cfg({**kernel, "theta": 0.5}, 8, "auto")),
        ("verify kernel N=32 mt2", "verify", cfg(kernel, 32, "mt2")),
        ("verify overflow hill N=8", "verify", cfg(overflow, 8, "mt3")),
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


def run_one(src: str, root: str, name: str, command: str, cfg) -> dict:
    """Run one CLI command in its own directory and collect what it left."""
    work = os.path.join(root, re.sub(r"\W+", "_", name))
    out = os.path.join(work, "out")
    os.makedirs(work)
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
            if fname not in SKIPPED_FILES:
                path = os.path.join(base, fname)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
    return {"exit": proc.returncode, "stdout": mask(proc.stdout),
            "stderr": mask(proc.stderr), "files": files}


def differences(a: dict, b: dict) -> list:
    diffs = []
    if a["exit"] != b["exit"]:
        diffs.append(f"exit {a['exit']} -> {b['exit']}")
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            diffs.append(stream)
    for fname in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(fname) != b["files"].get(fname):
            diffs.append(fname)
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
                                                 name, command, cfg)
                       for name, command, cfg in runs for side, src in sides.items()}
            any_diff = False
            for name, _, _ in runs:
                base = futures["base", name].result()
                work = futures["work", name].result()
                diffs = differences(base, work)
                any_diff = any_diff or bool(diffs)
                status = "DIFF" if diffs else "same"
                detail = "; ".join(diffs) if diffs else f"exit {work['exit']}"
                print(f"{status}  {name}: {detail}", flush=True)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main())
