"""The benchmark's two fixed workloads and how each one's output is checked.

Inputs do not depend on the seed: every workload is one fixed config.
The seed is passed to the CLI as ``--seed`` and must come back in the
report's ``config_echo``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# acceptance criterion 5 of the dirac family
DIRAC_POTENTIALS = {
    "v1": {0: 0.15},
    "v2": {1: 0.1, -1: 0.1},
    "v3": {0: 0.1},
    "v4": {2: 0.05, -2: 0.05},
}


def _json_coeffs(coeffs: dict) -> dict:
    return {str(k): v for k, v in coeffs.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    pipeline: str
    build_reference: Callable
    check_report: Callable

    @property
    def half_width(self) -> int:
        return self.config["truncation"]["half_width"]

    def prepare(self, src_dir: str):
        """Reference data for the checks, computed once per run."""
        return self.build_reference(self, src_dir)

    def check(self, out_dir: str, prepared, seed: int) -> list:
        """Failure messages for one operation's output directory."""
        path = os.path.join(out_dir, self.config["output"]["report"])
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        try:
            return self.check_report(self, report, out_dir, prepared, seed)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed report: {exc!r}"]


# -- reference data -------------------------------------------------------


def _prepare_dirac(w, src_dir):
    lam, b = ref.dirac_matrix(w.half_width, **DIRAC_POTENTIALS)
    ungauged = ref.reference_eigenvalues(lam, b)
    # the gauge moves the truncation edge, so all estimates are compared
    # with the program's own gauged matrix, solved here by LAPACK
    sys.path.insert(0, src_dir)
    from simspec.models import dirac_model

    gauged_b = dirac_model(w.half_width, **DIRAC_POTENTIALS, gauge=True).perturbation.dense()
    return {
        "ungauged": ungauged,
        "gauged": ref.reference_eigenvalues(lam, gauged_b),
        "scale": ref.problem_scale(lam, b),
        "gauged_scale": ref.problem_scale(lam, gauged_b),
    }


def _prepare_split(w, src_dir):
    lam, b = ref.kernel_matrix(w.half_width)
    return ref.kernel_eigenvalue_near(w.half_width, -1.0), ref.problem_scale(lam, b)


# -- checks ----------------------------------------------------------------

# interior of the dirac window, 3/4 of its N = 24, where the gauged and
# the ungauged truncations agree to rounding
DIRAC_INTERIOR = 18


def _check_dirac(w, report, out_dir, prepared, seed):
    fails = ref.check_certified_analyze(report, w.pipeline, seed)
    labels, est = ref.estimates_of(report)
    fails += ref.check_spectrum("dirac gauged A-B", prepared["gauged"], est, prepared["gauged_scale"])
    ungauged = prepared["ungauged"]
    near = np.abs(np.round(ungauged.real / (2.0 * np.pi))) <= DIRAC_INTERIOR
    fails += ref.check_spectrum(
        f"dirac ungauged A-B, |n| <= {DIRAC_INTERIOR}",
        ungauged[near],
        est[np.abs(labels) <= DIRAC_INTERIOR],
        prepared["scale"],
    )
    return fails + check_series(out_dir, prepared["gauged"].size)


def check_series(out_dir, n_values):
    """The CSV series and the SVG scatter of an `analyze` run exist, and
    the scatter has one row per eigenvalue."""
    fails = []
    scatter = os.path.join(out_dir, "series", "spectrum_scatter.csv")
    try:
        with open(scatter) as fh:
            rows = sum(1 for _ in fh) - 1
    except OSError:
        rows = -1
    if rows != n_values:
        fails.append(f"spectrum_scatter.csv has {rows} rows, expected {n_values}")
    for name in ("deviation_decay.csv", "weight_decay.csv", "spectrum_report.csv"):
        if not os.path.isfile(os.path.join(out_dir, "series", name)):
            fails.append(f"series/{name} not written")
    if not os.path.isfile(os.path.join(out_dir, "spectrum.svg")):
        fails.append("spectrum.svg not written")
    return fails


def _check_split(w, report, out_dir, prepared, seed):
    root, scale = prepared
    return ref.check_split(report, root, scale, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dirac-mt4",
            "analyze",
            {
                "schema": 1,
                "model": {
                    "family": "dirac",
                    "gauge": True,
                    "potentials": {k: _json_coeffs(v) for k, v in DIRAC_POTENTIALS.items()},
                },
                "truncation": {"half_width": 24},
                "pipeline": "mt4",
                "oracle": True,
                "output": {"report": "report.json", "csv_dir": "series", "svg": "spectrum.svg"},
            },
            "mt4",
            _prepare_dirac,
            _check_dirac,
        ),
        Workload(
            "kernel-split",
            "split",
            {
                "schema": 1,
                "model": {"family": "kernel"},
                "truncation": {"half_width": 512},
                "split_k": 0,
                "tolerances": {"fixed_point_tol": 1e-13, "max_iter": 300},
                "oracle": False,
                "output": {"report": "report.json"},
            },
            "split",
            _prepare_split,
            _check_split,
        ),
    )
}
