"""Span tracing of simspec from outside the package.

``install`` wraps a fixed set of public functions of every simspec
module.  Each wrapper is bound wherever the original is bound: in its
own module, in every module that imported it by name, in the package
namespace and in dict tables such as ``similarity.PIPELINES``.  A call
records one span ``[name, start, end, parent, note]`` in memory; the
spans are written out when the operation ends.

``layer_metrics`` turns the spans of one operation into the per-layer
metrics.  Times are inclusive: a span contains the spans of the calls
it made, and a name that re-enters itself counts only its outermost
span.  Stage times without a public function of their own come from
span timestamps.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, owner, attribute, span name); owner is a class name or None
TRACED = [
    ("cli", None, "main", "cli.main"),
    ("cli", None, "cmd_analyze", "cli.cmd_analyze"),
    ("cli", None, "cmd_split", "cli.cmd_split"),
    ("cli", None, "invariant_gates", "cli.invariant_gates"),
    ("models", None, "kernel_model", "models.build"),
    ("models", None, "involution_model", "models.build"),
    ("models", None, "hill_model", "models.build"),
    ("models", None, "dirac_model", "models.build"),
    ("opmatrix", "BlockMatrix", "__matmul__", "opmatrix.matmul"),
    ("opmatrix", "BlockMatrix", "block_spectral_sq", "opmatrix.block_norm"),
    ("opmatrix", None, "operator_norm_estimate", "opmatrix.op_norm"),
    ("opmatrix", None, "inv_identity_plus", "opmatrix.inverse"),
    ("transforms", None, "commutator_inverse", "transforms.commutator_inverse"),
    ("weighted", None, "decay_weights", "weighted.decay_weights"),
    ("weighted", None, "factorize", "weighted.factorize"),
    ("weighted", None, "select_coarsening", "weighted.select_coarsening"),
    ("similarity", None, "pipeline_contraction", "similarity.pipeline_contraction"),
    ("similarity", None, "pipeline_block_norm", "similarity.pipeline_block_norm"),
    ("similarity", None, "pipeline_coarse", "similarity.pipeline_coarse"),
    ("similarity", None, "pipeline_rebase", "similarity.pipeline_rebase"),
    ("similarity", None, "fixed_point", "similarity.fixed_point"),
    ("similarity", None, "contraction_step", "similarity.step"),
    ("similarity", None, "preliminary_transform", "similarity.preliminary"),
    ("similarity", None, "similarity_residual", "similarity.assembly"),
    ("similarity", None, "block_eigenvalue_estimates", "similarity.assembly"),
    ("similarity", None, "diagonal_asymptotics", "similarity.assembly"),
    ("splitting", None, "split_system", "splitting.system"),
    ("splitting", None, "split_certificate", "splitting.certificate"),
    ("splitting", None, "split_eigenpair", "splitting.iterate"),
    ("verify", None, "oracle_eigenvalues", "verify.oracle"),
    ("verify", None, "build_spectrum_report", "verify.report"),
]


def _matmul_flops(a, b) -> float:
    """8 d^3 real flops of one dense complex d x d product."""
    return 8.0 * float(a.data.shape[0]) ** 3


NOTES = {"opmatrix.matmul": _matmul_flops}


class Tracer:
    """Collects the spans of the wrapped calls made in this process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1,
                    note(*args) if note else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every TRACED function at each place simspec binds it."""
        import simspec.cli  # noqa: F401  imports every simspec module

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "simspec" or n.startswith("simspec."))]
        for mod_name, owner, attr, span_name in TRACED:
            home = sys.modules[f"simspec.{mod_name}"]
            if owner is not None:
                cls = getattr(home, owner)
                setattr(cls, attr, self.wrap(span_name, cls.__dict__[attr]))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(span_name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapped


# -- metrics ---------------------------------------------------------------


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _descendants(kids, i):
    todo = list(kids[i])
    while todo:
        j = todo.pop()
        yield j
        todo.extend(kids[j])


TWO_STAGE = ("similarity.pipeline_coarse", "similarity.pipeline_rebase")


def layer_metrics(spans, report: dict) -> dict:
    """Per-layer metrics of one traced operation, as {name: value}."""
    kids = _children(spans)

    def total(*names):
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, set(names)))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    scan = rebase = 0.0
    for i, s in enumerate(spans):
        if s[0] not in TWO_STAGE:
            continue
        inner = sorted(_descendants(kids, i), key=lambda j: spans[j][1])
        prelim = next((spans[j] for j in inner if spans[j][0] == "similarity.preliminary"), None)
        if prelim is None:
            continue
        scan += prelim[1] - s[1]
        if s[0] == "similarity.pipeline_rebase":
            weights = next((spans[j] for j in inner if spans[j][0] == "weighted.decay_weights"
                            and spans[j][1] >= prelim[2]), None)
            if weights is not None:
                rebase += weights[1] - prelim[2]

    write = 0.0
    for i in _outermost(spans, {"cli.cmd_analyze", "cli.cmd_split"}):
        if kids[i]:
            write += spans[i][2] - max(spans[j][2] for j in kids[i])

    steps = [s[2] - s[1] for s in spans if s[0] == "similarity.step"]
    return {
        "models.build_s": total("models.build"),
        "similarity.smoothing_scan_s": scan,
        "similarity.preliminary_s": total("similarity.preliminary"),
        "similarity.rebase_s": rebase,
        "similarity.fixed_point_s": total("similarity.fixed_point"),
        "similarity.fixed_point_iters": len(steps),
        "similarity.step_s": statistics.median(steps) if steps else 0.0,
        "similarity.assembly_s": total("similarity.assembly"),
        "weighted.decay_weights_s": total("weighted.decay_weights"),
        "weighted.factorize_s": total("weighted.factorize"),
        "weighted.factorize_calls": calls("weighted.factorize"),
        "weighted.select_coarsening_s": total("weighted.select_coarsening"),
        "opmatrix.matmul_s": total("opmatrix.matmul"),
        "opmatrix.matmul_calls": calls("opmatrix.matmul"),
        "opmatrix.matmul_gflop": sum(s[4] for s in spans if s[0] == "opmatrix.matmul") / 1e9,
        "opmatrix.block_norm_s": total("opmatrix.block_norm"),
        "opmatrix.block_norm_calls": calls("opmatrix.block_norm"),
        "opmatrix.op_norm_s": total("opmatrix.op_norm"),
        "opmatrix.op_norm_calls": calls("opmatrix.op_norm"),
        "opmatrix.inverse_s": total("opmatrix.inverse"),
        "transforms.commutator_inverse_s": total("transforms.commutator_inverse"),
        "transforms.commutator_inverse_calls": calls("transforms.commutator_inverse"),
        "verify.oracle_s": total("verify.oracle"),
        "verify.oracle_calls": calls("verify.oracle"),
        "verify.report_s": total("verify.report"),
        "cli.gates_s": total("cli.invariant_gates"),
        "cli.write_s": write,
        "splitting.system_s": total("splitting.system"),
        "splitting.certificate_s": total("splitting.certificate"),
        "splitting.iterate_s": total("splitting.iterate"),
        "splitting.iters": report.get("iterations", 0) if report.get("command") == "split" else 0,
    }
