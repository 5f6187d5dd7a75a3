"""Benchmark of simspec: time to a certified spectrum.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One operation is one CLI call (`analyze`
or `split`) through ``simspec.cli.main``.  A run starts one serving
process of bench/worker.py, which imports simspec once, makes one
warm-up operation and then whole operations back to back for S
seconds.  Every output is checked against the independent computations
in bench/reference.py, the warm-up's too.

With ``--trace 0`` nine set-up probes, each a fresh interpreter, are
spread evenly over the S seconds, and the run reports the end-to-end
metrics.  With ``--trace 1`` it runs the operations untraced for S/2
seconds and then, in a second serving process, traced for S/2 seconds,
and reports the per-layer metrics plus ``trace.overhead_s``.  The last
line of standard output is the JSON result; a readable table goes to
standard error, and every run leaves its record, the reports and the
spans under .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracing import layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = ".bench_out"
SETUP_PROBES = 9
# every run must end within 180 s; no work starts after this
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: no second thread spins on the other CPU while the
# main thread runs Python, so cpu_s is the work done, not the waiting
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts worker processes with pinned BLAS threads and one deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = {**os.environ, **{k: BLAS_THREADS for k in THREAD_VARS}}

    def remaining(self, what: str) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"no time left for {what}")
        return left

    def setup_probe(self, work_dir: str, cfg_path: str) -> float:
        """Set-up time of one fresh interpreter."""
        os.makedirs(work_dir, exist_ok=True)
        result = os.path.join(work_dir, "setup.json")
        with open(os.path.join(work_dir, "setup.stderr"), "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, WORKER, "setup", result, cfg_path],
                    stdout=err, stderr=err, env=self.env, cwd=self.root,
                    timeout=self.remaining("a set-up probe"),
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"set-up probe in {work_dir} did not end before the deadline") from None
        if proc.returncode != 0 or not os.path.isfile(result):
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        with open(result) as fh:
            return json.load(fh)["setup_s"]


class Worker:
    """One serving worker process; it is stopped and waited for on every
    way out of the ``with`` block, and killed at the run's deadline."""

    def __init__(self, runner: Runner, traced: bool, log_path: str):
        self.runner = runner
        self.traced = traced
        self.log_path = log_path

    def __enter__(self):
        left = self.runner.remaining("a worker")
        self.log = open(self.log_path, "w")
        cmd = [sys.executable, WORKER, "serve"] + (["--traced"] if self.traced else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=self.runner.env, cwd=self.runner.root,
                                     text=True)
        self.watchdog = threading.Timer(left, self.proc.kill)
        self.watchdog.start()
        try:
            self.config = self._answer()["config"]
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended or was stopped at the deadline; see {self.log_path}")
        return json.loads(line)

    def op(self, argv, spans_path) -> dict:
        self.runner.remaining("an operation")
        try:
            self.proc.stdin.write(json.dumps({"argv": argv, "spans": spans_path}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"worker ended early; see {self.log_path}") from None
        return self._answer()

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=max(1.0, self.runner.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        self.log.close()
        return False


def run_ops(runner: Runner, w, cfg_path: str, seed: int, seconds: float, tag: str,
            out_dir: str, traced: bool = False, probes: int = 0):
    """A warm-up operation, then whole operations back to back for
    `seconds`; `probes` set-up probes are spread evenly over the same
    time.  Returns (warm-up, timed operations, set-up times, platform)."""
    setup = []
    with Worker(runner, traced, os.path.join(out_dir, f"{tag}.stderr")) as worker:
        def one(label):
            op_dir = os.path.join(out_dir, f"{tag}-{label}")
            argv = [w.command, "--config", cfg_path, "--out", op_dir, "--seed", str(seed), "--quiet"]
            t0 = time.monotonic()
            rec = worker.op(argv, os.path.join(op_dir, "op-traced.json") if traced else None)
            rec["dir"] = op_dir
            rec["cycle_s"] = time.monotonic() - t0
            return rec

        warm = one("warm")
        ops = []
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if len(setup) < probes and elapsed >= len(setup) * seconds / probes:
                setup.append(runner.setup_probe(os.path.join(out_dir, f"setup-{len(setup)}"), cfg_path))
                continue
            # the next operation would not end within `seconds`
            if ops and elapsed + statistics.median(r["cycle_s"] for r in ops) > seconds:
                break
            ops.append(one(len(ops)))
        while len(setup) < probes:
            setup.append(runner.setup_probe(os.path.join(out_dir, f"setup-{len(setup)}"), cfg_path))
        return warm, ops, setup, worker.config


def check_ops(w, ops, prepared, seed: int) -> None:
    for rec in ops:
        if rec.get("exit_code") is None:
            rec["failures"] = [f"CLI raised {rec.get('error')}"]
        elif rec["exit_code"] != 0:
            rec["failures"] = [f"CLI exit code {rec['exit_code']}"]
        else:
            rec["failures"] = w.check(rec["dir"], prepared, seed)


def _median(ops, key: str) -> float:
    vals = [rec[key] for rec in ops if key in rec]
    if not vals:
        raise BenchError(f"no operation produced {key}")
    return statistics.median(vals)


def _load_json(path: str, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


def traced_metrics(plain, traced) -> dict:
    per_op = [layer_metrics(_load_json(os.path.join(rec["dir"], "op-traced.json"), []),
                            _load_json(os.path.join(rec["dir"], "report.json"), {}))
              for rec in traced if "wall_s" in rec]
    if not per_op:
        raise BenchError("no traced operation produced spans")
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return metrics


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_gflop", "GFLOP")):
        if name.endswith(suffix):
            return unit
    return "count"


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "simspec", "cli.py")):
        raise BenchError(f"no simspec sources under {src}; run from the repository root")
    w = WORKLOADS[args.workload]
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    out_dir = os.path.join(root, OUT_ROOT, w.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(w.config, fh, indent=2)

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": BLAS_THREADS, "config": w.config}
    if args.trace:
        warm, plain, _, platform = run_ops(runner, w, cfg_path, args.seed, args.seconds / 2, "op", out_dir)
        warm_t, traced, _, _ = run_ops(runner, w, cfg_path, args.seed, args.seconds / 2, "op-traced",
                                       out_dir, traced=True)
        ops = [warm, *plain, warm_t, *traced]
    else:
        warm, timed, record["setup_s"], platform = run_ops(runner, w, cfg_path, args.seed, args.seconds,
                                                           "op", out_dir, probes=SETUP_PROBES)
        ops = [warm, *timed]

    # independent references, computed after the timed work
    check_ops(w, ops, w.prepare(src), args.seed)
    if args.trace:
        values = traced_metrics(plain, traced)
    else:
        values = {key: _median(timed, key) for key in ("wall_s", "cpu_s")}
        values["peak_rss_mb"] = max(rec.get("peak_rss_mb", 0.0) for rec in ops)
        values["setup_s"] = statistics.median(record["setup_s"])
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    failed = sum(1 for rec in ops if rec["failures"])
    record["platform"] = platform
    record["ops"] = ops
    record["metrics"] = metrics
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    for rec in ops:
        for msg in rec["failures"]:
            print(f"FAIL {os.path.basename(rec['dir'])}: {msg}", file=sys.stderr)
    print(f"{w.name} seed {args.seed}: {len(ops)} operations (warm-up included), {failed} failed, "
          f"BLAS threads {BLAS_THREADS}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
