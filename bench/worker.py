"""The benchmark's measured processes.

    python3 bench/worker.py setup RESULT CONFIG
        time importing simspec.cli plus loading and validating CONFIG in
        this fresh interpreter, and write {"setup_s": ...} to RESULT;
    python3 bench/worker.py serve [--traced]
        import simspec.cli once, then run one CLI operation through
        simspec.cli.main for every line of standard input.

A ``serve`` request is one JSON line ``{"argv": [...], "spans": PATH}``.
The answer is one JSON line on standard output with the exit code,
``wall_s``, ``cpu_s`` and the process's peak memory so far.  Anything
the CLI prints goes to standard error, so it cannot mix with the
answers.  With ``--traced`` the span tracer of tracing.py is installed
before the first request, and each operation's spans are written to
PATH after its clock has stopped.  The process ends at the end of its
standard input.

simspec is imported from the ``src`` directory of the current working
directory, never from an installed copy.  Only the standard library is
imported before the set-up clock starts.
"""

import json
import os
import resource
import sys
import time


def _import_cli():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import simspec.cli

    if not os.path.abspath(simspec.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"simspec imported from {simspec.cli.__file__}, not {src}")
    return simspec.cli


def _blas_config() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    return {
        "numpy": np.__version__,
        "blas": info.get("name"),
        "blas_version": info.get("version"),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(result_path: str, config_path: str) -> int:
    t0 = time.perf_counter()
    cli = _import_cli()
    cli.load_config(config_path)
    setup_s = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s}, fh)
    return 0


def _op(cli, argv) -> dict:
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the answer must come back whatever the CLI does
        return {"exit_code": None, "error": repr(exc)}
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
    }


def serve(traced: bool) -> int:
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def answer(rec: dict) -> None:
        answers.write(json.dumps(rec) + "\n")
        answers.flush()

    cli = _import_cli()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    answer({"ready": True, "config": _blas_config()})
    for line in sys.stdin:
        request = json.loads(line)
        rec = _op(cli, request["argv"])
        if tracer is not None:
            os.makedirs(os.path.dirname(request["spans"]), exist_ok=True)
            with open(request["spans"], "w") as fh:
                json.dump(tracer.spans, fh)
            tracer.spans.clear()
        answer(rec)
    return 0


def main(args) -> int:
    if len(args) == 3 and args[0] == "setup":
        return setup(args[1], args[2])
    if args and args[0] == "serve" and args[1:] in ([], ["--traced"]):
        return serve(traced=args[1:] == ["--traced"])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
