"""One fresh process per measured command.

    python3 child.py ROOT RESULT_JSON MODE -- <diriter CLI arguments>

MODE is one of
  run    call diriter.cli.main once, untraced;
  trace  the same with the layer wrappers of spans.py installed;
  setup  stop at the command's first call into the solver and record the
         monotonic clock there (the end of set-up).

The result file holds the exit code, the wall time of ``main`` and, in trace
mode, the spans. Only the standard library and the program are imported
before ``main`` runs, so untraced timings carry no benchmark code.
"""

import sys
import time


class _SetupDone(Exception):
    pass


# The names diriter.cli looks up once grid, data fields and IterationConfig exist.
_SOLVER_ENTRIES = ("dirichlet_iterate", "run_sweep", "exhaustion_solve")


def _stop_at_solver(cli, marks):
    def stop(*args, **kwargs):
        marks["t_setup"] = time.monotonic()
        raise _SetupDone

    for name in _SOLVER_ENTRIES:
        if hasattr(cli, name):
            setattr(cli, name, stop)


def main(argv):
    root, result_path, mode = argv[1], argv[2], argv[3]
    cli_args = argv[argv.index("--") + 1 :]
    sys.path.insert(0, f"{root}/src")
    import diriter.cli as cli

    if not cli.__file__.startswith(f"{root}/src/"):
        raise SystemExit(f"imported diriter from {cli.__file__}, not from {root}/src")
    result = {"mode": mode}
    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        result["missing_sites"] = spans.install(recorder)
    elif mode == "setup":
        _stop_at_solver(cli, result)

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["rc"] = rc
    if recorder is not None:
        result["spans"] = recorder.spans
        result["events"] = recorder.events

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
