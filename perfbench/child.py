"""Work the benchmark runs in a fresh interpreter.

    python3 child.py setup WORKLOAD SEED WORKDIR SRC
        Import sheetsmith, then do one warm-up operation, and print the
        seconds both took, each at the calibrated reference speed, as JSON.
        Input generation between the two is not counted. Only ``sys``,
        ``time`` and the import-free ``calibrate`` are loaded before timing
        starts, so the import is as cold as a user's.

    python3 child.py cli SRC STATS_PATH ARGS...
        Run ``sheetsmith ARGS...`` as the installed script does and exit with
        its status. The calibration kernel runs once as the process starts and
        once before it exits; the last stderr line gives both times and the
        seconds they took. Unless STATS_PATH is "-", the tracer is installed
        and what it recorded is written to STATS_PATH.
"""

import sys
import time


def setup(workload_name: str, seed: str, workdir: str, src: str) -> None:
    import calibrate

    sys.path.insert(0, src)
    calibrate.kernel()  # the first call runs before the interpreter specialises it
    before_import = calibrate.kernel(3)
    started = time.perf_counter()
    import sheetsmith  # noqa: F401

    imported = time.perf_counter()
    import_speed = calibrate.speed(before_import, calibrate.kernel(3), calibrate.PROCESS_SENSITIVITY)
    import workloads

    workload = workloads.build(workload_name, int(seed), workdir, src)
    before_op = calibrate.kernel(3)
    ready = time.perf_counter()
    workloads.warm_up(workload)
    done = time.perf_counter()
    op_speed = calibrate.speed(before_op, calibrate.kernel(3))
    setup_s = (imported - started) / import_speed + (done - ready) / op_speed
    print('{"setup_s": %r, "import_speed": %r}' % (setup_s, import_speed))


def cli(src: str, stats_path: str, args: list) -> int:
    started = time.perf_counter()
    import calibrate

    calibrate.kernel()  # the first call runs before the interpreter specialises it
    before = calibrate.kernel(3)
    spent = time.perf_counter() - started
    sys.path.insert(0, src)
    from sheetsmith import cli as command

    recorder = None
    if stats_path != "-":
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
    try:
        return command.main(args)
    finally:
        sys.stdout.flush()
        if recorder:
            import json

            with open(stats_path, "w", encoding="utf-8") as handle:
                json.dump(recorder.dump(), handle)
        started = time.perf_counter()
        after = calibrate.kernel(3)
        spent += time.perf_counter() - started
        print(f"calibration {before!r} {after!r} {spent!r}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:6])
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
