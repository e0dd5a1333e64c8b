"""Run one tabforge CLI stage in this fresh interpreter, as the `tabforge`
console script would, and record what the benchmark needs from inside it.

    python3 perfbench/stage.py SPAWN_MONOTONIC STATS_JSON TRACE_JSON|- -- ARGS...

SPAWN_MONOTONIC is the parent's `time.monotonic()` just before it started
this process (the clock is system-wide), so `setup_s` covers interpreter
start plus `import tabforge.cli`.  STATS_JSON receives setup time and peak
resident set.  With a TRACE_JSON path the stage runs with spans installed
and writes them there.  The exit code is the command's own.
"""

import sys
import time

import tabforge.cli

READY = time.monotonic()


def main() -> int:
    spawn, stats_path, trace_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py SPAWN STATS TRACE|- -- ARGS...")
    import json
    import resource

    recorder = None
    if trace_path != "-":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    sys.argv = ["tabforge", *args]
    try:
        tabforge.cli.main()  # exits through SystemExit on any error
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        stats = {
            "setup_s": READY - float(spawn),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
        if recorder is not None:
            recorder.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
