"""One benchmark iteration: import squidring from the checkout, run its CLI once.

Usage: python3 child.py SRC RESULT TRACE [CLI ARGS...]

SRC is the checkout's `src` directory, RESULT the JSON file this writes and
TRACE 1 to record per-layer spans. With no CLI arguments the process only
imports and records when `main` would be entered (a set-up sample).
RESULT holds "entered" (CLOCK_MONOTONIC seconds when `main` was entered),
"wall_s", "cpu_s" (user + system, all threads), "peak_rss_mb",
"exit_code" and, when traced, "layers" and "missing".
"""
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(src: str, result_path: str, trace: bool, cli_args: list[str]) -> None:
    sys.path.insert(0, src)
    import squidring.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"squidring was imported from {cli.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = {}
    cpu0 = _cpu_s()
    result["entered"] = time.monotonic()
    if cli_args:
        start = time.perf_counter()
        result["exit_code"] = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.report()
        result["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:])
