"""Run one permfunc CLI command with the layer wrappers installed.

    python3 perfbench/traced_cli.py SPAN_FILE <permfunc arguments...>

Used by the traced pass of the cold_cli workload in place of
``python -m permfunc.cli``.  The import of ``permfunc.cli`` is timed as
its own span; the spans and counters are written to SPAN_FILE when the
command returns, and the exit code is the CLI's.
"""

import argparse
import sys
import time

start = time.perf_counter()
import permfunc.cli  # noqa: E402

imported = time.perf_counter()

import spans  # noqa: E402


def main() -> int:
    span_file, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.request = 0
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = tracer.span("cli.parse", parse_args)
    try:
        code = permfunc.cli.main(args)
    finally:
        argparse.ArgumentParser.parse_args = parse_args
        tracer.uninstall()
        info = getattr(permfunc.characters.mn_value, "cache_info", None)
        tracer.counts["characters.mn_value_misses"] += info().misses if info else 0
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
