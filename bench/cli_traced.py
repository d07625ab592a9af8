"""`python -m qecdesk.cli` with spans on every qecdesk module.

    python bench/cli_traced.py <qecdesk arguments>

Stdout and the exit code are the CLI's own.  The last stderr line is
`BENCH_SPANS {json}`: span totals, counters and the duration of `main`.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import qecdesk.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    t = time.perf_counter()
    try:
        return qecdesk.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("BENCH_SPANS " + json.dumps({**tracer.dump(), "main_s": main_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
