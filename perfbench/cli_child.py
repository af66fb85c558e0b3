"""Run one `mystica` command and report the in-process time of main().

Usage: python3 perfbench/cli_child.py --report PATH [--trace] -- ARGS...

The command's stdout, stderr and exit code are those of `mystica ARGS...`.
PATH receives {"main_s": ...}; with --trace the layer tracer is installed
around main() and its aggregates, counters and spans are added.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, args = argv[:split], argv[split + 1 :]
    report = Path(own[own.index("--report") + 1])
    trace = "--trace" in own

    from mystica import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = perf_counter()
        code = cli.main(args)
        main_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    payload = {"main_s": main_s}
    if tracer is not None:
        payload.update(tracer.summary(), spans=tracer.spans)
    report.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
