"""Run one ``cotail.cli`` command with layer tracing; write the counters as JSON.

    python3 perfbench/cli_child.py --trace-out trace.json -- estimate --input ...

The exit code is the command's own.
"""
from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--trace-out" or sys.argv[3] != "--":
        print("usage: cli_child.py --trace-out FILE -- <cotail.cli arguments>", file=sys.stderr)
        return 2
    trace_out, cli_args = sys.argv[2], sys.argv[4:]
    import cotail.cli

    tracer = layers.Tracer()
    with tracer:
        code = cotail.cli.main(cli_args)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "counters": tracer.counters(),
                "missing": tracer.missing,
                "attached": sorted(map(list, tracer.attached)),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
