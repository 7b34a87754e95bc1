"""Run one ``xpdp`` CLI command under the benchmark tracer.

    python perfbench/cli_child.py SPANS_JSON eval --policy P --request R ...

Imports ``xpdp.cli``, wraps its layers (see ``tracer.py``), runs
``xpdp.cli.main`` on the remaining arguments inside a ``cli.main`` span
and writes the spans and counts to SPANS_JSON. The exit code is the
CLI's. ``xpdp`` must be importable, e.g. with ``src`` on ``PYTHONPATH``.
"""

import json
import sys

import tracer as tr
import xpdp.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tracer.install()
    tracer.new_decision()
    code = tracer.wrap(tr.CLI_MAIN, xpdp.cli.main)(argv)
    tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_obj(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
