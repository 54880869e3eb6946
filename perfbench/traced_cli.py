"""Run the ``liebau`` command line with layer spans recorded.

Usage: ``python3 perfbench/traced_cli.py <liebau arguments>`` with the
checkout's ``src`` on ``PYTHONPATH``.  The command's own output comes first;
the last line is ``PERFBENCH-TRACE <json>`` with the span summary, and the
exit code is the command's.
"""

import json
import sys

from spans import Tracer

import liebau.cli

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        code = liebau.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print("PERFBENCH-TRACE " + json.dumps(tracer.summary()))
    sys.exit(code)
