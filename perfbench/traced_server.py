"""``repro serve`` with the benchmark's layer tracer loaded but idle.

Usage (the service workload starts it)::

    python3 perfbench/traced_server.py --trace-out FILE -- serve --port 0 ...

SIGUSR1 empties the process-global memos and installs the tracer, so the
same server can first serve an untraced phase and then a traced one. On
exit the recorder snapshot (see :mod:`perfbench.layers`) goes to FILE.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    sys.path.insert(0, str(_path))

from perfbench.layers import Recorder  # noqa: E402
from perfbench.workloads import reset_process_state  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, serve_args = argv[1], argv[3:]
    from repro.cli import main as repro_main

    recorder = Recorder()

    def start_tracing(signum, frame):
        reset_process_state()
        recorder.reset()
        recorder.tracer.install()

    signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return repro_main(serve_args)
    finally:
        recorder.tracer.uninstall()
        Path(trace_out).write_text(json.dumps(recorder.snapshot()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
