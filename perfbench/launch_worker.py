"""Start ``repro worker`` for the fleet workload, traced or not.

    python3 perfbench/launch_worker.py SPANS|- WORKER_ARGS...

Times ``import repro.__main__`` (the worker's cold start), then runs
``repro.__main__.main(["worker", *WORKER_ARGS])``.  Given a spans path
instead of ``-``, it first installs the benchmark's wrappers (tracing.py)
and records spans until the worker loop returns, then writes them to that
path after a header line holding the import seconds and the moment the
worker loop started.  Pool processes the worker forks record nothing;
their time shows in the ``engine.map`` span that dispatched it.
"""

from __future__ import annotations

import sys
import time


def main(argv):
    spans_path, worker_args = argv[0], argv[1:]
    start = time.monotonic()
    import repro.__main__ as cli

    import_s = time.monotonic() - start
    if spans_path == "-":
        return cli.main(["worker", *worker_args])
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    recorder.enabled = True
    try:
        return cli.main(["worker", *worker_args])
    finally:
        recorder.enabled = False
        loops = [span[1] for span in recorder.spans if span and span[0] == "sched.run"]
        recorder.dump(
            spans_path,
            {"import_s": import_s, "ready_at": loops[0] if loops else None},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
