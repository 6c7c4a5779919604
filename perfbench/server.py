"""Child process that runs ``kvcmeta serve`` for the remote workload.

    python3 perfbench/server.py --cache SPEC [--spans PATH]

It runs the package's own ``serve`` command on 127.0.0.1 with an OS-chosen
port (logged to stderr as "serving on HOST:PORT") until SIGTERM. A side
thread answers each ``cpu`` line on stdin with the process's user + system
CPU seconds, so the parent can charge the server's CPU to the ops it
replayed. With ``--spans``, spans are recorded around the server's calls
into ``protocol`` (decode_request, encode_response, encode_frame) and into
the store, and written to PATH when the server exits.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from kvcmeta import cli, protocol  # noqa: E402
from tracer import Tracer, TracedBackend, patched  # noqa: E402

SERVER_CODEC = ("decode_request", "encode_response", "encode_frame")


def _answer_cpu_queries() -> None:
    for line in sys.stdin:
        if line.strip() == "cpu":
            print(repr(time.process_time()), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache", default="")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    threading.Thread(target=_answer_cpu_queries, daemon=True).start()
    serve_argv = ["serve", "--listen", "127.0.0.1:0", "--stats-interval", "3600",
                  "--cache", args.cache]
    if args.spans is None:
        return cli.main(serve_argv)

    tracer = Tracer()
    real_store = cli.HybridMetaStore
    cli.HybridMetaStore = lambda **kw: TracedBackend(real_store(**kw), tracer, "store")
    try:
        with patched(protocol, SERVER_CODEC, tracer, "protocol"):
            rc = cli.main(serve_argv)
    finally:
        cli.HybridMetaStore = real_store
    tracer.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
