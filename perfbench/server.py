"""The system under test, as its own process.

Serves the collector of :func:`harness.new_collector` with
:class:`repro.service.HttpServerThread` — the same public API
``python -m repro serve`` uses — on a kernel-assigned localhost port.

Protocol on stdin/stdout, one line each:

* prints ``READY <port>`` once the port is bound;
* ``trace`` on stdin installs the span wrappers of :mod:`layers` and
  answers ``TRACING``;
* ``stop`` (or end of input) drains and stops the server; when tracing was
  on, the span summary is printed as one JSON line before exit.

Usage: ``python perfbench/server.py --spec hhc_4 --domain 1024 --seed 7``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--domain", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.service import HttpServerThread

    import harness
    import layers
    from spans import Tracer

    server = HttpServerThread(harness.new_collector(args.spec, args.domain, args.seed), port=0)
    tracer = None
    server.start()
    try:
        print(f"READY {server.port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and tracer is None:
                tracer = Tracer()
                tracer.install(layers.server_targets())
                print("TRACING", flush=True)
            elif command == "stop":
                break
    finally:
        server.stop()
    if tracer is not None:
        tracer.uninstall()
        print(json.dumps(tracer.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
