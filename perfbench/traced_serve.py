"""``python -m repro.service`` with the benchmark's tracer installed.

Usage: ``traced_serve.py OUT serve [serve options]``.  The wrappers go on
before the service module is imported and before any job is built; the
summary and spans are written to ``OUT`` after the server shut down.
"""

import os
import sys

from tracer import Tracer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.service.cli import main as service_main

    try:
        return service_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
