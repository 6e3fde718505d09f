"""``repro`` command line with the benchmark's span wrappers installed.

    python bench/traced.py SPANS serve ...
    python bench/traced.py SPANS worker HOST:PORT ...

Installs :mod:`spans` wrappers, runs ``repro.cli.main`` with the
remaining arguments, and writes the spans to ``SPANS`` once the command
returns — for ``serve`` and ``worker`` that is after the SIGTERM (or
server) drain.
"""

from __future__ import annotations

import sys

import spans


def main(argv):
    path, args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
