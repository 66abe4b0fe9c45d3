"""Traced server: ``python -m perfbench.launcher SPANS_JSON <repro serve args>``.

Installs the span wrappers of :func:`perfbench.tracing.install_server`,
then runs the unchanged ``repro serve`` command line.  The wrappers are in
place before the verification pool forks, so the pool worker inherits
them.  When the server stops (SIGTERM), the spans it holds are written to
``SPANS_JSON``.
"""

from __future__ import annotations

import sys

from perfbench import tracing


def main(argv) -> int:
    from repro import cli

    spans_path, serve_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_server(recorder)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
