"""Start ``repro serve`` with the layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.jsonl serve --port ... [serve args]

Installs :func:`layers.install_service` in this process, then runs the
CLI's ``serve`` entry point.  Once SIGTERM has drained the daemon and the
entry point returns, the spans go to ``SPANS.jsonl`` and a side file
``SPANS.jsonl.extra.json`` records what the spans cannot (records left
in the engine WALs).
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        sys.stderr.write("usage: serve_launcher.py SPANS.jsonl serve [ARGS]\n")
        return 2
    require_source()
    import layers
    from repro.cli import main as cli_main

    spans = argv[0]
    recorder = layers.SpanRecorder()
    layers.install_service(recorder)
    status = cli_main(argv[1:])
    recorder.to_jsonl(spans)
    with open(spans + ".extra.json", "w", encoding="utf-8") as handle:
        json.dump({"wal_records_end": sum(len(w) for w in recorder.wals)},
                  handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
