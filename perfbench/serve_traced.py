"""Run ``repro-serve`` with the layer wrappers installed.

Usage: python3 perfbench/serve_traced.py SPANS_OUT [repro-serve args...]

The server's own SIGTERM handling drains and returns from ``main``; the
recorded spans and counters are then written to SPANS_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    rec = Recorder()
    layers.install(rec)
    from repro.service import server

    code = server.main(argv[1:])
    doc = {"spans": rec.spans, "counters": dict(rec.counters), "missing": rec.missing}
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
