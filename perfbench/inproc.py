"""One audit -> repair -> validate cycle inside this process, through
``altgen.cli.main``, optionally under the span tracer.

    python3 perfbench/inproc.py <params.json> <result.json>

params: {"src": altgen's source directory, "commands": {name: argv},
"traced": bool, "spans": path}.
The result holds each command's wall time, exit code and stdout, and for a
traced cycle the per-name span summary, byte counters and per-book content
CPU time under repair. Spans are written to ``params["spans"]`` at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(params_path: str, result_path: str) -> None:
    params = json.loads(Path(params_path).read_text(encoding="utf-8"))
    sys.path.insert(0, params["src"])
    from altgen import cli

    recorder = None
    if params["traced"]:
        import tracer as tracing

        recorder = tracing.Tracer()
        recorder.install()

    result: dict = {"walls": {}, "codes": {}, "stdout": {}}
    for name, argv in params["commands"].items():
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        result["walls"][name] = time.perf_counter() - start
        result["codes"][name] = code
        result["stdout"][name] = buf.getvalue()

    if recorder is not None:
        spans = recorder.spans
        result["summary"] = tracing.summarize(spans)
        result["counters"] = recorder.counters
        result["book_content_cpu_s"] = tracing.book_cpu(spans, "content.", "pipeline.repair_one")
        Path(params["spans"]).write_text(
            json.dumps([s.to_dict() for s in spans]), encoding="utf-8"
        )
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
