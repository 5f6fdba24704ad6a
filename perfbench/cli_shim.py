"""Run one ``llmprosody`` CLI command with spans around the package's calls.

Usage: ``python cli_shim.py SPANS_JSON <llmprosody arguments...>``.  The
command behaves exactly as ``python -m llmprosody <arguments...>`` does,
exit code included; on the way out the spans, counts and the time taken by
``import llmprosody.cli`` are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from spans import Tracer


def main() -> None:
    out = Path(sys.argv[1])
    started = time.perf_counter_ns()
    import llmprosody.cli as cli
    from llmprosody import llm

    import_ns = time.perf_counter_ns() - started
    tracer = Tracer()
    tracer.instrument()
    mock_backend = llm.MockBackend
    # the CLI builds its backend itself; hand it a traced one
    llm.MockBackend = lambda seed=0: tracer.wrap("llm.backend", mock_backend(seed=seed))
    try:
        tracer.wrap("cli.main", cli.main)(args=sys.argv[2:], prog_name="llmprosody")
    finally:
        llm.MockBackend = mock_backend
        tracer.restore()
        tracer.dump(out, import_ns=import_ns, command=sys.argv[2:4])


if __name__ == "__main__":
    main()
