"""Traced stand-in for ``python -m afftrans.cli``: ``python cli_traced.py ARGS``.

Times the import of ``afftrans.cli`` in this fresh interpreter, installs the
span tracer and runs ``cli.main(ARGS)`` with stdout and stderr captured.
Prints one JSON object holding the captured streams, the exit code, the
import time and the trace, so that the caller can check the CLI output
byte for byte and read the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def main() -> int:
    start = perf_counter()
    from afftrans import cli

    import_s = perf_counter() - start
    import spans

    tracer = spans.install()
    tracer.root("op.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(sys.argv[1:])
        except Exception:  # as under ``python -m``: traceback on stderr, exit 1
            traceback.print_exc()
            code = 1
    json.dump({"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code,
               "import_s": import_s, "trace": tracer.report()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
