"""One pass of a workload in a fresh interpreter.

``python worker.py TRACE SYSTEM... < operations.json``

Imports afftrans (with TRACE=1: afftrans.cli, timed, then installs the span
tracer), builds the named root systems and notes the ready time on the
monotonic clock, which is shared by all processes on Linux.  Only then does
it read and decode the operations (a JSON list from ``make_request``) and
run each once, in order, closed loop: the next operation starts only when
the previous one has returned, with a reference chunk (reference.py)
before every hundredth operation.  Prints one JSON object: the ready time,
per-operation latencies, the reference chunk times, the unexpected
failures and known defects, failures by kind, the output
digest and, when traced, the per-layer trace.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import reference
from workloads import KNOWN_DEFECTS, OPERATIONS, CheckFailed, decode

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    traced = sys.argv[1] == "1"
    start = perf_counter()
    if traced:
        import afftrans.cli  # noqa: F401  (timed: the import a CLI call pays)
    import afftrans
    import_s = perf_counter() - start
    if not Path(afftrans.__file__).resolve().is_relative_to(SRC):
        print(f"afftrans was imported from {afftrans.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from afftrans.errors import DimensionCapError
    from afftrans.rootsys import root_system

    tracer = None
    if traced:
        import spans

        tracer = spans.install()
        tracer.root("setup")
    for name in sys.argv[2:]:
        root_system(name)
    ready = perf_counter()
    ops = [decode(op) for op in json.load(sys.stdin)]

    latencies, failures, kind_s, reference_s = [], {}, {}, []
    failed = known = 0
    digest = hashlib.sha256()
    loop_start = perf_counter()
    for index, (kind, name, args) in enumerate(ops):
        if index % 100 == 0:
            reference_s.append(reference.chunk())
        if tracer is not None:
            tracer.root(f"op.{kind}")
        t0 = perf_counter()
        try:
            text = OPERATIONS[kind](*args)
            outcome = "ok"
        except CheckFailed as exc:
            outcome, text = "wrong", f"wrong: {exc}"
        except DimensionCapError as exc:
            outcome, text = "refused", f"refused: {exc}"
        except Exception as exc:  # any raise is a failed operation, counted by type
            outcome, text = type(exc).__name__, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        kind_s[kind] = kind_s.get(kind, 0.0) + latencies[-1]
        if outcome != "ok":
            is_known = (kind, name, outcome) in KNOWN_DEFECTS
            if is_known:
                known += 1
            else:
                failed += 1
            key = f"{kind}:{name}:{outcome}"
            failures.setdefault(key, {"count": 0, "example": text, "known": is_known})
            failures[key]["count"] += 1
        digest.update(f"{index}\t{text}\n".encode())
    reference_s.append(reference.chunk())
    loop_s = perf_counter() - loop_start - sum(reference_s)

    result = {
        "ready": ready,
        "import_s": import_s,
        "loop_s": loop_s,
        "latencies": latencies,
        "kind_s": kind_s,
        "reference_s": reference_s,
        "failed": failed,
        "known": known,
        "failures": failures,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
