"""afftrans benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Workloads (see README.md): tensor-sweep,
translate-sweep, cli-oneshot.  A run repeats passes until ``--seconds`` have
gone by (at least two).  A pass is one fresh, single-threaded interpreter
with cold caches that runs the seeded operations once each, closed loop; for
cli-oneshot it is one set-up interpreter followed by one fresh
``python -m afftrans.cli`` process per operation.  Every operation's output
is checked, and every pass must give the same output digest, which must
also equal the digest recorded in ``digests.json`` for the same seed (a
seed not yet recorded there is added).  Timings are put on the
reference clock of ``reference.py``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` each untraced pass is followed by a traced one and the last
line carries the per-layer metrics.  Its ``failed`` counts the operations
that failed unexpectedly; the known defects of ``workloads.KNOWN_DEFECTS``
are expected outcomes there, counted apart.  The lines before it give every
metric by name and unit, the wall-clock values, ``failed_ratio`` (known
defects included) with the failures by kind and a report with the trace,
cache statistics and an environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 2
# A run starts no new pass after --seconds, and gives up on a child process
# that would take it past this many seconds in total.
RUN_LIMIT_S = 170

# The interpreters the benchmark starts: the checkout's own sources, one
# thread, deterministic hashing, the library's default cap and a fixed
# terminal width for argparse's usage text.
ENV = {k: v for k, v in os.environ.items() if k != "AFFTRANS_CAP"}
ENV.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", COLUMNS="80", LINES="24",
           OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Public functions whose calls and self time are per-layer metrics.
TRACED_FUNCTIONS = (
    "rootsys.root_coords", "rootsys.bilinear",
    "weyl.dominant_rep", "weyl.canonical_from_word", "weyl.enumerate_elements", "weyl.orbit",
    "affine.alcove_rep", "affine.linked", "affine.dominant_orbit", "affine.affine_apply",
    "finchar.weight_multiplicities", "finchar.tensor_decompose", "finchar.tensor_oracle",
    "translate.translate_weyl", "translate.verify_weight_geometry",
    "translate.round_trip_check", "annihilator.transport",
)
# Every functools.lru_cache in afftrans at the seed commit.
CACHES = (
    "rootsys.build_root_system", "weyl.longest_element", "affine._theta_reflection",
    "affine._alcove_rep_coords", "affine.enumerate_dominant", "finchar._dim",
    "finchar._form_scale", "finchar._root_data", "finchar._dominant_mults",
    "finchar._char_items", "finchar._char_drop_array",
)
PER_LAYER = {
    "rootsys.build_root_system.s": "s",
    **{f"{fn}.{field}": unit for fn in TRACED_FUNCTIONS
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "affine.alcove_cache.hit_ratio": "ratio",
    "finchar.char_cache.hit_ratio": "ratio",
    "finchar.cap_refusals": "count",
    "translate.project_linkage.kept_ratio": "ratio",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"cache.{name}.{field}": "count" for name in CACHES
       for field in ("hits", "misses", "currsize")},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# child processes

class Child:
    def __init__(self, stdout: bytes, stderr: bytes, code: int, peak_kb: int,
                 start: float, end: float):
        self.stdout, self.stderr, self.code = stdout, stderr, code
        self.peak_kb, self.start, self.end = peak_kb, start, end


def spawn(argv: list[str], deadline: float, data: bytes | None = None) -> Child:
    """Run a child to completion; reap it with wait4 to read its peak RSS."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL if data is None else subprocess.PIPE)
    try:
        if data is not None:
            try:
                proc.stdin.write(data)  # the worker reads all of it before writing
            except BrokenPipeError:
                pass
            proc.stdin.close()
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - perf_counter()
                if left <= 0:
                    raise BenchError(f"{argv[1:3]} did not finish in time")
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks[key.fileobj].append(chunk)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        end = perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return Child(b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                 proc.returncode, usage.ru_maxrss, start, end)


def worker(request: dict, traced: bool, deadline: float, ops: list) -> tuple[Child, dict]:
    argv = [sys.executable, str(HERE / "worker.py"), str(int(traced)), *request["systems"]]
    child = spawn(argv, deadline, json.dumps(ops).encode())
    if child.code != 0:
        raise BenchError(f"worker exited {child.code}: {child.stderr.decode()[-2000:]}")
    return child, json.loads(child.stdout)


# ---------------------------------------------------------------------------
# passes

class Pass:
    """Measurements of one pass."""

    def __init__(self):
        self.setup_s = 0.0
        self.loop_s = 0.0
        self.latencies: list[float] = []
        self.kind_s: dict[str, float] = {}
        self.reference_s: list[float] = []
        self.reference_nominal_s = reference.NOMINAL_S
        self.reference_exponent = reference.CHUNK_EXPONENT
        self.failed = 0  # unexpected failures: wrong, raised or refused
        self.known = 0  # failures listed in workloads.KNOWN_DEFECTS
        self.failures: dict[str, dict] = {}
        self.digest = ""
        self.peak_kb = 0
        self.import_s: list[float] = []
        self.traces: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def scale(self) -> float:
        """Factor from the wall clock to the reference clock."""
        return reference.scale(self.reference_s, self.reference_nominal_s,
                               self.reference_exponent)


def library_pass(request: dict, traced: bool, deadline: float) -> Pass:
    child, result = worker(request, traced, deadline, request["ops"])
    out = Pass()
    out.setup_s = result["ready"] - child.start
    out.loop_s = result["loop_s"]
    out.latencies = result["latencies"]
    out.kind_s = result["kind_s"]
    out.reference_s = result["reference_s"]
    out.failed = result["failed"]
    out.known = result["known"]
    out.failures = result["failures"]
    out.digest = result["digest"]
    out.peak_kb = child.peak_kb
    out.import_s = [result["import_s"]]
    if traced:
        out.traces = [result["trace"]]
    return out


def cli_pass(request: dict, traced: bool, deadline: float) -> Pass:
    cases = workloads.cli_cases(request["scale"])
    setup, result = worker(request, False, deadline, [])
    out = Pass()
    out.setup_s = result["ready"] - setup.start
    out.reference_nominal_s = reference.START_NOMINAL_S
    out.reference_exponent = 1.0
    digest = hashlib.sha256()
    loop_start = perf_counter()
    for index, (name, variant) in enumerate(request["ops"]):
        case = cases[name][variant]
        if index % 3 == 0:
            ref = spawn(reference.START_ARGV, deadline)
            out.reference_s.append(ref.end - ref.start)
        if traced:
            child = spawn([sys.executable, str(HERE / "cli_traced.py"), *case["argv"]], deadline)
            if child.code != 0:
                raise BenchError(f"traced CLI failed: {child.stderr.decode()[-2000:]}")
            shim = json.loads(child.stdout)
            got = (shim["code"], shim["stdout"], shim["stderr"])
            out.import_s.append(shim["import_s"])
            out.traces.append(shim["trace"])
        else:
            child = spawn([sys.executable, "-m", "afftrans.cli", *case["argv"]], deadline)
            got = (child.code, child.stdout.decode(), child.stderr.decode())
        out.latencies.append(child.end - child.start)
        out.kind_s[name] = out.kind_s.get(name, 0.0) + out.latencies[-1]
        out.peak_kb = max(out.peak_kb, child.peak_kb)
        digest.update(f"{index}\t{json.dumps(got)}\n".encode())
        if got != (case["code"], case["stdout"], case["stderr"]):
            out.failed += 1
            entry = out.failures.setdefault(f"cli:{name}:wrong", {
                "count": 0, "known": False,
                "example": f"{' '.join(case['argv'])} gave {json.dumps(got)}"})
            entry["count"] += 1
    out.loop_s = perf_counter() - loop_start - sum(out.reference_s)
    out.digest = digest.hexdigest()
    return out


def run_passes(request: dict, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    one_pass = cli_pass if request["workload"] == "cli-oneshot" else library_pass
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while len(plain) < MIN_PASSES or perf_counter() - start < seconds:
        plain.append(one_pass(request, False, deadline))
        if trace:
            traced.append(one_pass(request, True, deadline))
    return plain, traced


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes: list[Pass], rescale: bool = True) -> dict:
    """The end-to-end metrics, on the reference clock or (rescale=False) the wall clock."""
    scale = {id(p): p.scale if rescale else 1.0 for p in passes}  # one median per pass
    latencies = sorted(x * scale[id(p)] for p in passes for x in p.latencies)
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(p.setup_s * scale[id(p)] for p in passes),
        "ops_per_s": (sum(p.attempted - p.failed - p.known for p in passes)
                      / sum(p.loop_s * scale[id(p)] for p in passes)),
        "latency_p50_ms": 1000 * cuts[4],
        "latency_p90_ms": 1000 * cuts[8],
        "peak_rss_mb": statistics.median(p.peak_kb / 1024 for p in passes),
    }


def _add(into: dict, other: dict) -> None:
    """Add the numbers of one nested dict into another."""
    for key, value in other.items():
        if isinstance(value, dict):
            _add(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


def _sum_dicts(dicts) -> dict:
    """Sum nested dicts of numbers, such as the traces of one pass's processes."""
    out: dict = {}
    for d in dicts:
        _add(out, d)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass) -> dict:
    trace = _sum_dicts(p.traces)
    functions, caches = trace["functions"], trace["caches"]

    def fn(name: str, field: str):
        return functions.get(name, {}).get(field, 0)

    def hit_ratio(name: str) -> float:
        info = caches.get(name, {})
        return _ratio(info.get("hits", 0), info.get("hits", 0) + info.get("misses", 0))

    out = {"rootsys.build_root_system.s": fn("rootsys.build_root_system", "total_s")}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = fn(name, "calls")
        out[f"{name}.self_s"] = fn(name, "self_s")
    terms = trace["linkage_terms"]
    out.update({
        "affine.alcove_cache.hit_ratio": hit_ratio("affine._alcove_rep_coords"),
        "finchar.char_cache.hit_ratio": hit_ratio("finchar._char_items"),
        "finchar.cap_refusals": sum(kinds.get("DimensionCapError", 0)
                                    for name, kinds in trace["errors"].items()
                                    if name.startswith("finchar.")),
        "translate.project_linkage.kept_ratio": _ratio(terms.get("kept", 0), terms.get("in", 0)),
        "cli.import_s": statistics.median(p.import_s),
        "cli.main.self_s": fn("cli.main", "self_s"),
    })
    for name in CACHES:
        for field in ("hits", "misses", "currsize"):
            out[f"cache.{name}.{field}"] = caches.get(name, {}).get(field, 0)
    return out


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [{name: value * p.scale if PER_LAYER[name] == "s" else value
                 for name, value in layer_metrics(p).items()} for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = (statistics.median(p.loop_s * p.scale for p in traced)
                                   / statistics.median(p.loop_s * p.scale for p in plain))
    return out


# ---------------------------------------------------------------------------
# digest record and environment

def check_digest(key: str, digest: str) -> bool:
    """Compare with the recorded digest for this seed; record it if new."""
    record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in record:
        return record[key] == digest
    record[key] = digest
    tmp = DIGESTS.with_name(f".{DIGESTS.name}.{os.getpid()}")
    tmp.write_text(json.dumps(dict(sorted(record.items())), indent=1) + "\n")
    os.replace(tmp, DIGESTS)
    return True


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, traced: bool) -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
        "seed": seed,
        "traced": traced,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per pass, for the smoke test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Keep this process and every child on one CPU: no pass then migrates
    # between CPUs that other tenants load differently, and the reference
    # chunks time the CPU that the operations ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "afftrans" / "__init__.py").is_file():
        print(f"error: no afftrans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        request = {**workloads.make_request(args.workload, args.seed, args.scale),
                   "scale": args.scale}
        plain, traced = run_passes(request, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    digests = {p.digest for p in passes}
    key = f"{args.workload}/{args.scale}/{args.seed}"
    digest_ok = len(digests) == 1 and check_digest(key, passes[0].digest)
    failures: dict[str, dict] = {}
    for p in passes:
        for kind, info in p.failures.items():
            into = failures.setdefault(kind, {**info, "count": 0})
            into["count"] += info["count"]
    unknown = sorted(kind for kind, info in failures.items() if not info["known"])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    known = sum(p.known for p in passes)

    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    report = {
        "workload": args.workload,
        "scale": args.scale,
        "passes": len(plain),
        "traced_passes": len(traced),
        "latency_samples": sum(p.attempted for p in plain),
        "pass_setup_s": [p.setup_s for p in plain],
        "pass_loop_s": [p.loop_s for p in plain],
        "pass_scale": [p.scale for p in plain],
        "wall_clock": end_to_end(plain, rescale=False),
        "operation_s": _sum_dicts(p.kind_s for p in plain),
        "failed_ratio": (failed + known) / attempted,
        "known_defects": known,
        "unexpected_failed": failed,
        "failures": failures,
        "digest": sorted(digests),
        "digest_matches_record": digest_ok,
        "unexpected_failures": unknown,
        "trace": _sum_dicts(traced[-1].traces) if traced else None,
        "environment": environment(args.seed, bool(args.trace)),
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"latency_samples {report['latency_samples']} count")
        for name, value in report["wall_clock"].items():
            print(f"wall_clock.{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio ({failed + known} of {attempted}:"
          f" {known} known defects, {failed} unexpected)")
    for kind, info in sorted(failures.items()):
        print(f"failure {kind} {info['count']}{'' if info['known'] else ' UNEXPECTED'}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": digest_ok and not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
