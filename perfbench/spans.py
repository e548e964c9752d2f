"""Per-layer tracing of afftrans from outside the library.

``install()`` wraps every public function of the afftrans modules at run
time.  The wrapper replaces the name in every loaded afftrans module that
holds the same function object, so calls that one module makes into
another (``from .rootsys import root_coords``) are traced as well.  Nothing
under ``src/`` is edited.

Each call is a span.  Spans nest strictly (the benchmark is single
threaded), so a span's self time is its duration minus the durations of the
spans opened directly inside it.  Spans are folded into per-function and
per-(parent, child) totals as they close, which keeps memory flat however
many calls a run makes.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

#: The library's modules, which are the benchmark's layers.
LAYERS = ("rootsys", "weyl", "affine", "finchar", "translate", "annihilator", "cli")


class Tracer:
    def __init__(self, caches: dict):
        # One frame per open span: [name, child seconds].
        self.stack: list[list] = [["op", 0.0]]
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        # (parent name, child name) -> calls
        self.edges: dict[tuple[str, str], int] = {}
        # name -> {exception class name: count}
        self.errors: dict[str, dict[str, int]] = {}
        # project_linkage terms in and kept
        self.linkage_terms = [0, 0]
        self.caches = caches

    def root(self, name: str) -> None:
        """Name the root span that the next calls are attributed to."""
        self.stack[0] = [name, 0.0]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                kinds = self.errors.setdefault(name, {})
                kind = type(exc).__name__
                kinds[kind] = kinds.get(kind, 0) + 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1

        return traced

    def count_linkage(self, fn):
        terms = self.linkage_terms

        def counted(rs, parts, target, level):
            kept = fn(rs, parts, target, level)
            terms[0] += len(parts)
            terms[1] += len(kept)
            return kept

        return functools.wraps(fn)(counted)

    def report(self) -> dict:
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.stats.items()) if c},
            "edges": {f"{p} -> {c}": n for (p, c), n in sorted(self.edges.items())},
            "errors": self.errors,
            "linkage_terms": {"in": self.linkage_terms[0], "kept": self.linkage_terms[1]},
            "caches": cache_stats(self.caches),
        }


def _afftrans_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "afftrans" or name.startswith("afftrans."))]


def find_caches() -> dict:
    """Every ``functools.lru_cache`` in the loaded afftrans modules, by name."""
    out = {}
    for mod in _afftrans_modules():
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


def cache_stats(caches: dict) -> dict:
    out = {}
    for name, fn in sorted(caches.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


def install() -> Tracer:
    """Wrap the public functions of every loaded afftrans layer module."""
    tracer = Tracer(find_caches())
    modules = _afftrans_modules()
    replace: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                continue
            name = f"{layer}.{attr}"
            fn = tracer.count_linkage(obj) if name == "translate.project_linkage" else obj
            replace[id(obj)] = tracer.wrap(name, fn)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            new = replace.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)
    return tracer
