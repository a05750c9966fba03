"""Layer spans recorded from outside the program.

`Tracer.install()` replaces every binding of each layer function listed in
LAYERS, in every loaded splitstat module, with a wrapper that records a
span: name, start and end (perf_counter_ns), the index of the enclosing
span, and the first argument when it is an int (a degree).  Internal
calls such as measures -> necklace go through module globals, so they
are caught too.  Nothing in the program changes; the wrappers live only
in the process that installs them.

A span's self time is its duration minus the durations of its direct
children.  UPoly arithmetic (`exact`) is not wrapped, so it stays in the
self time of its callers, mostly the measures.
"""

from __future__ import annotations

import contextvars
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns

# (span name, module, function).  Only the main thread calls these.
# cli.resolve_stat turns a --stat string into a sym_chars class function.
LAYERS = (
    ("partitions.partitions_of", "partitions", "partitions_of"),
    ("measures.necklace", "measures", "necklace"),
    ("measures.splitting_measure", "measures", "splitting_measure"),
    ("measures.sf_splitting_measure", "measures", "sf_splitting_measure"),
    ("lie_chars.psi_table", "lie_chars", "psi_table"),
    ("lie_chars.phi_table", "lie_chars", "phi_table"),
    ("expect.expected", "expect", "expected"),
    ("expect.expected_sf", "expect", "expected_sf"),
    ("expect.stable_limit", "expect", "stable_limit"),
    ("sym_chars.resolve", "cli", "resolve_stat"),
    ("sym_chars.decompose", "sym_chars", "decompose"),
    ("sym_chars.irreducible_character", "sym_chars", "irreducible_character"),
    ("gf.make_field", "gf", "make_field"),
    ("gf.irreducibles", "gf", "irreducibles"),
    ("gf.type_counts", "gf", "type_counts"),
    ("gf.census", "gf", "census"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS)) + ("cli.main",)

# lru_cache'd functions whose cache_info() the traced run reports.
CACHED = (
    ("partitions", "partitions_of"),
    ("measures", "necklace"),
    ("measures", "splitting_measure"),
    ("measures", "sf_splitting_measure"),
    ("lie_chars", "psi_table"),
    ("lie_chars", "phi_table"),
    ("sym_chars", "irreducible_character"),
)


class Tracer:
    """Collects spans in memory; `spans` rows are [name, start, end, parent, arg]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "parent", default=None
        )
        self.originals: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, arg: int | None = None):
        spans = self.spans
        index = len(spans)
        spans.append([name, perf_counter_ns(), 0, self._parent.get(), arg])
        token = self._parent.set(index)
        try:
            yield
        finally:
            self._parent.reset(token)
            spans[index][2] = perf_counter_ns()

    def wrap(self, name: str, fn):
        span = self.span

        @wraps(fn)
        def traced(*args, **kwargs):
            arg = args[0] if args and type(args[0]) is int else None
            with span(name, arg):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every binding of the LAYERS functions in loaded splitstat modules."""
        modules = [m for n, m in sys.modules.items() if n == "splitstat" or n.startswith("splitstat.")]
        for name, module, function in LAYERS:
            original = getattr(importlib.import_module(f"splitstat.{module}"), function)
            self.originals[function] = original
            wrapper = self.wrap(name, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapper)

    def counters(self) -> dict[str, int]:
        """Cache statistics and the partition count, read through public APIs."""
        out = {}
        for _, function in CACHED:
            info = self.originals[function].cache_info()
            out[f"cache.{function}.hits"] = info.hits
            out[f"cache.{function}.misses"] = info.misses
            out[f"cache.{function}.size"] = info.currsize
        degrees = {s[4] for s in self.spans if s[0] == "partitions.partitions_of" and s[4] is not None}
        partitions_of = self.originals["partitions_of"]
        out["partitions.count"] = sum(len(partitions_of(d)) for d in degrees)
        return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name."""
    children = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, children):
        out[name] += (end - start - child) / 1e9
    return out

