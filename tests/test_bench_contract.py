"""The names the benchmark harness reads from the program.

bench/tracing.py wraps layer functions and reads lru_cache statistics by
name, and bench/job.py replaces cli.make_field and calls gf directly; a
rename or a dropped keyword in splitstat would break the benchmark
silently, so the names and the calls are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import splitstat.cli
from splitstat import gf

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{function}"
        for _, module, function in tracing.LAYERS
        if not callable(getattr(importlib.import_module(f"splitstat.{module}"), function, None))
    ]
    assert missing == []


def test_every_cached_function_reports_cache_info():
    tracing = load_tracing()
    for module, function in tracing.CACHED:
        fn = getattr(importlib.import_module(f"splitstat.{module}"), function)
        assert hasattr(fn.cache_info(), "currsize"), f"{module}.{function}"


def test_cli_binds_make_field():
    assert callable(splitstat.cli.make_field)


def test_gf_calls_of_the_census_jobs_bind():
    # bench/job.py warms the field and times the census with these calls,
    # --trace 1 and the thread speedup among them
    field = gf.make_field(2, 1)
    found = gf.irreducibles(field, 2)
    assert sum(len(polys) for polys in found.values()) == 3
    for threads in (1, 2):
        assert sum(gf.type_counts(field, 4, threads=threads).values()) == 16
    assert sum(gf.type_counts(field, 4, squarefree_only=True).values()) == 8
