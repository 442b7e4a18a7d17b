"""bench/tracing.py wraps hopfkit functions and reads cache attributes by
name.  Each of those names must still resolve, so that deleting or
renaming one fails here and not only in a traced benchmark run.  The
tables are read from bench/tracing.py, which imports only the standard
library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

WRAPPED = {**tracing._SPANNED, **tracing._COUNTED}


def test_tables_are_not_empty():
    assert WRAPPED and tracing._CACHES


@pytest.mark.parametrize("metric", sorted(WRAPPED))
def test_wrapped_function_resolves(metric):
    module, dotted = WRAPPED[metric]
    owner = importlib.import_module(f"hopfkit.{module}")
    for part in dotted.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("metric", sorted(tracing._CACHES))
def test_cache_attribute_is_set_by_init(metric):
    module, cls, attr = tracing._CACHES[metric]
    init = getattr(importlib.import_module(f"hopfkit.{module}"), cls).__init__
    assert attr in init.__code__.co_names
