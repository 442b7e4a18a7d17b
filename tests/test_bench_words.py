"""The benchmark's `words` traffic as a Tier-1 test.

For each seeded triple (a, b, c) of expressions, bench/workloads.py
checks that the parsed product is associative, that printing and
re-parsing gives every element back, and that parsing the concatenated
text gives the same product.  Running 24 of those triples here makes a
parser or engine change that breaks one of the three identities fail
under pytest, not only in a benchmark run.  bench/workloads.py imports
only the standard library.
"""

import importlib.util
from pathlib import Path

import pytest

import hopfkit

_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

TRIPLES = workloads.words_inputs(1, 24)


@pytest.mark.parametrize("item", TRIPLES, ids=[
    f"{k}-{item[0]}" for k, item in enumerate(TRIPLES)])
def test_words_triple_identities_hold(item):
    associative, round_trip, concatenated = workloads.call(
        hopfkit, workloads.WORKLOADS["words"], item)
    assert associative
    assert round_trip
    assert concatenated


def test_words_traffic_adds_no_scalar_table_entry():
    # parser traffic runs outside every suite, so the scalar tables stay
    # empty and cannot grow with the number of triples parsed
    from hopfkit import scalars
    workloads.call(hopfkit, workloads.WORKLOADS["words"], TRIPLES[0])
    assert not scalars._live
    assert not (scalars._values or scalars._products or scalars._sums)
