"""Golden-result regression test for the vectorized hot paths.

The vectorized fast paths (batched vertex execution, array-based request
merging, bulk page-cache operations) are wall-clock optimisations only:
every *simulated* number — runtime, bytes read, cache hit rate, iteration
count — must stay bit-identical to the per-vertex reference.  This test
pins BFS, WCC and PageRank on ``twitter-sim`` against a fixture recorded
before the fast paths existed and asserts **exact** float equality.

Regenerate (only when the simulation itself legitimately changes)::

    PYTHONPATH=src python tests/core/test_golden_results.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import make_engine, run_algorithm

FIXTURE = Path(__file__).resolve().parent / "golden_twitter_sim.json"

#: Order matters: the fixture is recorded by running these sequentially.
GOLDEN_APPS = ("bfs", "wcc", "pr")


def _run_app(app: str):
    """One reproducible run on a fresh engine."""
    image = load_dataset("twitter-sim")
    engine = make_engine(image, cache_bytes=scaled_cache_bytes(1.0))
    return run_algorithm(engine, app)


def compute_golden() -> dict:
    return {
        app: {
            "runtime_s": result.runtime,
            "bytes_read": result.bytes_read,
            "cache_hit_rate": result.cache_hit_rate,
            "iterations": result.iterations,
        }
        for app in GOLDEN_APPS
        for result in (_run_app(app),)
    }


@pytest.mark.parametrize("app", GOLDEN_APPS)
def test_golden_twitter_sim(app):
    expected = json.loads(FIXTURE.read_text())[app]
    result = _run_app(app)
    assert result.runtime == expected["runtime_s"]
    assert result.bytes_read == expected["bytes_read"]
    assert result.cache_hit_rate == expected["cache_hit_rate"]
    assert result.iterations == expected["iterations"]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/core/test_golden_results.py --regen")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
