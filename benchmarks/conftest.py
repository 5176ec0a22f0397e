"""Benchmark configuration.

Each benchmark runs its experiment exactly once (``pedantic`` with one
round): the experiments are deterministic simulations, so repetition
only buys wall-clock pain.  Every benchmark also asserts the paper's
qualitative shape, making the suite double as an end-to-end regression
harness for the reproduction.

Set ``REPRO_BENCH_CACHE=1`` to opt the suite into the campaign runner's
shared on-disk result cache (``.repro_cache/``, or ``$REPRO_CACHE_DIR``):
cache misses are executed under the benchmark timer and stored; hits are
returned without re-running the simulation, so a cached pass only checks
the assertions.  The cache key includes the experiment's kwargs and the
package source hash, so edited code or changed parameters always re-run.
"""

import hashlib
import os

import pytest

from repro.experiments.common import DEFAULT_SEED
from repro.runner import ResultCache, instrumented_call


def _bench_cache() -> ResultCache | None:
    if os.environ.get("REPRO_BENCH_CACHE", "") in ("", "0"):
        return None
    return ResultCache()


@pytest.fixture()
def run_once(benchmark):
    """Run ``fn`` once under the benchmark timer and return its result."""

    def _run(fn, *args, **kwargs):
        cache = _bench_cache()
        if cache is None:
            return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

        name = f"bench--{fn.__module__}.{fn.__qualname__}"
        seed = kwargs.get("seed", DEFAULT_SEED)
        params = repr((args, sorted(kwargs.items()))).encode()
        key = f"{name}--{hashlib.sha256(params).hexdigest()[:8]}"
        hit = cache.load(key, seed)
        if hit is not None:
            return benchmark.pedantic(lambda: hit.result, rounds=1, iterations=1)

        captured = {}

        def timed():
            result, record = instrumented_call(name, seed, lambda: fn(*args, **kwargs))
            captured["record"] = record
            return result

        result = benchmark.pedantic(timed, rounds=1, iterations=1)
        cache.store(key, seed, result, captured["record"])
        return result

    return _run
