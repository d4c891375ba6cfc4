"""The counter registry: the fail-fast surface for metric names."""

import pytest

from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine, run_algorithm
from repro.obs import registry
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig


class TestRegistryShape:
    def test_every_constant_is_dotted(self):
        assert registry.KNOWN_COUNTERS
        for name in registry.KNOWN_COUNTERS:
            assert "." in name

    def test_unknown_counters_flags_typos(self):
        names = [registry.CACHE_HITS, "cache.hist", registry.SSD_REQUESTS]
        assert registry.unknown_counters(names) == ["cache.hist"]

    def test_histogram_bounds_family_fallback(self):
        direct = registry.histogram_bounds(registry.HIST_SSD_SERVICE_SECONDS)
        per_device = registry.histogram_bounds(
            f"{registry.HIST_SSD_SERVICE_SECONDS}.ssd03"
        )
        assert per_device == direct

    def test_histogram_bounds_rejects_unregistered(self):
        with pytest.raises(KeyError):
            registry.histogram_bounds("made.up_histogram")

    def test_bounds_are_ascending(self):
        for bounds in registry.HISTOGRAM_BOUNDS.values():
            assert list(bounds) == sorted(bounds)


class TestRunsStayInsideRegistry:
    """Every counter an actual run touches must be a registry member."""

    def test_clean_semi_external_run(self):
        engine = make_engine(load_dataset("page-sim"))
        run_algorithm(engine, "pr", max_iterations=5)
        assert registry.unknown_counters(engine.stats.names()) == []

    def test_recovery_stack_run(self):
        from repro.sim.faults import default_chaos_plan

        engine = make_engine(
            load_dataset("page-sim"),
            fault_plan=default_chaos_plan(42),
            health_policy=HealthPolicy(),
            parity=ParityConfig(),
        )
        run_algorithm(engine, "pr", max_iterations=5)
        assert registry.unknown_counters(engine.stats.names()) == []

    def test_in_memory_run(self):
        from repro.core.config import ExecutionMode

        engine = make_engine(
            load_dataset("page-sim"), mode=ExecutionMode.IN_MEMORY
        )
        run_algorithm(engine, "pr", max_iterations=5)
        assert registry.unknown_counters(engine.stats.names()) == []
