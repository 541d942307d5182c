"""Tests for the persistent content-addressed campaign cache."""

import numpy as np
import pytest

from repro.data.campaign_cache import CampaignCache, campaign_set_key
from repro.simbench.runner import cached_measure_all, measure_all

BENCHES = ("npb/cg", "npb/is", "npb/bt")


@pytest.fixture(scope="module")
def campaigns():
    return measure_all("intel", benchmarks=BENCHES, n_runs=50, root_seed=3)


class TestKey:
    def test_stable(self):
        a = campaign_set_key("intel", BENCHES, 50, 3)
        assert a == campaign_set_key("intel", BENCHES, 50, 3)

    def test_sensitive_to_every_parameter(self):
        base = campaign_set_key("intel", BENCHES, 50, 3)
        assert campaign_set_key("amd", BENCHES, 50, 3) != base
        assert campaign_set_key("intel", BENCHES[:2], 50, 3) != base
        assert campaign_set_key("intel", BENCHES, 51, 3) != base
        assert campaign_set_key("intel", BENCHES, 50, 4) != base

    def test_roster_order_matters(self):
        # Different tuples are different campaign sets (dict ordering).
        a = campaign_set_key("intel", BENCHES, 50, 3)
        b = campaign_set_key("intel", tuple(reversed(BENCHES)), 50, 3)
        assert a != b


def _equal_sets(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name].runtimes, b[name].runtimes)
        assert np.array_equal(a[name].counters, b[name].counters)
        assert a[name].metric_names == b[name].metric_names


class TestMemoryTier:
    def test_miss_then_hit(self, campaigns):
        cache = CampaignCache(root=None)
        cache.root = None  # force memory-only regardless of env
        assert cache.get("intel", BENCHES, 50, 3) is None
        cache.put("intel", BENCHES, 50, 3, campaigns)
        hit = cache.get("intel", BENCHES, 50, 3)
        assert hit is not None
        _equal_sets(hit, campaigns)

    def test_lru_eviction(self, campaigns):
        cache = CampaignCache(root=None, max_memory_items=2)
        cache.root = None
        for seed in (1, 2, 3):
            cache.put("intel", BENCHES, 50, seed, campaigns)
        assert cache.get("intel", BENCHES, 50, 1) is None  # evicted
        assert cache.get("intel", BENCHES, 50, 2) is not None
        assert cache.get("intel", BENCHES, 50, 3) is not None

    def test_lru_recency_updated_on_hit(self, campaigns):
        cache = CampaignCache(root=None, max_memory_items=2)
        cache.root = None
        cache.put("intel", BENCHES, 50, 1, campaigns)
        cache.put("intel", BENCHES, 50, 2, campaigns)
        cache.get("intel", BENCHES, 50, 1)  # refresh 1
        cache.put("intel", BENCHES, 50, 3, campaigns)  # evicts 2
        assert cache.get("intel", BENCHES, 50, 1) is not None
        assert cache.get("intel", BENCHES, 50, 2) is None


class TestDiskTier:
    def test_roundtrip_across_instances(self, campaigns, tmp_path):
        CampaignCache(tmp_path).put("intel", BENCHES, 50, 3, campaigns)
        fresh = CampaignCache(tmp_path)  # empty memory tier
        hit = fresh.get("intel", BENCHES, 50, 3)
        assert hit is not None
        _equal_sets(hit, campaigns)

    def test_corrupt_file_is_a_miss(self, campaigns, tmp_path):
        cache = CampaignCache(tmp_path)
        cache.put("intel", BENCHES, 50, 3, campaigns)
        cache.clear_memory()
        path = cache._disk_path(campaign_set_key("intel", BENCHES, 50, 3))
        path.write_bytes(b"not an npz")
        assert cache.get("intel", BENCHES, 50, 3) is None

    def test_env_var_root(self, campaigns, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = CampaignCache()
        cache.put("intel", BENCHES, 50, 3, campaigns)
        assert list((tmp_path / "envcache").glob("*.npz"))


class TestGetOrMeasure:
    def test_cold_equals_warm(self, tmp_path):
        cache = CampaignCache(tmp_path)
        calls = []

        def measure():
            calls.append(1)
            return measure_all("intel", benchmarks=BENCHES, n_runs=50, root_seed=3)

        cold = cache.get_or_measure("intel", BENCHES, 50, 3, measure)
        warm = cache.get_or_measure("intel", BENCHES, 50, 3, measure)
        assert len(calls) == 1  # second call served from cache
        _equal_sets(cold, warm)

    def test_disk_warm_equals_cold_simulation(self, campaigns, tmp_path):
        cache = CampaignCache(tmp_path)
        cache.put("intel", BENCHES, 50, 3, campaigns)
        cache.clear_memory()
        warm = cache.get_or_measure(
            "intel", BENCHES, 50, 3,
            lambda: pytest.fail("must not re-measure on disk hit"),
        )
        _equal_sets(warm, campaigns)

    def test_cached_measure_all_explicit_cache(self, campaigns, tmp_path):
        cache = CampaignCache(tmp_path)
        out = cached_measure_all(
            "intel", benchmarks=BENCHES, n_runs=50, root_seed=3, cache=cache
        )
        _equal_sets(out, campaigns)
        again = cached_measure_all(
            "intel", benchmarks=BENCHES, n_runs=50, root_seed=3, cache=cache
        )
        _equal_sets(again, campaigns)

    def test_longer_cached_roster_does_not_serve_a_shorter_request(self, tmp_path):
        # The run count seeds each campaign's stream, so a 10-run request
        # must be simulated, never cut from a cached 40-run set.
        cache = CampaignCache(tmp_path)
        cached_measure_all(
            "intel", benchmarks=BENCHES, n_runs=40, root_seed=3, cache=cache
        )
        short = cached_measure_all(
            "intel", benchmarks=BENCHES, n_runs=10, root_seed=3, cache=cache
        )
        _equal_sets(
            short, measure_all("intel", benchmarks=BENCHES, n_runs=10, root_seed=3)
        )
