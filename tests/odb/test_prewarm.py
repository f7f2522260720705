"""The prewarmed buffer cache is computed once per configuration.

``OdbSystem.prewarm_buffer_cache`` keeps a one-slot memo of the
prewarmed LRU state; the later fixed-point rounds of a configuration
restore a copy of it.  These tests pin that a restored cache is the
cold prewarm's exactly, that the memo key separates every input the
prewarm reads, and that a whole fixed-point run is bit-identical with
and without the memo.
"""

import inspect

import pytest

from repro.experiments.configs import DEFAULT_SETTINGS
from repro.experiments.runner import run_configuration
from repro.odb import OdbConfig, OdbSystem
from repro.odb import popularity
from repro.odb import system as system_module
from repro.odb.system import PREWARM_PLANS
from repro.workload.compiler import compile_workload
from repro.workload.library import workload_by_name


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(system_module, "_prewarm_memo", None)


@pytest.fixture
def fills(monkeypatch):
    """Counts the analytic fills, i.e. the prewarms that missed the memo."""
    calls = []
    real = popularity.steady_state_fill

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(popularity, "steady_state_fill", counting)
    return calls


def config(warehouses=10, workload=None, **kwargs):
    compiled = (compile_workload(workload_by_name(workload))
                if workload is not None else None)
    return OdbConfig(warehouses=warehouses, clients=8, processors=2,
                     workload=compiled, **kwargs)


def prewarmed(cfg, plans=PREWARM_PLANS):
    system = OdbSystem(cfg)
    system.prewarm_buffer_cache(plans)
    return system


def clear_memo():
    system_module._prewarm_memo = None


def test_one_plan_count_for_run_and_direct_callers():
    prewarm = inspect.signature(OdbSystem.prewarm_buffer_cache)
    run = inspect.signature(OdbSystem.run)
    assert prewarm.parameters["plans"].default == PREWARM_PLANS
    assert run.parameters["prewarm_plans"].default == PREWARM_PLANS
    assert PREWARM_PLANS == 4000


@pytest.mark.parametrize("workload", ["odb-standard", "social-feed"])
def test_restored_cache_equals_cold_prewarm(workload, fills):
    cold = prewarmed(config(50, workload))
    restored = prewarmed(config(50, workload, user_cpi=3.1, os_cpi=2.7))
    assert len(fills) == 1
    cache = restored.buffer_cache
    assert (list(cache.clone_state().items())
            == list(cold.buffer_cache.clone_state().items()))
    assert cache.dirty_units == cold.buffer_cache.dirty_units > 0
    assert (cache.hits, cache.misses) == (0, 0)
    assert (cache.dirty_evictions, cache.clean_evictions) == (0, 0)
    if workload == "social-feed":
        # A partial fill: the layout is smaller than the cache.
        assert cache.resident_units < cache.capacity_units
    else:
        assert cache.resident_units == cache.capacity_units


@pytest.mark.parametrize("changed", [
    dict(seed=7),
    dict(warehouses=11),
    dict(workload="key-value"),
    dict(remote_touch_prob=0.2),
    dict(plans=PREWARM_PLANS // 2),
])
def test_memo_misses_when_a_prewarm_input_changes(changed, fills):
    changed = dict(changed)
    plans = changed.pop("plans", PREWARM_PLANS)
    prewarmed(config())
    prewarmed(config(**changed), plans)
    assert len(fills) == 2


def test_memo_hits_when_only_cpi_changes(fills):
    prewarmed(config())
    prewarmed(config(user_cpi=4.0))
    prewarmed(config(os_cpi=1.5))
    assert len(fills) == 1


def test_des_runs_leave_the_stored_state_untouched(fills):
    # 50W overflows the cache, so the DES evicts and LRU order matters.
    cfg = config(50)

    def run(user_cpi):
        return OdbSystem(cfg.with_cpi(user_cpi, 2.0)).run(warmup_txns=100,
                                                          measure_txns=400)

    runs = [run(2.5 + i) for i in range(3)]
    assert len(fills) == 1
    stored = list(system_module._prewarm_memo[1].items())
    clear_memo()
    cold = run(4.5)
    assert len(fills) == 2
    assert stored == list(system_module._prewarm_memo[1].items())
    assert runs[2] == cold


def test_fixed_point_run_bit_identical_without_memo(monkeypatch, fills):
    assert DEFAULT_SETTINGS.fixed_point_rounds == 3
    point = dict(warehouses=10, processors=1, settings=DEFAULT_SETTINGS,
                 use_cache=False)
    memoized = run_configuration(**point)
    assert len(fills) == 1

    real = OdbSystem.prewarm_buffer_cache

    def cold_prewarm(self, *args, **kwargs):
        clear_memo()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(OdbSystem, "prewarm_buffer_cache", cold_prewarm)
    cold = run_configuration(**point)
    assert len(fills) == 1 + DEFAULT_SETTINGS.fixed_point_rounds
    assert memoized == cold
