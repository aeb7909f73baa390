"""Null quantile simulation, asymptotic table and the lower confidence bound."""
import inspect
import math
import pathlib
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import mixsep.confidence as confidence
from mixsep.confidence import (
    asymptotic_cvm_quantile,
    critical_value,
    homogeneity_test,
    lower_bound,
    simulate_hn_quantile,
)
from mixsep.distributions import Beta, Uniform
from mixsep.mixture_core import SortedSample
from mixsep.rng import DEFAULT_SEED, stream
from mixsep.sim_harness import ScenarioConfig, generate, run_replications

UNIF = Uniform(0.0, 1.0)


def loop_hn_stats(n, b, seed):
    """The original one-replication-at-a-time simulation, kept as an oracle."""
    grid = np.arange(1, n + 1, dtype=float) / n
    stats = np.empty(b)
    for rep in range(b):
        u = stream(seed, confidence._NS_HN, rep).random(n)
        u.sort()
        diff = grid - u
        stats[rep] = math.sqrt(n * float(np.mean(diff * diff)))
    return stats


def loop_hn_quantile(n, beta, b, seed):
    stats = loop_hn_stats(n, b, seed)
    rank = math.ceil(b * (1.0 - beta))
    return float(np.partition(stats, rank - 1)[rank - 1])


@pytest.fixture()
def drawn_rows(monkeypatch):
    """Empty the quantile memo and record the key path of each stream the module draws.

    The simulation draws one stream per replication, so the list gets one
    entry per simulated row.
    """
    confidence._hn_quantile.cache_clear()
    rows = []

    def counting_stream(seed, *key):
        rows.append(key)
        return stream(seed, *key)

    monkeypatch.setattr(confidence, "stream", counting_stream)
    yield rows
    confidence._hn_quantile.cache_clear()


@pytest.mark.parametrize("n, beta, b, seed", [
    (1, 0.05, 1001, 0),
    (7, 0.10, 1001, 3),
    (60, 0.01, 2000, DEFAULT_SEED),
    (499, 0.05, 1001, 5),
    (499, 0.20, 1000, 11),
    (5000, 0.05, 1001, 2),
])
def test_chunked_quantile_equals_per_replication_loop(n, beta, b, seed):
    # b = 1001 is no multiple of the chunk's row count at any of these n
    assert simulate_hn_quantile(n, beta, b, seed) == loop_hn_quantile(n, beta, b, seed)


def test_chunked_quantile_equals_loop_at_every_tested_rank():
    # a replication dropped or repeated at a chunk boundary shifts the
    # order statistics above it, so check ranks across the whole range
    stats = np.sort(loop_hn_stats(499, 1001, 8))
    for beta in (0.0005, 0.01, 0.25, 0.5, 0.75, 0.9995):
        rank = math.ceil(1001 * (1.0 - beta))
        assert simulate_hn_quantile(499, beta, 1001, 8) == stats[rank - 1]


def test_repeated_quantile_is_not_simulated_again(drawn_rows):
    first = simulate_hn_quantile(90, 0.05, b=1000, seed=4)
    assert len(drawn_rows) == 1000
    assert simulate_hn_quantile(90, 0.05, b=1000, seed=4) == first
    assert len(drawn_rows) == 1000
    # any change of key simulates afresh
    simulate_hn_quantile(90, 0.05, b=1000, seed=5)
    assert drawn_rows == [(confidence._NS_HN, rep) for rep in range(1000)] * 2


def test_lower_bound_and_homogeneity_test_share_one_simulation(drawn_rows):
    s = pure_background(120, seed=14)
    # at a tabulated level neither call simulates
    bound = lower_bound(s, UNIF, beta=0.05)
    res = homogeneity_test(s, UNIF, beta=0.05)
    assert drawn_rows == []
    assert res.alpha_lower == bound
    assert res.critical_value == critical_value(120, 0.05)
    # at an untabulated level the two calls share one simulation
    bound = lower_bound(s, UNIF, beta=0.2)
    res = homogeneity_test(s, UNIF, beta=0.2)
    assert len(drawn_rows) == 10_000
    assert res.alpha_lower == bound
    assert res.critical_value == critical_value(120, 0.2)


def test_replications_use_the_lower_bound_threshold(drawn_rows):
    # a non-default base_seed below n = 500 reads the same threshold as
    # every other caller instead of simulating one at that seed
    cfg = ScenarioConfig(scenario="setting_ii", n=300, alpha=0.1, replications=5,
                         base_seed=7, estimators=["lower_bound"])
    (row,) = run_replications(cfg).rows
    assert not any(key[:1] == (confidence._NS_HN,) for key in drawn_rows)
    bounds = [lower_bound(SortedSample.from_data(generate(cfg, rep)), UNIF, cfg.beta)
              for rep in range(cfg.replications)]
    assert row.mean == float(np.mean(bounds))


def test_quantile_checks_survive_a_memo_hit():
    simulate_hn_quantile(40, 0.05, b=1000, seed=1)
    with pytest.raises(ValueError, match="n must be at least 1"):
        simulate_hn_quantile(0, 0.05, b=1000, seed=1)
    with pytest.raises(ValueError, match="beta"):
        simulate_hn_quantile(40, 1.5, b=1000, seed=1)
    with pytest.raises(ValueError, match="replications"):
        simulate_hn_quantile(40, 0.05, b=999, seed=1)
    with pytest.raises(ValueError, match="seed"):
        simulate_hn_quantile(40, 0.05, b=1000, seed=-1)


def test_quantile_rejects_non_integral_sizes():
    with pytest.raises(ValueError, match="n must be an integer"):
        simulate_hn_quantile(100.5, 0.05, 1000)
    with pytest.raises(ValueError, match="b must be an integer"):
        simulate_hn_quantile(100, 0.05, b=1000.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        simulate_hn_quantile(True, 0.05, 1000)
    # numpy integers are integers
    assert simulate_hn_quantile(np.int64(30), 0.05, np.int32(1000)) == \
        simulate_hn_quantile(30, 0.05, 1000)


def test_quantile_rejects_non_integer_seeds():
    for seed in (1.5, True, 1.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_hn_quantile(40, 0.05, 1000, seed)
    assert simulate_hn_quantile(40, 0.05, 1000, np.uint16(1)) == \
        simulate_hn_quantile(40, 0.05, 1000, 1)


def test_critical_value_checks_its_arguments_on_every_route(drawn_rows):
    # asymptotic route
    with pytest.raises(ValueError, match="n must be an integer"):
        critical_value(600.5, 0.05)
    with pytest.raises(ValueError, match="beta must lie"):
        critical_value(600, 1.5)
    # table and simulation routes
    with pytest.raises(ValueError, match="n must be an integer"):
        critical_value(100.5, 0.05)
    with pytest.raises(ValueError, match="n must be at least 1"):
        critical_value(0, 0.05)
    with pytest.raises(ValueError, match="beta must lie"):
        critical_value(100, 0.0)
    assert drawn_rows == []


TABLE_LEVELS = (0.10, 0.05, 0.01)


def shipped_table():
    text = (resources.files("mixsep") / "data" / "hn_quantiles.csv").read_text(encoding="utf-8")
    return text, dict(confidence._read_rows(text))


def test_shipped_table_covers_every_default_key():
    text, table = shipped_table()
    assert text.splitlines()[0] == "n,beta,B,seed,quantile"
    assert len(text.splitlines()) == 1 + len(table)
    assert set(table) == {(n, repr(beta), 10_000, DEFAULT_SEED)
                          for n in range(1, confidence.ASYMPTOTIC_N) for beta in TABLE_LEVELS}
    assert all(math.isfinite(q) and q > 0.0 for q in table.values())
    for n in range(1, confidence.ASYMPTOTIC_N):
        q10, q05, q01 = (table[n, repr(beta), 10_000, DEFAULT_SEED] for beta in TABLE_LEVELS)
        assert q10 < q05 < q01


@pytest.mark.parametrize("beta", TABLE_LEVELS)
@pytest.mark.parametrize("n", [1, 2, 3, 59, 120, 275, 498, 499])
def test_tabulated_critical_value_equals_simulation(n, beta):
    tabulated = confidence._table()[n, repr(beta), 10_000, DEFAULT_SEED]
    assert critical_value(n, beta) == tabulated == simulate_hn_quantile(n, beta, 10_000, DEFAULT_SEED)


def test_table_route_draws_no_row(drawn_rows):
    critical_value(120, 0.05)
    critical_value(np.int64(275), 0.01)
    assert drawn_rows == []
    # an untabulated level simulates, once per process
    critical_value(120, 0.2)
    assert len(drawn_rows) == 10_000
    critical_value(120, 0.2)
    assert len(drawn_rows) == 10_000


@pytest.mark.parametrize("row", [
    "120,0.05,10000",
    "120,0.05,10000,59,0.6,1",
    "120,0.05,10000,59,",
    "12x,0.05,10000,59,0.6",
    "120,0.05,10000,1.5,0.6",
    "",
])
def test_table_reader_raises_on_a_malformed_row(row):
    text = f"n,beta,B,seed,quantile\n120,0.1,10000,59,0.5\n{row}\n"
    with pytest.raises(ValueError, match="line 3: malformed row"):
        dict(confidence._read_rows(text))


def test_import_does_not_load_the_table():
    src = pathlib.Path(confidence.__file__).resolve().parents[1]
    code = ("import mixsep, mixsep.confidence as c; a = c._table.cache_info().currsize; "
            "mixsep.critical_value(50, 0.05); print(a, c._table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "1"]


def test_critical_value_policy():
    # a threshold is a function of (n, beta) alone
    assert list(inspect.signature(critical_value).parameters) == ["n", "beta"]
    assert critical_value(500, 0.05) == asymptotic_cvm_quantile(0.05)
    assert critical_value(200, 0.10) == simulate_hn_quantile(200, 0.10, 10_000, DEFAULT_SEED)
    assert critical_value(120, 0.2) == simulate_hn_quantile(120, 0.2, 10_000, DEFAULT_SEED)
    with pytest.raises(ValueError, match="tabulated only"):
        critical_value(800, 0.07)


def test_simulated_quantile_is_deterministic():
    a = simulate_hn_quantile(200, 0.05, b=2000, seed=3)
    b = simulate_hn_quantile(200, 0.05, b=2000, seed=3)
    c = simulate_hn_quantile(200, 0.05, b=2000, seed=4)
    assert a == b
    assert a != c


def test_simulated_quantile_monotone_in_beta():
    qs = [simulate_hn_quantile(150, beta, b=3000, seed=1) for beta in (0.10, 0.05, 0.01)]
    assert qs[0] < qs[1] < qs[2]


def test_asymptotic_quantile_pinned_table():
    # sqrt of the classical Cramer-von Mises critical values
    assert asymptotic_cvm_quantile(0.05) == pytest.approx(math.sqrt(0.46136), abs=1e-12)
    assert asymptotic_cvm_quantile(0.10) == pytest.approx(math.sqrt(0.34730), abs=1e-12)
    assert asymptotic_cvm_quantile(0.01) == pytest.approx(math.sqrt(0.74346), abs=1e-12)


def test_asymptotic_quantile_unsupported_level():
    for beta in (0.07, 0.025, 0.15):
        with pytest.raises(ValueError, match="tabulated only") as exc:
            asymptotic_cvm_quantile(beta)
        assert "0.10, 0.05, 0.01" in str(exc.value)


def test_simulated_approaches_asymptotic():
    q_n = simulate_hn_quantile(5000, 0.05, b=4000, seed=0)
    assert abs(q_n - asymptotic_cvm_quantile(0.05)) < 0.03


def pure_background(n, seed):
    return SortedSample.from_data(stream(seed, 60).random(n))


def signal_mixture(n, alpha, seed):
    rng = stream(seed, 61)
    mask = rng.random(n) < alpha
    return SortedSample.from_data(np.where(mask, Beta(1, 10).sample(n, rng), rng.random(n)))


def test_lower_bound_zero_on_pure_background():
    s = pure_background(800, seed=5)
    assert lower_bound(s, UNIF, beta=0.05) == 0.0


def test_lower_bound_positive_under_strong_signal():
    s = signal_mixture(3000, 0.3, seed=6)
    bound = lower_bound(s, UNIF, beta=0.05)
    assert 0.0 < bound < 0.3


def test_lower_bound_decreases_with_beta():
    # larger beta -> smaller critical value -> larger (less conservative) bound
    s = signal_mixture(2000, 0.2, seed=7)
    b10 = lower_bound(s, UNIF, beta=0.10)
    b05 = lower_bound(s, UNIF, beta=0.05)
    b01 = lower_bound(s, UNIF, beta=0.01)
    assert b10 >= b05 >= b01


def test_homogeneity_rejects_iff_bound_positive():
    for seed, alpha in [(11, 0.0), (12, 0.25)]:
        s = signal_mixture(1500, alpha, seed=seed) if alpha else pure_background(1500, seed)
        res = homogeneity_test(s, UNIF, beta=0.05)
        bound = lower_bound(s, UNIF, beta=0.05)
        assert res.alpha_lower == bound
        assert res.reject == (bound > 0.0)
        assert res.critical_value == pytest.approx(asymptotic_cvm_quantile(0.05))


def test_homogeneity_statistic_short_circuit():
    # a tiny pure-background sample stays under the Monte Carlo quantile
    s = pure_background(50, seed=13)
    res = homogeneity_test(s, UNIF, beta=0.05)
    assert not res.reject
    assert res.alpha_lower == 0.0
