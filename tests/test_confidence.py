"""Null quantile simulation, asymptotic table and the lower confidence bound."""
import csv
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import mixsep.confidence as confidence
import mixsep.rng as rng
from mixsep.confidence import (
    asymptotic_cvm_quantile,
    cached_hn_quantile,
    critical_value,
    homogeneity_test,
    lower_bound,
    resolve_cache_path,
    simulate_hn_quantile,
)
from mixsep.distributions import Beta, Uniform
from mixsep.mixture_core import SortedSample
from mixsep.rng import DEFAULT_SEED, stream, uniform_rows

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
    """Empty the quantile memo and record the key paths the simulation draws.

    ``rows`` gets one entry per row drawn through ``uniform_rows``,
    ``streams`` one per call to ``stream``.
    """
    confidence._hn_quantile.cache_clear()
    log = SimpleNamespace(rows=[], streams=[])

    def counting_rows(out, seed, *key, start=0):
        log.rows.extend((*key, start + i) for i in range(len(out)))
        return uniform_rows(out, seed, *key, start=start)

    def counting_stream(seed, *key):
        log.streams.append(key)
        return stream(seed, *key)

    monkeypatch.setattr(confidence, "uniform_rows", counting_rows)
    monkeypatch.setattr(rng, "stream", counting_stream)
    monkeypatch.setattr(confidence, "stream", counting_stream, raising=False)
    yield log
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
    assert len(drawn_rows.rows) == 1000
    assert simulate_hn_quantile(90, 0.05, b=1000, seed=4) == first
    assert len(drawn_rows.rows) == 1000
    # any change of key simulates afresh
    simulate_hn_quantile(90, 0.05, b=1000, seed=5)
    assert len(drawn_rows.rows) == 2000
    # every row comes from the batch derivation, none from its own stream
    assert drawn_rows.rows == [(confidence._NS_HN, rep) for rep in range(1000)] * 2
    assert drawn_rows.streams == []


def test_lower_bound_and_homogeneity_test_share_one_simulation(drawn_rows):
    s = pure_background(120, seed=14)
    bound = lower_bound(s, UNIF, beta=0.05)
    res = homogeneity_test(s, UNIF, beta=0.05)
    assert len(drawn_rows.rows) == 10_000
    assert drawn_rows.streams == []
    assert res.alpha_lower == bound
    assert res.critical_value == critical_value(120, 0.05)


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


def test_quantile_rejects_non_integer_seeds(tmp_path):
    for seed in (1.5, True, 1.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_hn_quantile(40, 0.05, 1000, seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            cached_hn_quantile(40, 0.05, 1000, seed, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="seed must be an integer"):
            critical_value(40, 0.05, seed=seed)
    assert not (tmp_path / "hn_quantiles.csv").exists()
    assert simulate_hn_quantile(40, 0.05, 1000, np.uint16(1)) == \
        simulate_hn_quantile(40, 0.05, 1000, 1)


def test_cache_hit_keeps_the_argument_checks(tmp_path):
    cached_hn_quantile(100, 0.05, 1000, 1, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="n must be an integer"):
        cached_hn_quantile(100.5, 0.05, 1000, 1, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="b must be an integer"):
        cached_hn_quantile(100, 0.05, 1000.9, 1, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="seed must be an integer"):
        cached_hn_quantile(100, 0.05, 1000, True, cache_dir=tmp_path)


def test_critical_value_policy():
    assert critical_value(500, 0.05) == asymptotic_cvm_quantile(0.05)
    assert critical_value(499, 0.05, seed=3) == simulate_hn_quantile(499, 0.05, 10_000, 3)
    assert critical_value(200, 0.10) == simulate_hn_quantile(200, 0.10, 10_000, DEFAULT_SEED)
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


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("MIXSEP_CACHE_DIR", str(tmp_path))
    assert resolve_cache_path().parent == tmp_path
    first = cached_hn_quantile(120, 0.05, 2000, 9)
    # second call must hit the CSV, not the simulator
    text_before = resolve_cache_path().read_text()
    second = cached_hn_quantile(120, 0.05, 2000, 9)
    assert first == second
    assert resolve_cache_path().read_text() == text_before
    assert first == simulate_hn_quantile(120, 0.05, 2000, 9)


def test_cache_distinguishes_parameters(tmp_path):
    a = cached_hn_quantile(80, 0.05, 2000, 1, cache_dir=tmp_path)
    b = cached_hn_quantile(80, 0.10, 2000, 1, cache_dir=tmp_path)
    lines = (tmp_path / "hn_quantiles.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + two entries
    assert a != b


def test_cache_write_replaces_the_file(tmp_path, monkeypatch):
    path = tmp_path / "hn_quantiles.csv"
    cached_hn_quantile(70, 0.05, 1000, 1, cache_dir=tmp_path)
    before = path.read_bytes()
    # a failed replace leaves the old file whole and no temp file behind
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(confidence.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        cached_hn_quantile(70, 0.10, 1000, 1, cache_dir=tmp_path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hn_quantiles.csv"]
    monkeypatch.undo()
    b = cached_hn_quantile(70, 0.10, 1000, 1, cache_dir=tmp_path)
    assert path.read_bytes().startswith(before)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hn_quantiles.csv"]
    assert cached_hn_quantile(70, 0.10, 1000, 1, cache_dir=tmp_path) == b


def test_concurrent_cache_writes_leave_a_well_formed_file(tmp_path, monkeypatch):
    # every writer misses, then all of them write at once
    keys = [(50, 0.05, 1000, seed) for seed in range(8)]
    barrier = threading.Barrier(len(keys), timeout=30)

    def simulate_after_all_missed(n, beta, b, seed):
        barrier.wait()
        return seed + 0.5

    monkeypatch.setattr(confidence, "simulate_hn_quantile", simulate_after_all_missed)
    errors = []

    def worker(key):
        try:
            cached_hn_quantile(*key, cache_dir=tmp_path)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in keys]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # rows may be lost to a later writer, never torn or duplicated
    with open(tmp_path / "hn_quantiles.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "beta", "B", "seed", "quantile"]
    assert 1 <= len(rows) - 1 <= len(keys)
    for n, beta, b, seed, q in rows[1:]:
        assert (int(n), float(beta), int(b), int(seed)) in keys
        assert float(q) == int(seed) + 0.5
    assert len({tuple(r) for r in rows}) == len(rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hn_quantiles.csv"]


def test_cache_appends_after_a_row_without_newline(tmp_path):
    path = tmp_path / "hn_quantiles.csv"
    path.write_text("n,beta,B,seed,quantile\r\n70,0.05,1000,1,0.5", newline="")
    q = cached_hn_quantile(70, 0.10, 1000, 1, cache_dir=tmp_path)
    assert cached_hn_quantile(70, 0.05, 1000, 1, cache_dir=tmp_path) == 0.5
    assert cached_hn_quantile(70, 0.10, 1000, 1, cache_dir=tmp_path) == q
    assert len(path.read_text().splitlines()) == 3


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
