"""Scenario generators and the replication runner."""
import numpy as np
import pytest
from scipy import stats

from mixsep.rng import stream
from mixsep.sim_harness import (
    BITRIANGULAR_A,
    BITRIANGULAR_B,
    MetricsTable,
    ScenarioConfig,
    alpha0_reference,
    background_for,
    bitriangular_sample,
    block_correlated_normals,
    gen_scenario_a,
    gen_scenario_b,
    generate,
    run_replications,
    scenario_b_alpha0_factor,
    scenario_b_signal_density,
)


def test_bitriangular_support_and_symmetry():
    x = bitriangular_sample(BITRIANGULAR_A, BITRIANGULAR_B, 20000, seed=2)
    mags = np.abs(x)
    assert mags.min() >= BITRIANGULAR_A
    assert mags.max() <= BITRIANGULAR_B
    # fair signs and a magnitude peak at the triangle midpoint
    assert abs(np.mean(x > 0) - 0.5) < 0.02
    mid = 0.5 * (BITRIANGULAR_A + BITRIANGULAR_B)
    hist, edges = np.histogram(mags, bins=12, range=(BITRIANGULAR_A, BITRIANGULAR_B))
    peak_center = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
    assert abs(peak_center - mid) < 0.25


def test_bitriangular_validates_bounds():
    with pytest.raises(ValueError):
        bitriangular_sample(2.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        bitriangular_sample(-0.1, 1.0, 10, seed=0)


def test_block_noise_has_target_correlation():
    rng = stream(0, 555)
    x = block_correlated_normals(200, 2000, rho=0.5, block_size=100, rng=rng)
    same_block = np.corrcoef(x[0], x[1])[0, 1]
    cross_block = np.corrcoef(x[0], x[150])[0, 1]
    assert same_block == pytest.approx(0.5, abs=0.06)
    assert cross_block == pytest.approx(0.0, abs=0.06)
    # marginals stay standard normal
    assert x.std() == pytest.approx(1.0, abs=0.02)


def cfg_a(**kw):
    base = dict(scenario="A", n=1000, alpha=0.1, replications=2, base_seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


def test_scenario_a_null_pvalues_are_uniform():
    cfg = cfg_a(alpha=0.0, n=4000)
    p = gen_scenario_a(cfg, replication=0)
    assert p.min() >= 0.0 and p.max() <= 1.0
    assert stats.kstest(p, "uniform").pvalue > 1e-3


def test_scenario_a_alternatives_shift_pvalues_down():
    p_null = gen_scenario_a(cfg_a(alpha=0.0, n=3000), 0)
    p_alt = gen_scenario_a(cfg_a(alpha=0.5, n=3000), 0)
    assert p_alt.mean() < p_null.mean() - 0.05


def test_scenario_b_marginal_is_standard_normal_under_null():
    cfg = ScenarioConfig(scenario="B", n=5000, alpha=0.0, replications=1,
                         base_seed=3, dependence_lag=3)
    z = gen_scenario_b(cfg, 0)
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_scenario_b_moving_average_correlation():
    cfg = ScenarioConfig(scenario="B", n=20_000, alpha=0.0, replications=1,
                         base_seed=4, dependence_lag=4)
    z = gen_scenario_b(cfg, 0)
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    lag5 = np.corrcoef(z[:-5], z[5:])[0, 1]
    assert lag1 == pytest.approx(4.0 / 5.0, abs=0.02)
    assert lag5 == pytest.approx(0.0, abs=0.02)


def test_scenario_b_signal_density_integrates_to_one():
    f = scenario_b_signal_density(1.0)
    xs = np.linspace(-12, 12, 200001)
    total = np.trapezoid(f(xs), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_scenario_b_alpha0_factor_pinned():
    assert scenario_b_alpha0_factor(1.0) == pytest.approx(0.6593363785695405, abs=1e-6)


def test_alpha0_reference_by_scenario():
    assert alpha0_reference(cfg_a(alpha=0.2)) == 0.2
    cfg_b = ScenarioConfig(scenario="B", n=100, alpha=0.2, replications=1, base_seed=1)
    assert alpha0_reference(cfg_b) == pytest.approx(0.2 * 0.6593363785695405, abs=1e-5)
    cfg_ii = ScenarioConfig(scenario="setting_ii", n=100, alpha=0.2, replications=1, base_seed=1)
    assert alpha0_reference(cfg_ii) == 0.2


def test_backgrounds_match_data_scale():
    assert background_for(cfg_a()).label() == "uniform:0,1"
    cfg_b = ScenarioConfig(scenario="B", n=10, alpha=0.1, replications=1, base_seed=1)
    assert background_for(cfg_b).label() == "normal:0,1"


def test_generate_is_deterministic_and_per_replication():
    cfg = cfg_a()
    a0 = generate(cfg, 0)
    a0_again = generate(cfg, 0)
    a1 = generate(cfg, 1)
    np.testing.assert_array_equal(a0, a0_again)
    assert not np.array_equal(a0, a1)


def test_setting_generators_mix_components():
    cfg = ScenarioConfig(scenario="setting_i", n=50_000, alpha=0.3,
                         replications=1, base_seed=9)
    x = generate(cfg, 0)
    # mean of 0.3 * N(2,1) + 0.7 * N(0,1)
    assert x.mean() == pytest.approx(0.6, abs=0.05)


def test_config_validation():
    with pytest.raises(ValueError, match="scenario"):
        ScenarioConfig(scenario="C", n=10, alpha=0.1)
    with pytest.raises(ValueError, match="alpha"):
        cfg_a(alpha=1.5)
    with pytest.raises(ValueError, match="estimator"):
        cfg_a(estimators=("median",))
    with pytest.raises(ValueError, match="tau"):
        cfg_a(estimators=("cn:0",))
    with pytest.raises(ValueError, match="unknown config keys"):
        ScenarioConfig.from_dict({"scenario": "A", "n": 10, "alpha": 0.1, "bogus": 1})


def test_run_replications_deterministic():
    cfg = ScenarioConfig(scenario="setting_ii", n=400, alpha=0.15,
                         replications=6, base_seed=77,
                         estimators=("cn:0.1", "elbow", "lower_bound"))
    t1 = run_replications(cfg)
    t2 = run_replications(cfg)
    assert t1.to_csv_text() == t2.to_csv_text()


def test_run_replications_reports_each_estimator():
    cfg = ScenarioConfig(scenario="setting_ii", n=300, alpha=0.2,
                         replications=4, base_seed=21)
    table = run_replications(cfg)
    names = [r.estimator for r in table.rows]
    assert names == ["cn:0.1", "elbow", "lower_bound"]
    lower = table.rows[2]
    assert lower.coverage is not None
    assert table.rows[0].coverage is None
    assert 0.0 <= lower.coverage <= 1.0


def test_metrics_csv_layout():
    cfg = ScenarioConfig(scenario="setting_ii", n=300, alpha=0.2,
                         replications=3, base_seed=22, estimators=("cn:0.1",))
    text = run_replications(cfg).to_csv_text()
    lines = text.strip().split("\r\n")
    assert lines[0] == "estimator,alpha,alpha0,mean,rmse,coverage,reps"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "cn:0.1"
    assert fields[-1] == "3"
    assert fields[5] == ""  # no coverage for a point estimator
