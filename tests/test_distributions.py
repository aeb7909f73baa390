"""Known-background distribution objects: values pinned against independent routes."""
import math

import numpy as np
import pytest
from scipy import integrate, stats

from mixsep.distributions import (
    Beta,
    Binomial,
    Exponential,
    Normal,
    Poisson,
    StudentT,
    Tabulated,
    Uniform,
    load_tabulated_csv,
    parse_distribution,
)
from mixsep.rng import stream


# Quantiles recovered by bisecting the CDF, independent of any inverse routine.
NORMAL_Q975 = 1.9599639845400527
T9_Q975 = 2.2621571627982036


def test_normal_quantile_pinned():
    assert Normal().quantile(0.975) == pytest.approx(NORMAL_Q975, abs=1e-12)
    assert Normal().cdf(NORMAL_Q975) == pytest.approx(0.975, abs=1e-12)


def test_student_t_quantile_pinned():
    assert StudentT(9).quantile(0.975) == pytest.approx(T9_Q975, abs=1e-12)


def test_normal_density_at_mode():
    assert Normal().density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_beta_cdf_closed_form():
    # a=1 makes the CDF elementary: 1 - (1 - x)^b
    assert Beta(1, 10).cdf(0.1) == pytest.approx(1.0 - 0.9 ** 10, abs=1e-12)


@pytest.mark.parametrize("d,lo", [
    (Normal(0.5, 2.0), -np.inf),
    (Beta(2, 3), 0.0),
    (Exponential(loc=1.0, scale=0.5), 1.0),
    (StudentT(5), -np.inf),
    (Uniform(-1, 3), -1.0),
])
def test_density_integrates_to_cdf(d, lo):
    for x in [0.2, 0.9, 1.7]:
        want = d.cdf(x)
        got, err = integrate.quad(d.density, lo, x)
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("d", [
    Uniform(2, 5), Normal(-1, 0.7), StudentT(4), Beta(2.5, 1.5),
    Exponential(loc=-2.0, scale=3.0),
])
def test_quantile_roundtrip_continuous(d):
    ps = np.linspace(0.01, 0.99, 23)
    np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, atol=1e-9)


def test_quantile_rejects_boundary_probabilities():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            Normal().quantile(p)


@pytest.mark.parametrize("d", [
    Uniform(2, 5), Normal(-1, 0.7), StudentT(4), Beta(2.5, 1.5), Exponential(loc=-2.0, scale=3.0),
    Poisson(3.0), Binomial(10, 0.4), Tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 1.0]),
    Tabulated([0.0, 1.0, 2.0], [0.2, 0.5, 1.0], mode="step"),
], ids=lambda d: d.label())
def test_quantile_rejects_nan_levels(d):
    # A NaN level lies in no interval; it must not come back as a NaN quantile.
    for p in (math.nan, [0.5, math.nan], [[0.25], [math.nan]]):
        with pytest.raises(ValueError, match="strictly inside"):
            d.quantile(p)
    assert math.isfinite(d.quantile(0.5))


def test_poisson_matches_reference_implementation():
    d = Poisson(3.5)
    ref = stats.poisson(3.5)
    ks = np.arange(0, 15)
    np.testing.assert_allclose(d.cdf(ks), ref.cdf(ks), atol=1e-12)
    np.testing.assert_allclose(d.density(ks), ref.pmf(ks), atol=1e-12)
    ps = np.linspace(0.05, 0.95, 19)
    np.testing.assert_array_equal(d.quantile(ps), ref.ppf(ps))


def test_binomial_matches_reference_implementation():
    d = Binomial(12, 0.3)
    ref = stats.binom(12, 0.3)
    ks = np.arange(0, 13)
    np.testing.assert_allclose(d.cdf(ks), ref.cdf(ks), atol=1e-12)
    np.testing.assert_allclose(d.density(ks), ref.pmf(ks), atol=1e-12)


def test_discrete_quantile_is_generalized_inverse():
    d = Poisson(2.0)
    for p in [0.05, 0.3, 0.5, 0.77, 0.99]:
        q = d.quantile(p)
        assert d.cdf(q) >= p - 1e-12
        if q >= 1:
            assert d.cdf(q - 1) < p


def test_poisson_atoms_cover_all_mass():
    locs, masses = Poisson(4.0).atoms()
    assert masses.sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(masses, stats.poisson(4.0).pmf(locs), atol=1e-12)


def test_sampling_follows_the_cdf():
    d = Beta(1, 10)
    x = d.sample(4000, seed=42)
    stat = stats.kstest(x, d.cdf)
    assert stat.pvalue > 1e-3


def test_sampling_is_deterministic_per_seed():
    a = Normal(1, 2).sample(100, seed=7)
    b = Normal(1, 2).sample(100, seed=7)
    c = Normal(1, 2).sample(100, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_rejects_non_integer_seeds():
    # a float seed used to be truncated: sample(5, 1.5) drew what sample(5, 1) draws
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Beta(1, 10).sample(5, seed)
    np.testing.assert_array_equal(Beta(1, 10).sample(5, np.int64(1)), Beta(1, 10).sample(5, 1))


def test_sampling_accepts_generator():
    rng = stream(5, 1)
    a = Uniform().sample(10, rng)
    rng2 = stream(5, 1)
    b = Uniform().sample(10, rng2)
    np.testing.assert_array_equal(a, b)


# --- tabulated CDFs ---------------------------------------------------------


def test_tabulated_linear_interpolates():
    t = Tabulated(xs=[0.0, 1.0, 2.0], values=[0.0, 0.25, 1.0])
    assert t.cdf(0.5) == pytest.approx(0.125)
    assert t.cdf(1.5) == pytest.approx(0.625)
    assert t.cdf(-1.0) == 0.0
    assert t.cdf(3.0) == 1.0
    assert not t.is_discrete


def test_tabulated_step_mode_and_atoms():
    t = Tabulated(xs=[1.0, 2.0, 4.0], values=[0.2, 0.5, 1.0], mode="step")
    assert t.cdf(0.9) == 0.0
    assert t.cdf(1.0) == pytest.approx(0.2)
    assert t.cdf(3.999) == pytest.approx(0.5)
    locs, masses = t.atoms()
    np.testing.assert_allclose(locs, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(masses, [0.2, 0.3, 0.5])
    assert t.is_discrete


def test_tabulated_quantile_handles_plateaus():
    t = Tabulated(xs=[0.0, 1.0, 2.0, 3.0], values=[0.0, 0.5, 0.5, 1.0])
    # generalized inverse jumps across the flat stretch
    assert t.quantile(0.5) == pytest.approx(1.0)
    assert t.quantile(0.500001) == pytest.approx(2.0, abs=1e-4)


def test_tabulated_snaps_last_value_to_one():
    t = Tabulated(xs=[0.0, 1.0], values=[0.0, 1.0 - 1e-10])
    assert t.cdf(1.0) == 1.0
    with pytest.raises(ValueError):
        Tabulated(xs=[0.0, 1.0], values=[0.0, 0.9])


def test_tabulated_does_not_mutate_caller_arrays():
    vals = np.array([0.0, 1.0 - 1e-10])
    Tabulated(xs=np.array([0.0, 1.0]), values=vals)
    assert vals[1] == 1.0 - 1e-10


def test_tabulated_has_no_density():
    t = Tabulated(xs=[0.0, 1.0], values=[0.0, 1.0])
    with pytest.raises(ValueError, match="no density"):
        t.density(0.5)


def test_load_tabulated_csv_roundtrip(tmp_path):
    p = tmp_path / "cdf.csv"
    p.write_text("x,cdf\n0.0,0.0\n1.0,0.4\n2.0,1.0\n")
    t = load_tabulated_csv(p)
    assert t.cdf(1.0) == pytest.approx(0.4)
    assert t.cdf(1.5) == pytest.approx(0.7)


# --- spec strings -------------------------------------------------------------


@pytest.mark.parametrize("text,cls", [
    ("uniform:0,1", Uniform),
    ("normal:0,1", Normal),
    ("t:7", StudentT),
    ("beta:1,10", Beta),
    ("exponential:0,2", Exponential),
    ("poisson:4", Poisson),
    ("binomial:10,0.3", Binomial),
])
def test_parse_distribution_families(text, cls):
    assert isinstance(parse_distribution(text), cls)


def test_parse_distribution_table(tmp_path):
    p = tmp_path / "bg.csv"
    p.write_text("0.0,0.0\n1.0,1.0\n")
    t = parse_distribution(f"table:{p}")
    assert isinstance(t, Tabulated)
    t2 = parse_distribution(f"table:{p}:step")
    assert t2.is_discrete


@pytest.mark.parametrize("bad", [
    "gauss:0,1",          # unknown family
    "normal:0",           # wrong arity
    "normal:0,1,2",
    "uniform:a,b",        # not numbers
    "t",                  # df has no default
    "",
    "binomial:inf,0.5",   # trials not a finite integer
    "binomial:1e400,0.5",
])
def test_parse_distribution_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


@pytest.mark.parametrize("trials", [math.inf, math.nan, 2.5, 0])
def test_binomial_rejects_trials_that_are_not_a_positive_integer(trials):
    with pytest.raises(ValueError, match="integer trials"):
        Binomial(trials, 0.5)


def test_parse_distribution_bare_names_use_defaults():
    assert parse_distribution("uniform") == Uniform(0.0, 1.0)
    assert parse_distribution("normal") == Normal(0.0, 1.0)


def test_exponential_cdf_closed_form():
    d = Exponential(loc=1.0, scale=2.0)
    assert d.cdf(1.0) == 0.0
    assert d.cdf(3.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert d.quantile(0.5) == pytest.approx(1.0 + 2.0 * math.log(2.0), abs=1e-12)
