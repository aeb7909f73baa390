"""End-to-end CLI behaviour: outputs, schemas, exit codes, reproducibility."""
import json
import pathlib
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from mixsep.cli import main
from mixsep.confidence import simulate_hn_quantile
from mixsep.distributions import Beta
from mixsep.rng import DEFAULT_SEED, stream

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def schema(name):
    ref = resources.files("mixsep.schemas") / f"{name}.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """5000 draws from 0.1 * Beta(1,10) + 0.9 * Uniform(0,1), one per line."""
    rng = stream(1729, 900)
    n = 5000
    mask = rng.random(n) < 0.1
    x = np.where(mask, Beta(1, 10).sample(n, rng), rng.random(n))
    p = tmp_path_factory.mktemp("data") / "pvalues.csv"
    np.savetxt(p, x, delimiter=",")
    return str(p)


@pytest.fixture()
def out(tmp_path):
    return lambda name: str(tmp_path / name)


def test_estimate_json_validates_and_is_sane(data_csv, out):
    path = out("est.json")
    rc = main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
               "--output", path])
    assert rc == 0
    report = json.loads(open(path).read())
    jsonschema.validate(report, schema("estimate_report"))
    assert report["n"] == 5000
    assert 0.05 <= report["alpha_cn"] <= 0.15
    assert 0.06 <= report["alpha_elbow"] <= 0.14
    assert 0.0 < report["alpha_lower"] <= report["alpha_cn"]
    assert report["reject_homogeneity"] is True


def test_estimate_rerun_is_byte_identical(data_csv, out):
    a, b = out("a.json"), out("b.json")
    assert main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
                 "--output", a]) == 0
    assert main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
                 "--output", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("extra_args, beta", [
    ([], 0.05),
    (["--beta", "0.2"], 0.2),
], ids=["default", "beta0.2"])
def test_estimate_writes_no_quantile_file(tmp_path, monkeypatch, out, extra_args, beta):
    lines = (FIXTURES / "setting_ii_n5000.csv").read_text(encoding="utf-8").splitlines()
    cut = tmp_path / "cut_n300.csv"
    cut.write_text("\n".join(lines[:301]) + "\n", encoding="utf-8")
    # the retired disk cache read these two; nothing may write under either
    cache, home = tmp_path / "cache", tmp_path / "home"
    cache.mkdir()
    home.mkdir()
    monkeypatch.setenv("MIXSEP_CACHE_DIR", str(cache))
    monkeypatch.setenv("HOME", str(home))
    assert main(["estimate", "--data", str(cut), "--background", "uniform",
                 "--skip-elbow", "--output", out("est.json"), *extra_args]) == 0
    report = json.loads(open(out("est.json")).read())
    assert report["n"] == 300
    assert report["critical_value"] == simulate_hn_quantile(300, beta, 10_000, DEFAULT_SEED)
    assert list(cache.iterdir()) == []
    assert list(home.iterdir()) == []


def test_estimate_has_no_seed(data_csv, out, capsys):
    # the threshold is a function of (n, beta), so estimate takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", data_csv, "--background", "uniform:0,1", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    path = out("est.json")
    assert main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
                 "--skip-elbow", "--output", path]) == 0
    report = json.loads(open(path).read())
    jsonschema.validate(report, schema("estimate_report"))
    assert set(report["provenance"]) == {"package", "numpy", "scipy"}


def test_estimate_explicit_cn_sets_tau_null(data_csv, out):
    path = out("est2.json")
    assert main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
                 "--cn", "0.25", "--skip-lower", "--output", path]) == 0
    report = json.loads(open(path).read())
    assert report["tau"] is None
    assert report["cn"] == 0.25
    assert report["alpha_lower"] is None


def test_bundled_setting_ii_fixture_elbow(out):
    path = out("fix.json")
    assert main(["estimate", "--data", str(FIXTURES / "setting_ii_n5000.csv"),
                 "--background", "uniform", "--output", path]) == 0
    report = json.loads(open(path).read())
    assert report["n"] == 5000
    assert 0.06 <= report["alpha_elbow"] <= 0.14


def test_bundled_velocity_fixture_with_tabulated_background(out):
    table = FIXTURES / "velocity_background.csv"
    path = out("vel.json")
    assert main(["estimate", "--data", str(FIXTURES / "velocities_n1200.csv"),
                 "--background", f"table:{table}", "--skip-lower",
                 "--output", path]) == 0
    report = json.loads(open(path).read())
    assert 0.25 <= report["alpha_cn"] <= 0.45


def test_curve_row_count_matches_grid(data_csv, out):
    path = out("curve.csv")
    assert main(["curve", "--data", data_csv, "--background", "uniform:0,1",
                 "--grid", "50", "--output", path]) == 0
    lines = open(path, newline="").read().strip().split("\r\n")
    assert lines[0] == "gamma,criterion,second_difference"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[2] == ""  # no second difference at the ends
    assert lines[-1].split(",")[2] == ""
    gammas = [float(l.split(",")[0]) for l in lines[1:]]
    assert gammas[0] == pytest.approx(0.02)
    assert gammas[-1] == 1.0


def test_signal_writes_all_files(data_csv, out, tmp_path):
    summary = out("sig.json")
    prefix = str(tmp_path / "sig")
    rc = main(["signal", "--data", data_csv, "--background", "uniform:0,1",
               "--alpha-source", "elbow", "--out-prefix", prefix,
               "--output", summary])
    assert rc == 0
    report = json.loads(open(summary).read())
    jsonschema.validate(report, schema("signal_summary"))
    assert report["lfdr_available"] is True
    for key in ("fs_step", "fs_concave", "density", "lfdr"):
        lines = open(report["files"][key], newline="").read().strip().split("\r\n")
        assert len(lines) >= 2
    # local FDR is restricted to small observations for a uniform background
    lfdr_rows = [l.split(",")
                 for l in open(report["files"]["lfdr"], newline="").read().strip().split("\r\n")[1:]]
    assert max(float(r[0]) for r in lfdr_rows) <= 0.05
    assert all(0.0 <= float(r[1]) <= 1.0 for r in lfdr_rows)
    dens = [float(l.split(",")[2])
            for l in open(report["files"]["density"], newline="").read().strip().split("\r\n")[1:]]
    assert all(a >= b for a, b in zip(dens, dens[1:]))


def test_signal_has_no_seed(data_csv, out, tmp_path, capsys):
    # signal draws nothing, so it takes no seed and records none
    with pytest.raises(SystemExit) as exc:
        main(["signal", "--data", data_csv, "--background", "uniform:0,1",
              "--out-prefix", str(tmp_path / "s"), "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    summary = out("sig3.json")
    assert main(["signal", "--data", data_csv, "--background", "uniform:0,1",
                 "--alpha-source", "value", "--alpha", "0.1",
                 "--out-prefix", str(tmp_path / "s"), "--output", summary]) == 0
    report = json.loads(open(summary).read())
    jsonschema.validate(report, schema("signal_summary"))
    assert set(report["provenance"]) == {"package", "numpy", "scipy"}


def test_signal_with_explicit_alpha(data_csv, out, tmp_path):
    summary = out("sig2.json")
    rc = main(["signal", "--data", data_csv, "--background", "uniform:0,1",
               "--alpha-source", "value", "--alpha", "0.1",
               "--out-prefix", str(tmp_path / "s2"), "--output", summary])
    assert rc == 0
    assert json.loads(open(summary).read())["alpha_used"] == 0.1


def test_signal_value_source_requires_alpha(data_csv, tmp_path):
    rc = main(["signal", "--data", data_csv, "--background", "uniform:0,1",
               "--alpha-source", "value", "--out-prefix", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_writes_metrics(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "scenario": "setting_ii", "n": 300, "alpha": 0.1,
        "replications": 4, "base_seed": 7,
    }))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfgp), "--out-prefix", prefix]) == 0
    metrics = json.loads(open(prefix + "_metrics.json").read())
    jsonschema.validate(metrics, schema("metrics"))
    csv_lines = open(prefix + "_metrics.csv", newline="").read().strip().split("\r\n")
    assert len(csv_lines) == 1 + len(metrics["rows"])


def test_simulate_rejects_threads(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"scenario": "setting_ii", "n": 300, "alpha": 0.1,
                                "threads": 2}))
    assert main(["simulate", "--config", str(cfgp)]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfgp), "--threads", "2"])
    assert exc.value.code == 2


def test_simulate_rejects_bad_config(tmp_path):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"scenario": "Z", "n": 10, "alpha": 0.1}))
    assert main(["simulate", "--config", str(cfgp)]) == 2
    cfgp.write_text("{not json")
    assert main(["simulate", "--config", str(cfgp)]) == 2


@pytest.mark.parametrize("override, message", [
    ({"estimators": ["cn:0.1", 3]}, "estimators must be a non-empty list of strings"),
    ({"estimators": "elbow"}, "estimators must be a non-empty list of strings"),
    ({"estimators": []}, "estimators must be a non-empty list of strings"),
    ({"alpha": True}, "alpha must be a number"),
    ({"rho": "0.5"}, "rho must be a number"),
    ({"beta": None}, "beta must be a number"),
    ({"m_star": 1e400}, "m_star must be finite"),
    ({"m_star": float("nan")}, "m_star must be finite"),
])
def test_simulate_rejects_malformed_fields(tmp_path, capsys, override, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"scenario": "setting_ii", "n": 300, "alpha": 0.1,
                                "replications": 2, **override}))
    assert main(["simulate", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", [{"curve_grid": 10.5}, {"n": 500.5},
                                      {"replications": 2.5}, {"replications": True}])
def test_simulate_rejects_non_integer_counts(tmp_path, capsys, override):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"scenario": "setting_ii", "n": 300, "alpha": 0.1,
                                "replications": 2, **override}))
    assert main(["simulate", "--config", str(cfgp)]) == 2
    (field,) = override
    assert f"{field} must be an integer" in capsys.readouterr().err


def test_identifiability_json(out):
    path = out("ident.json")
    assert main(["identifiability", "--alpha", "0.3", "--signal", "poisson:2",
                 "--background", "poisson:1", "--output", path]) == 0
    report = json.loads(open(path).read())
    jsonschema.validate(report, schema("identifiability"))
    assert report["alpha0"] == pytest.approx(0.1896361676485673, abs=1e-12)
    assert report["identifiable"] is False


def test_identifiability_numeric_route(out):
    path = out("ident2.json")
    assert main(["identifiability", "--alpha", "0.25", "--signal", "normal:1,2",
                 "--background", "normal:0,1", "--numeric", "--grid", "50000",
                 "--output", path]) == 0
    report = json.loads(open(path).read())
    assert report["method"] == "numeric"
    assert report["alpha0"] < 0.25


# --- error paths -----------------------------------------------------------


def test_missing_file_is_input_error(capsys):
    rc = main(["estimate", "--data", "/nonexistent.csv", "--background", "uniform:0,1"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_background_spec_is_input_error(data_csv, capsys):
    rc = main(["estimate", "--data", data_csv, "--background", "cauchy:0,1"])
    assert rc == 2
    assert "bad distribution spec" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["binomial:inf,0.5", "binomial:1e400,0.5", "binomial:nan,0.5"])
def test_non_finite_binomial_trials_are_input_errors(data_csv, capsys, spec):
    assert main(["estimate", "--data", data_csv, "--background", spec]) == 2
    assert "bad distribution spec" in capsys.readouterr().err
    assert main(["identifiability", "--alpha", "0.3", "--signal", spec,
                 "--background", "binomial:4,0.5"]) == 2
    assert "binomial trials must be an integer" in capsys.readouterr().err


def test_untabulated_beta_names_the_supported_levels(capsys):
    rc = main(["estimate", "--data", str(FIXTURES / "setting_ii_n5000.csv"),
               "--background", "uniform", "--beta", "0.07", "--skip-elbow"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "0.10, 0.05, 0.01" in err
    assert "interpolate" not in err


@pytest.mark.parametrize("cn", ["0", "-1", "nan", "inf"])
def test_threshold_must_be_positive_and_finite(data_csv, capsys, cn):
    rc = main(["estimate", "--data", data_csv, "--background", "uniform:0,1",
               "--cn", cn, "--skip-elbow", "--skip-lower"])
    assert rc == 2
    assert "--cn must be positive and finite" in capsys.readouterr().err


def test_non_numeric_cell_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.csv"
    p.write_text("0.1\n0.2\noops\n0.4\n")
    rc = main(["estimate", "--data", str(p), "--background", "uniform:0,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_multicolumn_needs_column_flag(tmp_path, capsys):
    p = tmp_path / "wide.csv"
    p.write_text("p,stat\n0.1,5\n0.2,6\n")
    rc = main(["estimate", "--data", str(p), "--background", "uniform:0,1"])
    assert rc == 2
    assert "--column" in capsys.readouterr().err


def test_column_selection_by_name_and_index(tmp_path, out):
    p = tmp_path / "wide.csv"
    rows = "\n".join(f"{v},9" for v in np.linspace(0.01, 0.99, 60))
    p.write_text("p,stat\n" + rows + "\n")
    a, b = out("by_name.json"), out("by_index.json")
    assert main(["estimate", "--data", str(p), "--background", "uniform:0,1",
                 "--column", "p", "--skip-lower", "--output", a]) == 0
    assert main(["estimate", "--data", str(p), "--background", "uniform:0,1",
                 "--column", "0", "--skip-lower", "--output", b]) == 0
    assert json.loads(open(a).read())["alpha_cn"] == json.loads(open(b).read())["alpha_cn"]


def test_out_of_support_data_warns_but_runs(tmp_path, out, capsys):
    cases = [
        ("uniform:0,1", "0.5 0.7 1.3 0.2 0.9 0.4", "1 observations fall outside the background support [0.0, 1.0]"),
        ("beta:1,10", "0.05 0.1 1.5 0.2 2.0 0.01", "2 observations fall outside the background support [0.0, 1.0]"),
        ("exponential:0.5,1", "0.6 0.2 1.5 0.4 2.5 0.9", "2 observations fall outside the background support [0.5, inf]"),
        (f"table:{FIXTURES / 'velocity_background.csv'}", "-200 0 100 300 600 50",
         "2 observations fall outside the background support [-150.0, 520.0]"),
    ]
    for background, values, warning in cases:
        p = tmp_path / "odd.csv"
        p.write_text("\n".join(values.split()) + "\n")
        rc = main(["estimate", "--data", str(p), "--background", background,
                   "--skip-lower", "--skip-elbow", "--output", out("odd.json")])
        assert rc == 0
        assert capsys.readouterr().err == f"warning: {warning}\n"
        # the warning goes to stderr only; the report is unchanged
        assert main(["estimate", "--data", str(p), "--background", background,
                     "--skip-lower", "--skip-elbow"]) == 0
        assert capsys.readouterr().out == open(out("odd.json")).read()


def test_flat_curve_elbow_is_numerical_failure(tmp_path, capsys):
    # x_i = i/n makes the empirical CDF coincide with the uniform background,
    # so the criterion is identically zero and no elbow exists
    p = tmp_path / "flat.csv"
    p.write_text("\n".join(f"{(i + 1) / 100}" for i in range(100)) + "\n")
    rc = main(["signal", "--data", str(p), "--background", "uniform:0,1",
               "--alpha-source", "elbow", "--out-prefix", str(tmp_path / "f")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
