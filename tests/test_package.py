"""Package-level checks: cold import cost, the compiled-PAVA loader and the README's
library example."""
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mixsep
from mixsep._compiled import load_compiled

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FIXTURES = README.parent / "fixtures"
# scipy releases older than its _special_ufuncs module (the declared floor,
# 1.12, among them) keep ndtr in a module that needs the scipy.special
# package, so there the normal CDF takes the fallback import.
NDTR_FROM_FILE = load_compiled("special", "_special_ufuncs", "ndtr") is not None


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's mixsep."""
    src = pathlib.Path(mixsep.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=src,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs more to import than the rest of the package; the few
    # methods that need it import it lazily.
    src = pathlib.Path(mixsep.__file__).resolve().parents[1]
    code = "import sys, mixsep; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


COLD_START = """
import sys
import mixsep
from mixsep.cli import main

def loaded():
    return [m for m in ("scipy.optimize", "scipy.special", "scipy.stats") if m in sys.modules]

print(loaded())
data, table, velocities, zscores, out = sys.argv[1:]
assert main(["estimate", "--data", data, "--background", "uniform", "--output", out]) == 0
print(loaded())
assert main(["estimate", "--data", velocities, "--background", "table:" + table,
             "--output", out]) == 0
print(loaded())
assert main(["estimate", "--data", zscores, "--background", "normal:0,1", "--output", out]) == 0
print(loaded())
"""


def test_cold_start_loads_no_scipy_package(tmp_path):
    # The uniform and table backgrounds need neither scipy.special nor
    # scipy.stats, the normal CDF and the compiled PAVA are loaded from
    # their files, so neither the import nor a whole estimate runs a scipy
    # subpackage's __init__.
    rng = np.random.default_rng(24)
    zscores = tmp_path / "zscores.csv"
    np.savetxt(zscores, np.where(rng.random(4000) < 0.1, rng.normal(2.0, 1.0, 4000),
                                 rng.normal(size=4000)))
    out = run_fresh(COLD_START, FIXTURES / "setting_ii_n5000.csv",
                    FIXTURES / "velocity_background.csv", FIXTURES / "velocities_n1200.csv",
                    zscores, tmp_path / "report.json")
    assert out.splitlines() == ["[]"] * 3 + ["[]" if NDTR_FROM_FILE else "['scipy.special']"]


UNIFORM_CLI = """
import sys
from mixsep.cli import main

data, out, prefix = sys.argv[1:]
assert main(["estimate", "--data", data, "--background", "uniform", "--output", out]) == 0
print("scipy loaded:", "scipy" in sys.modules)
assert main(["signal", "--data", data, "--background", "uniform", "--out-prefix", prefix]) == 0
print("scipy loaded:", "scipy" in sys.modules)
"""


def test_uniform_cli_runs_do_not_import_scipy(tmp_path):
    # The provenance block reads scipy's version from scipy/version.py, so
    # a uniform estimate or signal run never imports the scipy package.
    out = run_fresh(UNIFORM_CLI, FIXTURES / "setting_ii_n5000.csv", tmp_path / "report.json",
                    tmp_path / "signal")
    lines = [line for line in out.splitlines() if line.startswith("scipy loaded:")]
    assert lines == ["scipy loaded: False"] * 2
    import scipy

    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert f'"scipy": "{scipy.__version__}"' in report


def test_scipy_version_falls_back_to_importing_scipy(monkeypatch, tmp_path):
    import scipy

    from mixsep import _compiled

    assert _compiled.scipy_version() == scipy.__version__
    # A marker in place of the imported version: the file route cannot return it.
    monkeypatch.setattr(scipy, "__version__", "imported")
    assert _compiled.scipy_version() != "imported"
    monkeypatch.setattr(_compiled, "_scipy_roots", lambda: [str(tmp_path)])
    assert _compiled.scipy_version() == "imported"  # no version.py
    (tmp_path / "version.py").write_text("raise ImportError('cannot run')\n", encoding="utf-8")
    assert _compiled.scipy_version() == "imported"
    (tmp_path / "version.py").write_text("version = 'from the file'\n", encoding="utf-8")
    assert _compiled.scipy_version() == "from the file"


_LOADERS = {
    "pava": ("mixsep.shape_restricted", "_load_pava", "scipy.optimize._pava_pybind", "pava"),
    "ndtr": ("mixsep.distributions", "_ndtr", "scipy.special", "ndtr"),
}


@pytest.mark.parametrize("break_lookup,target", [
    pytest.param(b, t, id=b if t == "pava" else f"{b}-{t}")
    for t in _LOADERS for b in ("no_scipy_spec", "no_suffix", "load_fails")])
def test_pava_loader_falls_back_to_scipys_import(monkeypatch, break_lookup, target):
    import importlib
    import importlib.machinery
    import importlib.util

    owner, loader, module, name = _LOADERS[target]
    load = getattr(importlib.import_module(owner), loader)
    load = getattr(load, "__wrapped__", load)  # _ndtr's uncached lookup
    # A marker in place of the regular import's object: a file lookup that
    # still succeeded could not return it.
    imported = object()
    monkeypatch.setattr(importlib.import_module(module), name, imported)

    if break_lookup == "no_scipy_spec":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    elif break_lookup == "no_suffix":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    else:
        def fail(self, spec):
            raise ImportError("cannot load")
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", fail)
    assert load() is imported


def test_pava_loader_falls_back_to_the_public_function(monkeypatch):
    import importlib.util

    import scipy.optimize  # noqa: F401  (imported before its private module is hidden)

    from mixsep import mixture_core, shape_restricted
    from mixsep.shape_restricted import _load_pava

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    monkeypatch.setitem(sys.modules, "scipy.optimize._pava_pybind", None)
    public = _load_pava()
    assert public is not shape_restricted._pava

    rng = np.random.default_rng(29)
    inputs = [(rng.normal(size=800) + np.linspace(0.0, 3.0, 800), None),
              (rng.normal(size=800) + np.linspace(0.0, 3.0, 800), rng.uniform(0.1, 5.0, 800))]
    x = np.where(rng.random(600) < 0.2, rng.beta(1.0, 10.0, 600), rng.random(600))
    sample = mixsep.SortedSample.from_data(np.round(x, 2))  # ties: weighted rows
    uniform = mixsep.Uniform(0.0, 1.0)

    def run():
        fits = [mixsep.isotonic_regression(v, w) for v, w in inputs]
        curve = mixsep.criterion_curve(sample, uniform, 200).values
        alpha = mixsep.estimate_alpha_cn(sample, uniform, 0.5)
        # The majorant pools its chord slopes on the routine itself.
        hull = mixsep.recover_signal(sample, uniform, alpha).fs_concave
        return fits, curve, alpha, (hull.knots, hull.values)

    want = run()
    monkeypatch.setattr(shape_restricted, "_pava", public)
    monkeypatch.setattr(mixture_core, "_pava", public)
    got = run()
    for fit, want_fit in zip(got[0], want[0]):
        assert np.array_equal(fit.view(np.uint64), want_fit.view(np.uint64))
        assert np.any(fit[1:] == fit[:-1])  # some values were pooled
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    assert got[2] == want[2] > 0.0
    for part, want_part in zip(got[3], want[3]):
        assert np.array_equal(part.view(np.uint64), want_part.view(np.uint64))
    assert 2 < got[3][0].size < sample.n


BIT_FOR_BIT = """
import sys
import numpy as np

x = np.concatenate([np.linspace(-40.0, 40.0, 160001), [-np.inf, np.inf, np.nan, -0.0, 5e-324]])
normals = [(0.0, 1.0), (1.5, 0.3), (-2.0, 7.0)]
if sys.argv[1] == "mixsep_first":
    import mixsep
    cdfs = [mixsep.Normal(mean, sd).cdf(x) for mean, sd in normals]
    assert ("scipy.special" in sys.modules) != (sys.argv[2] == "True")
    import scipy.optimize
else:
    import scipy.optimize
    import mixsep
    cdfs = [mixsep.Normal(mean, sd).cdf(x) for mean, sd in normals]

rng = np.random.default_rng(19)
v = rng.normal(size=1000) + np.linspace(0.0, 3.0, 1000)
w = rng.uniform(0.1, 5.0, size=1000)
got = mixsep.isotonic_regression(v, w)
want = scipy.optimize.isotonic_regression(v, weights=w).x
assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
assert np.unique(want).size < 1000  # some values were pooled

from scipy import special
for (mean, sd), cdf in zip(normals, cdfs):
    want = special.ndtr((x - mean) / sd)
    assert np.array_equal(cdf.view(np.uint64), want.view(np.uint64))
print("ok")
"""


@pytest.mark.parametrize("order", ["mixsep_first", "scipy_first"])
def test_pava_from_file_matches_scipy_in_either_import_order(order):
    # The file-loaded modules and scipy's own imports of them coexist in one
    # process and give the same fit and the same normal CDF, out to +-40,
    # whether the CDF is first called before scipy.special is imported or after.
    assert run_fresh(BIT_FOR_BIT, order, NDTR_FROM_FILE) == "ok\n"


def test_removed_names_stay_removed():
    import inspect

    for name in ("CriticalValueSpec", "naive_component_values", "clip_unit", "closest_gaussian",
                 "cached_hn_quantile", "resolve_cache_path", "push_through_quantile"):
        assert name not in mixsep.__all__
        assert not hasattr(mixsep, name)
        assert not hasattr(mixsep.confidence, name)
    assert not hasattr(mixsep.rng, "uniform_rows")
    assert list(inspect.signature(mixsep.critical_value).parameters) == ["n", "beta"]
    for fn in (mixsep.lower_bound, mixsep.homogeneity_test):
        assert list(inspect.signature(fn).parameters) == ["sample", "background", "beta"]
    assert list(inspect.signature(mixsep.asymptotic_cvm_quantile).parameters) == ["beta"]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    assert 'np.loadtxt("pvalues.csv")' in snippet

    rng = np.random.default_rng(11)
    pvals = np.concatenate([rng.uniform(size=900), rng.beta(1.0, 10.0, size=100)])
    np.savetxt(tmp_path / "pvalues.csv", pvals)
    monkeypatch.chdir(tmp_path)

    scope = {}
    exec(compile(snippet, str(README), "exec"), scope)
    assert 0.0 <= scope["a_low"] <= scope["a_hat"] < 1.0
    assert 0.0 < scope["a_tilde"] < 1.0
    assert scope["rate"].values.shape == (1000,)
    assert np.all((scope["rate"].values >= 0.0) & (scope["rate"].values <= 1.0))
