"""Package-level checks: cold import cost, the loaders of scipy's compiled routines and
the README's library example."""
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mixsep
from mixsep._compiled import load_compiled, special_ufunc

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FIXTURES = README.parent / "fixtures"
# scipy releases older than its _special_ufuncs module (the declared floor,
# 1.12, among them) keep ndtr in a module that needs the scipy.special
# package, so there the normal CDF takes the fallback import.  The other
# ufuncs are checked to load without the package on the releases that have
# that module; older ones may take the fallback import for them too.
NDTR_FROM_FILE = load_compiled("special", "_special_ufuncs", "ndtr") is not None
# Every scipy.special ufunc the package takes.
SPECIAL_UFUNCS = sorted({name for path in pathlib.Path(mixsep.__file__).parent.glob("*.py")
                         for name in re.findall(r'special_ufunc\("(\w+)"\)',
                                                path.read_text(encoding="utf-8"))})


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
    lines = out.splitlines()
    assert lines[:3] == ["[]"] * 3
    assert lines[3] in (["[]"] if NDTR_FROM_FILE else ["[]", "['scipy.special']"])


SCENARIO_A = """
import sys
import mixsep
from mixsep.sim_harness import ScenarioConfig, run_replications

run_replications(ScenarioConfig("A", n=500, alpha=0.1, replications=2, base_seed=3))
print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
assert mixsep.Normal(0.0, 1.0).quantile(0.975) == 1.959963984540054
print("scipy.special" in sys.modules, "special" in vars(sys.modules["scipy"]))
"""


def test_scenario_a_and_the_normal_quantile_load_no_scipy_special():
    # Scenario A's p-values (stdtr) and the normal quantile (ndtri) come from
    # scipy.special._ufuncs, imported beside a placeholder package that is
    # gone afterwards: scipy.special itself is never imported.
    out = run_fresh(SCENARIO_A).splitlines()
    if NDTR_FROM_FILE:
        assert "'scipy.special._ufuncs'" in out[0]
        assert out[1] == "False False"


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
    "pava": ("scipy.optimize._pava_pybind", "pava"),
    "ndtr": ("scipy.special", "ndtr"),  # in _special_ufuncs, then _ufuncs
    "stdtr": ("scipy.special", "stdtr"),  # in _ufuncs only
}
_BREAKS = ("no_scipy_spec", "no_suffix", "load_fails")


@pytest.mark.parametrize("break_lookup,target", [
    pytest.param(b, t, id=b if t == "pava" else f"{b}-{t}")
    for t in _LOADERS
    for b in _BREAKS + (("ufuncs_import_fails", "ufuncs_lacks_a_name") if t == "stdtr" else ())])
def test_pava_loader_falls_back_to_scipys_import(monkeypatch, break_lookup, target):
    import importlib
    import importlib.machinery
    import importlib.util

    from mixsep.shape_restricted import _load_pava

    module, name = _LOADERS[target]
    # A marker in place of the regular import's object: a file lookup that
    # still succeeded could not return it.
    imported = object()
    monkeypatch.setattr(importlib.import_module(module), name, imported)
    if target == "pava":
        load = _load_pava
    else:
        def load():
            return special_ufunc.__wrapped__(name)  # the uncached lookup
        # Hide the package and its extension modules from sys.modules, as in a
        # process that has not imported them, so that every route is tried;
        # ``from scipy import special`` still finds the package through the
        # ``scipy`` module's attribute.
        for key in [k for k in sys.modules if k == module or k.startswith(module + ".")]:
            monkeypatch.delitem(sys.modules, key)

    if break_lookup == "no_scipy_spec":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    elif break_lookup == "no_suffix":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    elif break_lookup == "load_fails":
        def fail(self, spec):
            raise ImportError("cannot load")
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", fail)
    elif break_lookup == "ufuncs_import_fails":
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    else:
        class LacksAName:
            # As a module run beside the placeholder package would fail on
            # reading a name that only scipy.special's __init__ defines.
            def find_spec(self, fullname, path=None, target=None):
                if fullname == "scipy.special._ufuncs":
                    raise AttributeError("module 'scipy.special' has no attribute 'x'")
        monkeypatch.setattr(sys, "meta_path", [LacksAName()] + sys.meta_path)
    assert load() is imported
    assert "scipy.special" not in sys.modules or target == "pava"  # no placeholder left


def test_placeholder_package_forwards_to_scipy_special(monkeypatch):
    import scipy.special

    from mixsep import _compiled

    directory = str(pathlib.Path(scipy.special.__file__).parent)
    stand_in = _compiled._stand_in(directory)
    assert stand_in.__path__ == [directory] and stand_in.__spec__._initializing
    assert stand_in.stdtr is scipy.special.stdtr
    assert stand_in.__file__ == scipy.special.__file__
    # While it is the entry in sys.modules, asking it for a name has nothing
    # to forward to: it raises instead of recursing.
    monkeypatch.setitem(sys.modules, "scipy.special", stand_in)
    assert not hasattr(stand_in, "ndtri")


CONCURRENT_IMPORT = """
import importlib, sys, threading, time
from mixsep._compiled import special_ufunc

entered, other_started = threading.Event(), threading.Event()


class Pause:
    # Holds the loader inside its import of _ufuncs, while the placeholder
    # package is entered, until the other thread has started its imports.
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs":
            entered.set()
            assert other_started.wait(10)
            time.sleep(0.3)
        return None


got = {}


def other():
    assert entered.wait(10)
    other_started.set()
    # The interpreter's fast path hands this import the placeholder once the
    # lock is free, and the placeholder forwards the name.
    from scipy.special import ndtri
    got["ndtri"], got["package"] = ndtri, importlib.import_module("scipy.special")


sys.meta_path.insert(0, Pause())
thread = threading.Thread(target=other)
thread.start()
stdtr = special_ufunc("stdtr")
thread.join(20)
assert not thread.is_alive()
package = got["package"]
assert package is sys.modules["scipy.special"] and package.__file__.endswith("__init__.py")
assert not getattr(package.__spec__, "_initializing", False)
assert got["ndtri"] is package.ndtri and stdtr is package.stdtr
print("ok")
"""


def test_concurrent_import_waits_for_the_real_package():
    # Another thread's import of scipy.special, made while the loader holds
    # the placeholder, waits on the module lock and gets the real package.
    assert run_fresh(CONCURRENT_IMPORT) == "ok\n"


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
import warnings
import numpy as np

x = np.concatenate([np.linspace(-40.0, 40.0, 160001), [-np.inf, np.inf, np.nan, -0.0, 5e-324]])
g = np.concatenate([np.linspace(-3.0, 60.0, 64), [0.0, -0.0, 0.25, 0.5, 0.75, 0.999, 1e-300,
                                                  np.inf, -np.inf, np.nan]])
normals = [(0.0, 1.0), (1.5, 0.3), (-2.0, 7.0)]
order, without_package, *names = sys.argv[1:]


def calls(ufunc, name):
    # Each argument on its own axis of a grid: every combination of values.
    yield [x] if ufunc.nin == 1 else [g.reshape((-1,) + (1,) * (ufunc.nin - 1 - i))
                                      for i in range(ufunc.nin)]
    if name == "bdtr":  # the integer trials the binomial CDF passes
        yield [g[:, None], np.arange(0, 50)[None, :], np.linspace(0.0, 1.0, 11)[:, None, None]]


def evaluate(lookup):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return {name: [lookup(name)(*args) for args in calls(lookup(name), name)]
                for name in names}


if order == "mixsep_first":
    import mixsep
    from mixsep._compiled import special_ufunc
    cdfs = [mixsep.Normal(mean, sd).cdf(x) for mean, sd in normals]
    got = evaluate(special_ufunc)
    assert "scipy.special" not in sys.modules or without_package == "False"
    import scipy.optimize
else:
    import scipy.optimize
    import mixsep
    from mixsep._compiled import special_ufunc
    cdfs = [mixsep.Normal(mean, sd).cdf(x) for mean, sd in normals]
    got = evaluate(special_ufunc)

rng = np.random.default_rng(19)
v = rng.normal(size=1000) + np.linspace(0.0, 3.0, 1000)
w = rng.uniform(0.1, 5.0, size=1000)
fit = mixsep.isotonic_regression(v, w)
want = scipy.optimize.isotonic_regression(v, weights=w).x
assert np.array_equal(fit.view(np.uint64), want.view(np.uint64))
assert np.unique(want).size < 1000  # some values were pooled

import scipy.special
from scipy import special
# The placeholder package is gone: this is scipy's own, and it exports the
# very ufunc objects the loader imported from _ufuncs.
assert special is sys.modules["scipy.special"] and special.__file__.endswith("__init__.py")
assert not getattr(special.__spec__, "_initializing", False)
if without_package == "True":
    assert special.stdtr is special_ufunc("stdtr") and special.ndtri is special_ufunc("ndtri")
for (mean, sd), cdf in zip(normals, cdfs):
    want = special.ndtr((x - mean) / sd)
    assert np.array_equal(cdf.view(np.uint64), want.view(np.uint64))
for name, want in evaluate(lambda name: getattr(special, name)).items():
    for values, want_values in zip(got[name], want, strict=True):
        assert values.shape == want_values.shape and values.size > 1000, name
        assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64)), name
print("ok")
"""


@pytest.mark.parametrize("order", ["mixsep_first", "scipy_first"])
def test_pava_from_file_matches_scipy_in_either_import_order(order):
    # The file-loaded modules and scipy's own imports of them coexist in one
    # process and give the same fit and the same special-function values
    # (the normal CDF out to +-40, every other ufunc on a grid of every
    # argument), whether they are first called before scipy.special is
    # imported or after.
    assert run_fresh(BIT_FOR_BIT, order, NDTR_FROM_FILE, *SPECIAL_UFUNCS) == "ok\n"


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
