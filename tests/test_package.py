"""Package-level checks: cold import cost and the README's library example."""
import pathlib
import re
import subprocess
import sys

import numpy as np

import mixsep

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs more to import than the rest of the package; the few
    # methods that need it import it lazily.
    src = pathlib.Path(mixsep.__file__).resolve().parents[1]
    code = "import sys, mixsep; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_removed_names_stay_removed():
    import inspect

    for name in ("CriticalValueSpec", "naive_component_values", "clip_unit", "closest_gaussian",
                 "cached_hn_quantile", "resolve_cache_path"):
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
