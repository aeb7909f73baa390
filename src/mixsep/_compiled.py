"""scipy's compiled routines, loaded from their extension files.

Importing a private scipy extension module the regular way first runs its
subpackage's ``__init__``: ``scipy.optimize`` imports much of scipy, and
``scipy.special`` loads some 300 modules (mostly its array-API dispatch
layer), each taking longer and holding more memory than everything else a
``mixsep`` command loads.  The compiled modules themselves need none of it,
so :func:`load_compiled` loads one from its file in scipy's package
directory.  Callers fall back to the regular import where it returns
``None``, which gives the same object at the old import cost.  The same
directory holds ``version.py``, from which :func:`scipy_version` reads the
version string that ``import scipy`` would give.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def _scipy_roots():
    """scipy's package directories, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    return roots or ()


def scipy_version() -> str:
    """``scipy.__version__``, read from ``scipy/version.py`` without importing scipy.

    ``scipy/__init__`` takes its ``__version__`` from that module's
    ``version``, so the string is the same.  Where the file is missing or
    cannot be run, scipy is imported instead.
    """
    for root in _scipy_roots():
        path = os.path.join(root, "version.py")
        if not os.path.isfile(path):
            continue
        spec = importlib.util.spec_from_file_location(f"{__name__}.scipy_version", path)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except Exception:
            continue
        version = getattr(module, "version", None)
        if isinstance(version, str):
            return version
    import scipy

    return scipy.__version__


def load_compiled(subpackage: str, module: str, attribute: str):
    """``scipy.<subpackage>.<module>.<attribute>`` from the module's file, or ``None``.

    ``find_spec`` locates scipy's package directory without importing
    scipy.  The module is loaded under a private name in this package whose
    last component is ``module``, because an extension derives its init
    symbol from that component; this loader does not enter it in
    ``sys.modules`` (a single-phase extension enters itself under that
    private name).  ``None`` when the file is not where scipy's layout puts
    it, cannot be loaded, or lacks ``attribute``.
    """
    for root in _scipy_roots():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, subpackage, module + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(f"{__name__}.{module}", path)
            try:
                loaded = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(loaded)
            except (ImportError, OSError):
                continue
            return getattr(loaded, attribute, None)
    return None
