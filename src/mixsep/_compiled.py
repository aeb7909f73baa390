"""scipy's compiled routines, reached without their subpackages' ``__init__``.

Importing a private scipy extension module the regular way first runs its
subpackage's ``__init__``: ``scipy.optimize`` imports much of scipy, and
``scipy.special`` loads some 300 modules (mostly its array-API dispatch
layer), each taking longer and holding more memory than everything else a
``mixsep`` command loads.  The compiled modules themselves need none of it,
so :func:`load_compiled` loads one from its file in scipy's package
directory, and :func:`special_ufunc` reaches any of ``scipy.special``'s
ufuncs without that package's ``__init__``.  Where these routes fail, the
regular import is the fallback (``special_ufunc`` takes it itself), which
gives the same object at the old import cost.  The same
directory holds ``version.py``, from which :func:`scipy_version` reads the
version string that ``import scipy`` would give.
"""
from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
import types

_SPECIAL = "scipy.special"
# Serialises first lookups, so that a thread never meets another thread's
# placeholder package and takes the regular import for it.
_LOOKUP = threading.Lock()


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


def _extension_files(subpackage: str, module: str):
    """Paths of ``scipy/<subpackage>/<module>`` extension files, in search order."""
    for root in _scipy_roots():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, subpackage, module + suffix)
            if os.path.isfile(path):
                yield path


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
    for path in _extension_files(subpackage, module):
        loader = importlib.machinery.ExtensionFileLoader(f"{__name__}.{module}", path)
        try:
            loaded = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(loaded)
        except (ImportError, OSError):
            continue
        return getattr(loaded, attribute, None)
    return None


def _stand_in(directory: str) -> types.ModuleType:
    """A placeholder ``scipy.special`` package whose ``__path__`` is ``directory``.

    Its spec is marked as initializing, so an import of ``scipy.special``
    in another thread waits on the module lock that :func:`_import_ufuncs`
    holds, and then imports the real package.  A thread that was handed the
    placeholder before that (the interpreter's fast path returns what
    ``sys.modules`` held once the lock is free) reads every other attribute
    from the real package through the module ``__getattr__``.
    """
    stand_in = types.ModuleType(_SPECIAL)
    spec = importlib.machinery.ModuleSpec(_SPECIAL, None, is_package=True)
    spec.submodule_search_locations = [directory]
    spec._initializing = True
    stand_in.__spec__ = spec
    stand_in.__path__ = [directory]
    stand_in.__package__ = _SPECIAL

    def __getattr__(name):
        package = importlib.import_module(_SPECIAL)
        if package is stand_in:  # asked while the placeholder is still entered
            raise AttributeError(f"module {_SPECIAL!r} has no attribute {name!r}")
        return getattr(package, name)

    stand_in.__getattr__ = __getattr__
    return stand_in


def _import_ufuncs():
    """``scipy.special._ufuncs``, imported without ``scipy/special/__init__``, or ``None``.

    The module is imported under its real name while a placeholder
    ``scipy.special`` (:func:`_stand_in`) sits in ``sys.modules``, so its
    sibling extensions load from scipy's ``special`` directory and the
    package ``__init__`` does not run.  The placeholder is entered and
    removed under the module lock of ``scipy.special``, and removed in
    ``finally``; the extension modules stay in ``sys.modules``, where a
    later ``import scipy.special`` finds them, so its ufuncs are these
    objects.  ``None`` when the file is not where scipy's layout puts it,
    ``scipy.special`` is already imported (or being imported), the import
    lock cannot be taken the way this module expects, or the import fails.
    """
    path = next(_extension_files("special", "_ufuncs"), None)
    module_lock = getattr(importlib._bootstrap, "_ModuleLockManager", None)
    if path is None or module_lock is None:
        return None
    with module_lock(_SPECIAL):
        if _SPECIAL in sys.modules:
            return None
        stand_in = _stand_in(os.path.dirname(path))
        sys.modules[_SPECIAL] = stand_in
        try:
            return importlib.import_module(f"{_SPECIAL}._ufuncs")
        except (ImportError, AttributeError):  # a name the placeholder lacks
            return None
        finally:
            if sys.modules.get(_SPECIAL) is stand_in:
                del sys.modules[_SPECIAL]


@functools.cache
def special_ufunc(name: str):
    """The ufunc ``scipy.special.<name>``, without running ``scipy/special/__init__``.

    Tried in order: the package's attribute when ``scipy.special`` is
    already imported; ``scipy/special/_special_ufuncs`` loaded from its file
    (:func:`load_compiled`) when it has ``name``; ``scipy.special._ufuncs``
    (:func:`_import_ufuncs`); and the regular import of ``scipy.special``
    whenever a step fails.  Every route gives the ufunc that
    ``scipy.special`` exports under ``name``, so the values are the same
    bit for bit.
    """
    with _LOOKUP:
        if _SPECIAL not in sys.modules:
            ufunc = load_compiled("special", "_special_ufuncs", name)
            if ufunc is None:
                ufunc = getattr(_import_ufuncs(), name, None)
            if ufunc is not None:
                return ufunc
    from scipy import special

    return getattr(special, name)
