"""xlogy, exprel, dgttrf and dgttrs, loaded without scipy's array-API layer.

`from scipy.special import xlogy` and `from scipy.linalg.lapack import ...`
run the inits of scipy.special and scipy.linalg, which import
scipy._lib._array_api and with it numpy.testing and numpy.f2py: about
0.3 s of a 0.5 s package import.  The four functions live in two
extension files, scipy/special/_special_ufuncs*.so and
scipy/linalg/_flapack*.so, which load by file location in a few ms.  Each
module is registered under its dotted name, so a later scipy.special or
scipy.linalg import reuses it: the objects are the very ones the public
names are bound to, and every result keeps its bits.

On a scipy without these files (or without these names in them) the
public import runs instead; that is the only path such a scipy takes.
"""

from __future__ import annotations

import importlib
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import scipy


def load(module: str, names: tuple, public: str) -> tuple:
    """The attributes `names` of the scipy extension `module` (a dotted name
    such as "scipy.special._special_ufuncs"), loaded from its file, or of the
    public module `public` when the file or a name is missing."""
    stem = Path(scipy.__path__[0], *module.split(".")[1:])
    mod = sys.modules.get(module)
    paths = [stem.with_name(stem.name + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if mod is None and path is not None:
        spec = spec_from_file_location(module, path)
        mod = module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[module] = mod
    if mod is not None and all(hasattr(mod, name) for name in names):
        return tuple(getattr(mod, name) for name in names)
    try:
        pub = importlib.import_module(public)
        return tuple(getattr(pub, name) for name in names)
    except (ImportError, AttributeError) as exc:
        raise ImportError(f"cannot load {', '.join(names)} from {stem}*"
                          f" or from {public}: {exc}") from exc


xlogy, exprel = load("scipy.special._special_ufuncs", ("xlogy", "exprel"), "scipy.special")
dgttrf, dgttrs = load("scipy.linalg._flapack", ("dgttrf", "dgttrs"), "scipy.linalg.lapack")
