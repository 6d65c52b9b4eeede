import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy
import scipy.linalg.lapack

from opinion_kinetics import solver


def _run(code: str) -> str:
    """The standard output of `code` in a fresh interpreter that imports the
    package from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.special", "scipy.linalg",
                                    "scipy._lib._array_api", "concurrent.futures",
                                    "scipy.linalg._flapack", "scipy.special._special_ufuncs"])
def test_import_leaves_slow_scipy_modules_unloaded(module):
    # nothing in the package imports scipy.interpolate or any part of
    # scipy.special (the solver's exprel and the functionals' logs take the
    # C library's expm1 and numpy's log), and the LAPACK routines load from
    # their extension file at the solver's first factorization only (see
    # test_lapack_loads_at_the_first_march_only); nothing imports
    # concurrent.futures, which loads logging, as the Monte Carlo starts no
    # thread.  So a fresh import of the module opkin loads, which loads
    # every other module, loads none of these; it does load scipy itself,
    # whose version the benchmark records
    out = _run(f"import sys, opinion_kinetics.cli; "
               f"print({module!r} in sys.modules, 'scipy' in sys.modules)")
    assert out.split() == ["False", "True"]


def test_import_builds_no_dataclass_but_the_configs():
    # a dataclass execs its generated methods from source text at import;
    # the value types are written out, and only the two configs, whose
    # contract is dataclasses.replace, stay dataclasses
    out = _run("import dataclasses, sys, opinion_kinetics.cli\n"
               "names = {name for mod, m in list(sys.modules.items())\n"
               "         if mod.split('.')[0] == 'opinion_kinetics'\n"
               "         for name, obj in vars(m).items()\n"
               "         if isinstance(obj, type) and obj.__module__ == mod\n"
               "         and dataclasses.is_dataclass(obj)}\n"
               "print(*sorted(names))")
    assert out.split() == ["ExperimentConfig", "McConfig"]


def test_runs_leave_slow_scipy_modules_unloaded(tmp_path):
    # the guard above covers the import; this one covers a solve, a Monte
    # Carlo run of 8 sweeps and the log-Sobolev battery at tiny sizes
    out = _run(f"""
import sys
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.runners import run_mc, run_solve, verify_ls
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\ndt = 1e-2\\nt_end = 0.2\\n"
                        "mc.n = 100\\nmc.t_end = 0.04\\nmc.hist_n = 8\\n")
run_solve(cfg, {str(tmp_path / "solve")!r})
run_mc(cfg, {str(tmp_path / "mc")!r})
verify_ls(lambdas=(0.5, 1.0), n=16, n_samples=2, out_dir={str(tmp_path / "ls")!r})
slow = ("scipy.interpolate", "scipy.special", "scipy.linalg", "scipy._lib._array_api",
        "concurrent.futures", "scipy.special._special_ufuncs")
print([m for m in slow if m in sys.modules])
""")
    assert out.split("\n") == ["[]", ""]
    assert (tmp_path / "ls" / "ls_report.csv").exists()


def test_lapack_loads_at_the_first_march_only(tmp_path):
    # the runs that never step the solver, and a march that rejects its dt
    # or its start, leave scipy's LAPACK (and its OpenBLAS) unloaded; the
    # first march that factors I - dt A loads it once, registered under its
    # dotted name, as the very objects scipy.linalg.lapack binds
    out = _run(f"""
import sys
from pathlib import Path
from opinion_kinetics.cli import main
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.grid import DensityField, bimodal_density
from opinion_kinetics.runners import verify_ls, write_equilibrium_csv
from opinion_kinetics.solver import lapack, march
out = Path({str(tmp_path)!r})
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\n")
p, grid = cfg.params(), cfg.grid()
write_equilibrium_csv(out, p, grid)
verify_ls(lambdas=(0.5,), n=16, n_samples=1, out_dir=out / "ls")
(out / "decay.csv").write_text("t,entropy\\n" + "".join(f"{{k}},{{2.0 ** -k}}\\n" for k in range(12)))
assert main(["fit", "--csv", str(out / "decay.csv")]) == 0
v0 = bimodal_density(grid)
for dt, start in [(0.0, v0), (1e-2, DensityField(grid, 2.0 * v0.values))]:
    try:
        next(march(p, start, dt, 1))
    except ValueError:
        pass
unloaded = "scipy.linalg._flapack" not in sys.modules
next(march(p, v0, 1e-2, 1))
flapack = sys.modules["scipy.linalg._flapack"]
dgttrf, dgttrs = lapack()
import scipy.linalg.lapack as public
print(unloaded, dgttrf is flapack.dgttrf is public.dgttrf,
      dgttrs is flapack.dgttrs is public.dgttrs, lapack() is lapack())
""")
    assert out.split()[-4:] == ["True"] * 4
    assert (tmp_path / "equilibrium.csv").exists()


def test_loaded_objects_are_the_public_ones():
    # package first, public module after, in one fresh interpreter: the
    # extension file is the module scipy's own init goes on to use; the
    # LAPACK pair is loaded once, and a second lapack() returns it again
    out = _run("from opinion_kinetics import solver\n"
               "dgttrf, dgttrs = solver.lapack()\n"
               "import scipy.linalg.lapack as lapack\n"
               "print(dgttrf is lapack.dgttrf, dgttrs is lapack.dgttrs,\n"
               "      solver.lapack() is solver.lapack())\n")
    assert out.split() == ["True"] * 3


def test_lapack_without_its_extension_file_raises_naming_the_path(monkeypatch):
    # no public-import fallback: a scipy without scipy/linalg/_flapack* is
    # named in the error
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(solver, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    stem = Path(scipy.__path__[0], "linalg", "_flapack")
    with pytest.raises(ImportError, match=re.escape(f"{stem}*")):
        solver.lapack.__wrapped__()


def test_lapack_reuses_a_loaded_extension_module(monkeypatch):
    # scipy.linalg imported first: its _flapack is taken from sys.modules,
    # and no file is looked for
    monkeypatch.setattr(solver, "EXTENSION_SUFFIXES", [])
    dgttrf, dgttrs = solver.lapack.__wrapped__()
    assert dgttrf is scipy.linalg.lapack.dgttrf and dgttrs is scipy.linalg.lapack.dgttrs
