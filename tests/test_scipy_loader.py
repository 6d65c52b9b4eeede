import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg.lapack
import scipy.special

from opinion_kinetics import _scipy


def test_loaded_objects_are_the_public_ones():
    # package first, public module after, in one fresh interpreter: the
    # extension file is the module scipy's own init goes on to use; the
    # LAPACK pair is loaded once, and a second lapack() returns it again
    code = (
        "from opinion_kinetics import solver\n"
        "dgttrf, dgttrs = solver.lapack()\n"
        "import scipy.linalg.lapack as lapack\n"
        "print(dgttrf is lapack.dgttrf, dgttrs is lapack.dgttrs,\n"
        "      solver.lapack() is solver.lapack())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["True"] * 3


def test_missing_extension_file_falls_back_to_the_public_name():
    (xlogy,) = _scipy.load("scipy.special._no_such_extension", ("xlogy",), "scipy.special")
    assert xlogy is scipy.special.xlogy


def test_name_missing_from_the_extension_falls_back_to_the_public_name():
    (dgttrf,) = _scipy.load("scipy.special._special_ufuncs", ("dgttrf",),
                            "scipy.linalg.lapack")
    assert dgttrf is scipy.linalg.lapack.dgttrf


@pytest.mark.parametrize("public", ["scipy._no_such_module", "scipy.special"])
def test_neither_file_nor_public_name_raises_naming_the_file(public):
    with pytest.raises(ImportError, match="_no_such_extension"):
        _scipy.load("scipy.special._no_such_extension", ("no_such_name",), public)
