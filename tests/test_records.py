"""The package's immutable records: construction, equality, hashing and
the refusal of assignment."""

import dataclasses

import numpy as np
import pytest

from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.fitting import fit_decay_rate
from opinion_kinetics.grid import DensityField, Grid, uniform_density
from opinion_kinetics.montecarlo import Ensemble, InteractionParams
from opinion_kinetics.params import KineticParams
from opinion_kinetics.runners import Check, LsVerification, Report
from opinion_kinetics.solver import solve


def _records():
    """One record of each of the 11 value types, by type name."""
    grid = Grid(8)
    f = uniform_density(grid)
    p = KineticParams(0.5, 0.0)
    check = Check.at_most("x", 0.5, 1.0)
    return {
        "Grid": grid,
        "DensityField": f,
        "KineticParams": p,
        "BetaEquilibrium": BetaEquilibrium.from_params(p),
        "DecayFit": fit_decay_rate(np.arange(10.0), np.exp(-np.arange(10.0))),
        "InteractionParams": InteractionParams(0.5, 0.25, 0.01),
        "Ensemble": Ensemble(np.zeros(4), np.random.default_rng(0)),
        "Trajectory": solve(p, f, 0.1, 0.2),
        "Check": check,
        "Report": Report(("a = 1",), (check,)),
        "LsVerification": LsVerification((), (check,), [{"pass": True}]),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_a_field_cannot_be_assigned_or_deleted(name):
    record = _records()[name]
    assert type(record).__name__ == name
    field = next(iter(getattr(record, "_fields", None) or vars(record)))
    # a caller that catches a frozen dataclass's error still catches it;
    # the named tuples raise a plain AttributeError
    error = AttributeError if isinstance(record, tuple) else dataclasses.FrozenInstanceError
    with pytest.raises(error):
        setattr(record, field, 0)
    with pytest.raises(error):
        delattr(record, field)
    with pytest.raises(error):
        record.anything = 0


@pytest.mark.parametrize("make", [
    lambda f: DensityField(f.grid, f.values),
    lambda f: Ensemble(f.values * 0.0, np.random.default_rng(0)),
    lambda f: solve(KineticParams(0.5, 0.0), f, 0.1, 0.2),
], ids=["DensityField", "Ensemble", "Trajectory"])
def test_array_records_compare_and_hash_by_identity(make):
    # an array-valued field has no truth value, so equality by value would
    # raise; an equal copy of the arrays is another record
    f = uniform_density(Grid(8))
    a, b = make(f), make(f)
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2
    assert hash(a) == hash(a)


def test_parameter_records_compare_and_hash_by_value():
    assert Grid(8) == Grid(8) and Grid(8) != Grid(9)
    assert hash(Grid(8)) == hash(Grid(8))
    assert KineticParams(0.5, 0.1) == KineticParams(lam=0.5, m=0.1)
    assert KineticParams(0.5, 0.1) != KineticParams(0.5, -0.1)
    assert len({KineticParams(0.5, 0.1), KineticParams(0.5, 0.1)}) == 1
    ip = InteractionParams(gamma=0.5, sigma2=0.25, epsilon=0.01)
    same = InteractionParams(0.5, 0.25, 0.01)
    assert ip == same and hash(ip) == hash(same)
    assert ip != InteractionParams(0.5, 0.25, 0.02)
    # a record of another type with the same fields is not equal
    assert Grid(8) != (8,) and KineticParams(0.5, 0.1) != (0.5, 0.1)
    assert repr(KineticParams(0.5, 0.1)) == "KineticParams(lam=0.5, m=0.1)"
    assert repr(Grid(8)) == "Grid(n_cells=8)"


def test_records_take_their_fields_by_keyword():
    grid = Grid(n_cells=8)
    f = DensityField(grid=grid, values=np.full(8, 0.5))
    assert f.grid is grid and not f.values.flags.writeable
    e = Ensemble(opinions=[0.5, -0.5], rng=None, attempted_pairs=3, rejected_pairs=1)
    assert e.opinions.dtype == float and e.rejection_fraction == 1 / 3
    assert Check(name="x", value=None, bound=1.0, passed=False).value is None
    assert LsVerification(lines=(), checks=(), rows=[]).passed


def test_density_field_copies_and_freezes_its_values():
    v = np.full(8, 0.5)
    f = DensityField(Grid(8), v)
    v[0] = 1.0
    assert f.values[0] == 0.5
    with pytest.raises(ValueError):
        f.values[0] = 2.0
