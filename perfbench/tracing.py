"""Outside-in span tracing for one benchmark repeat.

Timing wrappers are installed on the names callers actually look up (a
module global such as ``opinion_kinetics.solver.entropy_gap`` or a class
attribute such as ``BetaEquilibrium.on_grid``) and removed afterwards, so
nothing under ``src/`` changes.  Spans stay in memory as
``[name, start, end, parent]`` lists and are handed to the caller when the
repeat ends; the parent index makes self time derivable afterwards.
"""

from __future__ import annotations

import functools
import time

# (module attribute path, attribute, span name).  A span name is
# "<layer>.<operation>", where the layer is the package module whose work
# the span times.  Several call sites may share one span name.
WRAP_POINTS = [
    ("runners", "solve", "solver.solve"),
    ("runners", "make_solver_state", "solver.make_state"),
    ("solver", "make_solver_state", "solver.make_state"),
    ("solver", "assemble_coefficients", "solver.assemble"),
    ("solver", "discretize_equilibrium", "solver.kernel"),
    ("solver", "step_implicit", "solver.step"),
    ("runners", "step_implicit", "solver.step"),
    ("runners", "analytic_equilibrium_field", "solver.analytic_equilibrium"),
    ("solver", "entropy_gap", "functionals.entropy_gap"),
    ("functionals", "entropy_gap", "functionals.entropy_gap"),
    ("solver", "weighted_fisher", "functionals.fisher"),
    ("solver", "weighted_l2", "functionals.weighted_l2"),
    ("solver", "l1_distance", "functionals.l1"),
    ("runners", "l1_distance", "functionals.l1"),
    ("runners", "ls_slack", "functionals.ls_slack"),
    ("runners", "uniform_ls_slack", "functionals.uniform_ls_slack"),
    ("equilibrium.BetaEquilibrium", "on_grid", "equilibrium.on_grid"),
    ("runners", "random_smooth_density", "grid.random_smooth_density"),
    ("runners", "random_grid_function", "grid.random_grid_function"),
    ("runners", "minimize_potential_second", "transform.minimize"),
    ("runners", "initial_ensemble", "montecarlo.init"),
    ("runners", "sample_from_density", "montecarlo.init"),
    ("runners", "mc_step", "montecarlo.mc_step"),
    ("runners", "moments", "montecarlo.moments"),
    ("montecarlo", "histogram", "montecarlo.histogram"),
    ("runners", "_fp_snapshots", "runners.fp_reference"),
    ("runners", "coarsen_density", "runners.coarsen"),
    ("runners", "write_csv", "runners.write_csv"),
    ("runners", "build_decay_report", "fitting.report"),
    ("runners", "fit_decay_rate", "fitting.fit"),
]


def _on_grid_key(args, kwargs):
    eq = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return (eq.params.lam, eq.params.m, grid.n_cells)


# span name -> function of the call's arguments; distinct keys are counted
KEYED = {"equilibrium.on_grid": _on_grid_key}


class Tracer:
    """Collects nested spans from wrapped calls in a single thread."""

    def __init__(self):
        self.spans = []
        self.keys = {name: set() for name in KEYED}
        self.missing = []
        self._stack = [-1]
        self._installed = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str):
        orig = owner.__dict__[attr]
        key_of = KEYED.get(name)
        keys = self.keys.get(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if key_of is not None:
                keys.add(key_of(args, kwargs))
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, orig))

    def install(self, package):
        """Wrap every entry of WRAP_POINTS that exists in this package.

        A missing name is recorded, not fatal: the span coverage metric then
        shows the work that went untimed.
        """
        for path, attr, name in WRAP_POINTS:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{path}.{attr}")
                continue
            self._wrap(owner, attr, name)

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()
