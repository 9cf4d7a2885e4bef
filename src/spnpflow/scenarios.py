"""Preset configurations: cavity energy decay, steric sweep, exponent study.

Each factory returns a Scenario bundling parameters, initial data and
boundary modes; pass mesh/step/time overrides for desk-scale runs.  The CI
defaults keep every preset under a few minutes: h = sqrt(2)/20 with T = 0.5
for the energy-decay cavity, T = 0.2 for the steric sweep and T = 2 with
dt = 2e-3 for the exponent study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, model
from .mesh import build_rect_mesh, dof_map
from .scheme import Stepper
from .sparse import System

STERIC_MATRICES = (
    np.zeros((2, 2)),
    np.array([[4.0, 1.0], [1.0, 4.0]]),
    np.array([[8.0, 1.0], [1.0, 8.0]]),
    np.array([[8.0, 4.0], [4.0, 8.0]]),
    np.array([[8.0, 7.0], [7.0, 8.0]]),
)


@dataclass
class Scenario:
    """A runnable preset: parameters, initial fields and boundary modes."""

    params: model.Params
    c0_fns: list
    bc_mode: str = "zero_mean"
    neutralize_net_charge: bool = False
    snapshot_times: tuple = ()
    nx: int = 40
    ny: int = 40

    def build_mesh(self):
        return build_rect_mesh(0.0, 1.0, 0.0, 1.0, self.nx, self.ny)

    def make_stepper(self, mesh=None, **flags):
        """Construct a Stepper with the scenario's modes and set its initial
        state; extra keyword flags pass through to the Stepper."""
        mesh = mesh or self.build_mesh()
        flags.setdefault("bc_mode", self.bc_mode)
        flags.setdefault("neutralize_net_charge", self.neutralize_net_charge)
        stepper = Stepper(mesh, self.params, **flags)
        stepper.set_initial(self.c0_fns)
        return stepper


def scenario_energy_decay(nx=40, dt=1e-2, t_final=2.0):
    """Coulomb-driven cavity flow used for the energy/mass checks.

    Smooth cosine perturbations of a uniform 12/12 ion background, fluid at
    rest, diagonal steric matrix diag(2, 2).
    """
    params = model.Params(
        re=1.0, pe=50.0, co=0.6, lam=0.2, mu0=1.5, mu_inf=0.5, lambda1=0.1,
        k=0.2, z=(1, -1), w_steric=np.diag([2.0, 2.0]),
        dt=dt, t_final=t_final)
    c0_fns = [
        lambda x, y: 12.0 + 10.0 * np.cos(np.pi * x) * np.cos(np.pi * y),
        lambda x, y: 12.0 - 10.0 * np.cos(np.pi * x) * np.cos(np.pi * y),
    ]
    return Scenario(params=params, c0_fns=c0_fns,
                    nx=nx, ny=nx)


def scenario_steric(w_choice, nx=40, dt=1e-3, t_final=1.0):
    """Steric-matrix sweep: tanh fronts concentrated near the right wall.

    ``w_choice`` indexes the five interaction matrices from the sweep (0 is
    the classical steric-free coupling).  The initial net charge is nonzero,
    so the potential solve runs with mean subtraction (logged).
    """
    if not 0 <= w_choice < len(STERIC_MATRICES):
        raise ValueError(f"w_choice must be in 0..{len(STERIC_MATRICES) - 1}")
    # sharp fronts relax fast and the entropic energy sinks well below its
    # initial value; pin the shift to its rigorous floor Co * N * |Omega|
    # (c log c - c >= -1) instead of the initial-energy default
    params = model.Params(
        re=5.0, pe=50.0, co=5.0, lam=0.1, mu0=1.0, mu_inf=0.5, lambda1=1.0,
        k=0.5, z=(1, -1), w_steric=STERIC_MATRICES[w_choice].copy(),
        b_shift=1.0 + 5.0 * 2.0, dt=dt, t_final=t_final)
    floor = 1e-6

    def h_x(x):
        return 0.5 * (1.0 + np.tanh((x - 0.75) / 0.04))

    def h1_y(y):
        return 0.5 * (1.0 + np.tanh((y - 0.55) / 0.04))

    def h2_y(y):
        return 0.5 * (1.0 + np.tanh((0.45 - y) / 0.04))

    c0_fns = [
        lambda x, y: floor + (1.0 - floor) * h_x(x) * h1_y(y),
        lambda x, y: floor + (1.0 - floor) * h_x(x) * h2_y(y),
    ]
    return Scenario(params=params, c0_fns=c0_fns,
                    neutralize_net_charge=True,
                    snapshot_times=(0.002, 0.1, 1.0), nx=nx, ny=nx)


def scenario_exponent_k(k, nx=60, dt=1e-3, t_final=5.0):
    """Shear-exponent study: charged disks driven by a side-to-side potential.

    The potential satisfies V = 1 at x = 0 and V = 0 at x = 1 with natural
    conditions top and bottom; ions are no-flux and the walls no-slip.
    """
    if k <= 0:
        raise ValueError("power index k must be positive")
    # entropic floor Co * N * |Omega|, as in the steric preset
    params = model.Params(
        re=50.0, pe=50.0, co=100.0, lam=0.1, mu0=1.0, mu_inf=0.1,
        lambda1=0.1, k=float(k), z=(1, -1), w_steric=np.zeros((2, 2)),
        b_shift=1.0 + 100.0 * 2.0, dt=dt, t_final=t_final)
    floor = 1e-6

    def disk(cx, cy):
        return lambda x, y: 1.0 + floor - np.tanh(
            100.0 * ((x - cx) ** 2 + (y - cy) ** 2 - 0.05 ** 2))

    c0_fns = [disk(0.4, 0.4), disk(0.6, 0.6)]
    return Scenario(params=params, c0_fns=c0_fns,
                    bc_mode="dirichlet_lr", nx=nx, ny=nx)


# ----------------------------------------------------------------------
# flow diagnostics used by the qualitative checks
# ----------------------------------------------------------------------

def stream_function(u, mesh):
    """P1 stream function: -lap(chi) = vorticity, chi = 0 on the boundary."""
    p1 = dof_map(mesh, 1)
    g = fem.eval_grads(u, mesh)
    vorticity = g[..., 1, 0] - g[..., 0, 1]
    K = fem.assemble("stiffness", p1, p1, mesh)
    b = fem.assemble_vector("source", p1, mesh, vorticity)
    bc = System(K, p1.ordering, p1.boundary_dofs)
    chi, _ = bc.factor(K.data).solve(bc.rhs(b))
    return fem.Field(p1, chi)


def count_interior_extrema(chi, mesh, rel_floor=1e-6):
    """Strict local extrema of a vertex field over the edge graph.

    Extrema with magnitude below ``rel_floor`` times the field maximum are
    ignored so numerical ripple around zero does not register.
    """
    vals = chi.coefficients
    # each vertex's neighbour max and min over both ends of every edge
    ends, others = mesh.edges.ravel(), mesh.edges[:, ::-1].ravel()
    nb_max = np.full(mesh.n_nodes, -np.inf)
    nb_min = np.full(mesh.n_nodes, np.inf)
    np.maximum.at(nb_max, ends, vals[others])
    np.minimum.at(nb_min, ends, vals[others])
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[chi.dofmap.boundary_dofs] = False
    extremum = (vals > nb_max) | (vals < nb_min)
    large = np.abs(vals) >= rel_floor * np.abs(vals).max()
    return int(np.count_nonzero(interior & extremum & large))


def kinetic_energy(u, mesh):
    vals = fem.eval_values(u, mesh)
    return 0.5 * fem.integrate(vals[..., 0] ** 2 + vals[..., 1] ** 2, mesh)


def max_charge_imbalance(state):
    """max |c_p - c_n| over dofs (two-species states)."""
    return float(np.abs(state.c[0].coefficients
                        - state.c[1].coefficients).max())
