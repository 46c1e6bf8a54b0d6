"""Semi-Lagrangian realizations of the backward and forward solution semigroups.

Every time-stepping solve in the package is built from two pieces defined
here.  The min-plus kernel `MinPlusStepper` pulls values from the foot
points x -+ v*dt along straight characteristics and charges the running
cost dt*L(x,v):

    u'(x_i) = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j) ]

The cost is a fixed table, or is recomputed from the current values when
it depends on u (the two-scale solvers).  The velocity search is
exhaustive over the velocity grid (L may be nonsmooth) and foot points use
monotone periodic linear interpolation.  `Stepper` adds the contact
correction -dt*W(x,u) of a split Hamiltonian, explicitly by default;
"picard" mode re-evaluates W at the updated value by scalar fixed-point
iteration, which contracts because dt*Lambda <= 1/2.  The forward step is
the mirror image (max, +dt W), taken through the kernel by the identity
max_j [a_j - b_j] = -min_j [-a_j + b_j].

The kernel enforces the stability requirements at construction:
    dt * Lambda <= 1/2        (contact term, when a bound is given)
    dt * vmax   <= period/2   (foot points stay within half the torus)

The driver `iterate` runs every step loop: it applies a step map, measures
the residual sup|u_{k+1} - u_k|/dt once per step, raises on a nonfinite
iterate, and stops at a tolerance or when an observer asks it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, lipschitz
from .hamiltonian import HamiltonianSpec, LagrangianTable

__all__ = [
    "CFLError",
    "PicardError",
    "MinPlusStepper",
    "Stepper",
    "SolveRecord",
    "iterate",
    "evolve",
    "EvolveResult",
    "stationary_solve",
    "StationaryResult",
]


class CFLError(ValueError):
    """Time step too large for the declared bounds."""


class PicardError(RuntimeError):
    def __init__(self, node: int, delta: float):
        super().__init__(f"picard iteration did not converge at node {node} (|delta|={delta:.3e})")
        self.node = node


class GatherPlan:
    """Precomputed periodic interpolation stencil for foot points x_i -+ v_j*dt."""

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float, backward: bool):
        sign = -1.0 if backward else 1.0
        shift = sign * vgrid * dt / g.h
        base = np.floor(shift)
        theta = (shift - base)[:, None]
        idx0 = (np.arange(g.n)[None, :] + base.astype(np.int64)[:, None]) % g.n
        self.idx0 = np.ascontiguousarray(idx0)
        self.idx1 = np.ascontiguousarray((idx0 + 1) % g.n)
        self.w0 = 1.0 - theta
        self.w1 = theta

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u[self.idx0] * self.w0 + u[self.idx1] * self.w1


class MinPlusStepper:
    """The min-plus kernel u'_i = min_j [ u(x_i -+ v_j dt) + dt L(x_i, v_j) ].

    cost is the (n, m) table L, or a callable u -> (n, m) table for a cost
    that depends on the current values.  lambda_bound, when given, is the
    derivative bound of a contact term applied on top of the kernel.
    """

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float, cost,
                 lambda_bound: float | None = None, backward: bool = True):
        if dt <= 0:
            raise CFLError("dt must be positive")
        if lambda_bound is not None and dt * lambda_bound > 0.5 + 1e-12:
            raise CFLError(f"dt*Lambda = {dt * lambda_bound:.3g} exceeds 1/2")
        vmax = float(np.abs(vgrid).max())
        if dt * vmax > g.period / 2 + 1e-12:
            raise CFLError(
                f"dt*vmax = {dt * vmax:.3g} exceeds period/2 = {g.period / 2:.3g}")
        self.dt = dt
        self._plan = GatherPlan(g, vgrid, dt, backward)
        self._cost = cost if callable(cost) else None
        self._dtLT = None if self._cost else np.ascontiguousarray(dt * cost.T)

    def step(self, u: np.ndarray) -> np.ndarray:
        dtLT = self._dtLT if self._cost is None else self.dt * self._cost(u).T
        return (self._plan.apply(u) + dtLT).min(axis=0)


class Stepper:
    """One contact step bound to (spec, table, dt, mode): the min-plus kernel
    followed by the explicit or Picard correction -+dt W(x, u)."""

    def __init__(self, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                 mode: str = "explicit"):
        if mode not in ("explicit", "picard"):
            raise ValueError(f"mode must be 'explicit' or 'picard', got {mode!r}")
        self._back = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L, spec.lambda_bound)
        self._fwd = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L, spec.lambda_bound,
                                   backward=False)
        self.spec = spec
        self.lt = lt
        self.dt = dt
        self.mode = mode
        self.xs = lt.grid.nodes

    def _contact(self, u: np.ndarray) -> np.ndarray:
        out = self.spec.W.evaluate({"x": self.xs, "u": u})
        return np.broadcast_to(np.asarray(out, dtype=float), u.shape)

    def _resolve(self, base: np.ndarray, u: np.ndarray, sign: float) -> np.ndarray:
        if self.mode == "explicit":
            return base + sign * self.dt * self._contact(u)
        z = base + sign * self.dt * self._contact(u)
        for _ in range(50):
            z_new = base + sign * self.dt * self._contact(z)
            delta = np.abs(z_new - z)
            z = z_new
            if delta.max() <= 1e-13:
                return z
        raise PicardError(int(np.argmax(delta)), float(delta.max()))

    def backward_values(self, u: np.ndarray) -> np.ndarray:
        return self._resolve(self._back.step(u), u, -1.0)

    def forward_values(self, u: np.ndarray) -> np.ndarray:
        # max_j [u(x_i + v_j dt) - dt L] = -min_j [-u(x_i + v_j dt) + dt L]
        return self._resolve(-self._fwd.step(-u), u, +1.0)


@dataclass
class SolveRecord:
    values: np.ndarray
    steps: int
    residual: float        # sup|u_k - u_{k-1}| / dt at the last step (inf if none)
    converged: bool        # the residual reached tol


def iterate(step, u0: np.ndarray, dt: float, max_steps: int, tol: float | None = None,
            observe=None) -> SolveRecord:
    """Apply step up to max_steps times from u0.

    Stops early once the residual sup|u_k - u_{k-1}|/dt is at most tol, or
    when observe(k, u_k) returns true.  The residual is also the finiteness
    guard: a NaN or inf iterate makes it nonfinite, which raises ValueError
    naming the step.
    """
    u = np.array(u0, dtype=float)
    residual = math.inf
    for k in range(1, max_steps + 1):
        nu = step(u)
        residual = float(np.abs(nu - u).max()) / dt
        if not math.isfinite(residual):
            raise ValueError(f"nonfinite values at step {k} (t={k * dt:.6g})")
        u = nu
        if tol is not None and residual <= tol:
            return SolveRecord(u, k, residual, True)
        if observe is not None and observe(k, u):
            return SolveRecord(u, k, residual, False)
    return SolveRecord(u, max_steps, residual, False)


@dataclass
class EvolveResult:
    snapshots: list          # [(t, Field)], strictly increasing times
    final: Field
    dt: float
    steps: int
    lipschitz: list          # discrete Lipschitz constant of each snapshot
    final_residual: float    # sup|u_k - u_{k-1}| / dt at the last step


def evolve(phi: Field, spec: HamiltonianSpec, lt: LagrangianTable, T: float, dt: float,
           mode: str = "explicit", direction: str = "backward",
           snap_every: int = 0) -> EvolveResult:
    """Repeated stepping from phi over steps = ceil(T/dt)."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    stepper = Stepper(spec, lt, dt, mode)
    advance = stepper.backward_values if direction == "backward" else stepper.forward_values
    steps = math.ceil(T / dt - 1e-12)
    snapshots = []
    lip = []

    def snapshot(k, u):
        if (snap_every and k % snap_every == 0) or k == steps:
            f = Field(phi.grid, u)
            snapshots.append((k * dt, f))
            lip.append(lipschitz(f))

    rec = iterate(advance, phi.values, dt, steps, observe=snapshot)
    return EvolveResult(snapshots, snapshots[-1][1], dt, rec.steps, lip, rec.residual)


@dataclass
class StationaryResult:
    field: Field
    residual: float        # sup|u_{k+1} - u_k| / dt at the final iterate
    converged: bool
    steps: int
    t_elapsed: float


def stationary_solve(phi0: Field, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                     tol: float, T_max: float, mode: str = "explicit") -> StationaryResult:
    """Evolve backward until the per-unit-time residual drops below tol.

    Returns the last iterate either way; non-convergence within T_max is
    reported through the flag, not raised, since a residual stall at the
    scheme consistency level is a meaningful outcome.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stepper = Stepper(spec, lt, dt, mode)
    rec = iterate(stepper.backward_values, phi0.values, dt, math.ceil(T_max / dt), tol)
    return StationaryResult(Field(phi0.grid, rec.values), rec.residual, rec.converged,
                            rec.steps, rec.steps * dt)
