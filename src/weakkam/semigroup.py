"""Semi-Lagrangian realizations of the backward and forward solution semigroups.

Every time-stepping solve in the package is built from two pieces defined
here.  The min-plus kernel `MinPlusStepper` pulls values from the foot
points x - v*dt along straight characteristics and charges the running
cost dt*L(x,v):

    u'(x_i) = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j) ]

The cost is a fixed table, or is recomputed from the current values when
it depends on u (the two-scale solvers).  The kernel steps one function
or a batch of them, one per column (the Peierls barrier steps one per
start node).  The velocity search is exhaustive over the velocity grid
(L may be nonsmooth) and foot points use monotone periodic linear
interpolation.  `Stepper` adds the contact correction -dt*W(x,u) of a
split Hamiltonian, explicitly by default; "picard" mode re-evaluates W at
the updated value by scalar fixed-point iteration under `iterate`, which
contracts because dt*Lambda <= 1/2.  Each Stepper folds W at the grid
nodes once (`Expr.fold`), so a step evaluates only the u-dependent rest of
W, with values bit-identical to evaluating all of W.  The forward step is
the mirror image (max, +dt W), taken through a kernel on the negated
velocity grid, whose foot points x_i + v_j dt are the forward ones, by the
identity max_j [a_j - b_j] = -min_j [-a_j + b_j].

One rule (_check_step) bounds the time step, in the kernel and at config
load alike:
    dt * Lambda <= 1/2        (contact term, when a bound is given)
    dt * vmax   <= 1/2        (foot points stay within half the unit torus)

The driver `iterate` runs every loop in the package: the time-stepping
loops (the Peierls barrier's included), the Picard correction and the
discounted solve's policy iteration.  It applies a step map, measures the
residual sup|u_{k+1} - u_k|/dt once per step, raises on a nonfinite
iterate, and stops at a tolerance or when an observer asks it to.  Every
contact evolution over a horizon (the evolve command and the stability
probes) goes through `evolve`, which returns the `SolveRecord` of `iterate`;
`stationary_solve` steps backward until a tolerance instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import Field, TorusGrid
from .hamiltonian import HamiltonianSpec, LagrangianTable, frozen_values

__all__ = [
    "CFLError",
    "MinPlusStepper",
    "Stepper",
    "SolveRecord",
    "iterate",
    "evolve",
    "stationary_solve",
]


class CFLError(ValueError):
    """Time step too large for the declared bounds."""


def _check_step(dt: float, vmax: float, lambda_bound: float | None):
    """Raise CFLError unless dt > 0, dt*lambda_bound <= 1/2 (when a bound is
    given) and dt*vmax <= 1/2, each up to 1e-12 of rounding."""
    if dt <= 0:
        raise CFLError("dt must be positive")
    if lambda_bound is not None and dt * lambda_bound > 0.5 + 1e-12:
        raise CFLError(f"dt*Lambda = {dt * lambda_bound:.3g} exceeds 1/2")
    if dt * vmax > 0.5 + 1e-12:
        raise CFLError(f"dt*vmax = {dt * vmax:.3g} exceeds 1/2, half the unit torus")


class GatherPlan:
    """Precomputed periodic interpolation stencil for foot points x_i - v_j*dt."""

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float):
        shift = -vgrid * dt / g.h
        base = np.floor(shift)
        theta = (shift - base)[:, None]
        idx0 = (np.arange(g.n)[None, :] + base.astype(np.int64)[:, None]) % g.n
        self.idx0 = np.ascontiguousarray(idx0)
        self.idx1 = np.ascontiguousarray((idx0 + 1) % g.n)
        self.w0 = 1.0 - theta
        self.w1 = theta

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u[self.idx0] * self.w0 + u[self.idx1] * self.w1

    def matrix(self, policy: np.ndarray) -> np.ndarray:
        """The dense (n, n) interpolation matrix P with (P u)_i = apply(u)[policy[i], i]."""
        rows = np.arange(policy.size)
        P = np.zeros((policy.size, policy.size))
        P[rows, self.idx0[policy, rows]] = self.w0[policy, 0]
        # += keeps both weights when the two stencil nodes coincide (n = 1)
        P[rows, self.idx1[policy, rows]] += self.w1[policy, 0]
        return P


class MinPlusStepper:
    """The min-plus kernel u'_i = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j) ].

    cost is the (n, m) table L, or a callable u -> (n, m) table for a cost
    that depends on the current values.  lambda_bound, when given, is the
    derivative bound of a contact term applied on top of the kernel.
    step takes one function of shape (n,) or, with a fixed cost table, a
    batch of shape (n, B), one function per column, each column stepped
    exactly as if alone.  policy reads the minimizing velocity index of a
    single function.  A negated velocity grid gives the forward foot points
    x_i + v_j dt with the same cost columns.
    """

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float, cost,
                 lambda_bound: float | None = None):
        _check_step(dt, float(np.abs(vgrid).max()), lambda_bound)
        self.dt = dt
        self.plan = GatherPlan(g, vgrid, dt)
        self._cost = cost if callable(cost) else None
        self._dtLT = None if self._cost else np.ascontiguousarray(dt * cost.T)

    def _dt_cost(self, u: np.ndarray) -> np.ndarray:
        return self._dtLT if self._cost is None else self.dt * self._cost(u).T

    def _candidates(self, u: np.ndarray) -> np.ndarray:
        """The (m, n) table u(x_i - v_j dt) + dt L(x_i, v_j) of one function u."""
        return self.plan.apply(u) + self._dt_cost(u)

    def step(self, u: np.ndarray) -> np.ndarray:
        if u.ndim == 1:
            return self._candidates(u).min(axis=0)
        # a batch (n, B) goes one velocity at a time, keeping (n, B) temporaries
        dtLT = self._dt_cost(u)
        p = self.plan
        best = None
        for j in range(dtLT.shape[0]):
            cand = u[p.idx0[j]] * p.w0[j]
            cand += u[p.idx1[j]] * p.w1[j]
            cand += dtLT[j][:, None]
            best = cand if best is None else np.minimum(best, cand, out=best)
        return best

    def policy(self, u: np.ndarray, current: np.ndarray | None = None) -> np.ndarray:
        """Index j_i of the minimizing velocity at each node for one function u.

        With a current policy, node i keeps current[i] unless the argmin
        candidate is lower by more than rounding (16 eps relative): exact
        ties would otherwise let a policy iteration cycle.
        """
        cand = self._candidates(u)
        best = cand.argmin(axis=0)
        if current is None:
            return best
        cols = np.arange(u.size)
        kept = cand[current, cols]
        better = cand[best, cols] < kept - 16 * np.finfo(float).eps * np.abs(kept)
        return np.where(better, best, current)


class Stepper:
    """One contact step bound to (spec, table, dt, mode): the min-plus kernel
    followed by the explicit or Picard correction -+dt W(x, u)."""

    def __init__(self, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                 mode: str = "explicit"):
        if mode not in ("explicit", "picard"):
            raise ValueError(f"mode must be 'explicit' or 'picard', got {mode!r}")
        self._back = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L, spec.lambda_bound)
        # x_i + v_j dt is the backward foot point of -v_j
        self._fwd = MinPlusStepper(lt.grid, -lt.vgrid, dt, lt.L, spec.lambda_bound)
        self.dt = dt
        self.mode = mode
        self.xs = lt.grid.nodes
        # W's x-only part is evaluated here once; each step evaluates the u-dependent rest
        self.W = spec.W.fold({"x": self.xs})

    def _resolve(self, base: np.ndarray, u: np.ndarray, sign: float) -> np.ndarray:
        def corrected(z):
            return base + sign * self.dt * frozen_values(self.W, self.xs, z)

        z = corrected(u)
        if self.mode == "explicit":
            return z
        # unit dt: the driver's residual is the plain sup-norm change
        rec = iterate(corrected, z, 1.0, 50, tol=1e-13)
        if not rec.converged:
            raise ConvergenceError(
                f"picard iteration did not converge (|delta|={rec.residual:.3e})", rec.residual)
        return rec.values

    def backward_values(self, u: np.ndarray) -> np.ndarray:
        return self._resolve(self._back.step(u), u, -1.0)

    def forward_values(self, u: np.ndarray) -> np.ndarray:
        # max_j [u(x_i + v_j dt) - dt L] = -min_j [-u(x_i + v_j dt) + dt L]
        return self._resolve(-self._fwd.step(-u), u, +1.0)


@dataclass
class SolveRecord:
    """What every step loop returns: the last iterate and how the loop ended."""

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


def evolve(phi: Field, spec: HamiltonianSpec, lt: LagrangianTable, T: float, dt: float,
           direction: str = "backward", observe=None) -> SolveRecord:
    """Step phi by the backward or forward semigroup over ceil(T/dt) steps.

    This is the one entry point for a contact evolution: it builds the
    Stepper, turns the horizon into a step count and returns the record of
    iterate.  observe(k, u_k) is iterate's own callback, seeing every step
    k = 1, 2, ...; a true return stops the evolution there.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    stepper = Stepper(spec, lt, dt)
    advance = stepper.backward_values if direction == "backward" else stepper.forward_values
    return iterate(advance, phi.values, dt, math.ceil(T / dt - 1e-12), observe=observe)


def stationary_solve(phi0: Field, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                     tol: float, T_max: float) -> SolveRecord:
    """Evolve backward until the per-unit-time residual drops below tol.

    Returns the driver's record, whose values are the last iterate on
    phi0's grid either way; non-convergence within T_max is reported
    through the flag, not raised, since a residual stall at the scheme
    consistency level is a meaningful outcome.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stepper = Stepper(spec, lt, dt)
    return iterate(stepper.backward_values, phi0.values, dt, math.ceil(T_max / dt), tol)
