"""Semi-Lagrangian realizations of the backward and forward solution semigroups.

Every time-stepping solve in the package is built from two pieces defined
here.  The min-plus kernel `MinPlusStepper` pulls values from the foot
points x - v*dt along straight characteristics and charges the running
cost dt*L(x,v):

    u'(x_i) = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j) ]

The cost is a fixed table, or is recomputed from the current values when
it depends on u (the two-scale solvers).  The kernel steps one function
or a batch of them, one per column (the Peierls barrier steps one per
start node, over a base block only: its longer horizons are min-plus
products); a batch reads each velocity's foot rows as slices of itself
stacked twice, since on one copy they are its rows rotated by one shift.
A cost table of k*n rows makes it step k disjoint copies of the torus as
one function of k*n values, each copy bit for bit as if alone (the
long-time march of many critical values at once).  One
function is stepped through a preallocated (m, N) candidate buffer, with
the same products and sums as a freshly built table; the plan's weights
are full (m, N) arrays, each row one value, so a product with them is one
loop over the table.  The velocity search is exhaustive over the velocity
grid (L may be nonsmooth) and foot points use monotone periodic linear
interpolation.  `Stepper` adds the contact term W(x,u) of a split
Hamiltonian.  A W affine in u (every builtin) is read once per Stepper as
two node arrays, a = dWu and b = W(x, 0), and its explicit step is the
Strang split E(dt/2) K E(dt/2) (Strang 1968), E(h) the exact flow of
u' = -(a u + b): u -> alpha*u + beta with alpha = exp(-a h) and
beta = -b h phi1(-a h), phi1(z) = expm1(z)/z, phi1(0) = 1.  alpha and beta
are node arrays computed once per Stepper and direction, so a step is a
multiply-add, the kernel step and a multiply-add, evaluating no formula;
it is monotone, with Lipschitz constant at most exp(dt*Lambda).  The
Stepper decides this itself (`hamiltonian.affine_parts`): dWu must not
read u, and W must equal a*u + b within a few ulps at every node and every
u of the load-time lattice.  Any other W is folded at the nodes once
(`Expr.fold`) and its explicit step is K(u) - dt*W(x, u), evaluating the
u-dependent rest, bit-identical to evaluating all of W.  "picard" mode
corrects K(u) by -dt*W at the updated value instead, by scalar
fixed-point iteration under `iterate`, which contracts because
dt*Lambda <= 1/2; it reads an affine W as a*u + b, equal to the formula
up to W's own roundings.  The Stepper also supplies the Newton slope
dt*dWu(x, u) of `stationary_solve` for a W that is not affine.  An
explicit Stepper over k copies of the torus steps k functions as one of
k*n values (the kernel on lt.L tiled k times, W read on the tiled nodes),
each bit for bit as if alone; the Picard mode refuses copies.  The forward
step is the mirror image (max, +W, the flow of u' = a u + b), taken
through a kernel on the negated velocity grid, whose foot points
x_i + v_j dt are the forward ones, by the identity
max_j [a_j - b_j] = -min_j [-a_j + b_j].

One rule (_check_step) bounds the time step:
    dt * Lambda <= 1/2        (contact term, when a bound is given)
    dt * vmax   <= 1/2        (foot points stay within half the unit torus)
Each layer checks its own part: the kernel dt*vmax, and the layer that
adds a u-dependent term (Stepper, the level-table solve of homogenize)
dt*Lambda; config load checks both.

The driver `iterate` runs every step loop in the package: the
time-stepping loops (the Peierls barrier's base block included) and the
Picard correction.  It applies a step map, measures the residual
sup|u_{k+1} - u_k|/dt once per step, raises on a nonfinite iterate, and
stops at a tolerance or when an observer asks it to.  Every contact
evolution over a horizon (the evolve command and the stability probes)
goes through `evolve`, which returns the `SolveRecord` of `iterate`; given
several starting functions it steps them as copies of the torus in one
evolution, whose nonfinite guard covers every copy.

`fixed_point` is the one solver of a stationary fixed point u = T(u):
u_- (`stationary_solve`), the effective solve and the discounted solve.
T(u) = correct(K(u), u), K the kernel it is given and correct the
caller's (the affine flow E(dt) of the split step, the Euler contact
correction, base - lam*dt*u, the identity); its dt is the kernel's.  It
is Newton-Howard on F(u) = u - T(u) (Bokanowski, Maroso & Zidani 2009):
J = diag(1 + d) - diag(g) P_pi, pi the kernel's argmin, P_pi its gather
rows, (g, d) the caller's ((exp(-a dt), 0) for the split step,
(1, dt*dWu), (1, -dt*dL_pi/du) on a level table, (1, lam*dt)).  A Newton
iteration steps the kernel once, and reads F and pi from that one
candidate table.  For an affine W, stationary_solve solves w = E(dt) K(w)
for w = E(dt/2) u, so u_- = E(-dt/2) w is a fixed point of the split step
itself, from which the evolutions of u_- +- delta do not drift.
Where Newton starts is read from d at the start, pi its kernel step's
argmin.  Where d > 0 at every node, J is strictly diagonally dominant
under every policy, Howard's algorithm converges from any start, and
Newton starts there (the effective solve, a W with dWu > 0, the
discounted solve).  Otherwise (d = 0 for the split step), or when that
Newton fails, the march runs first, to residual MARCH_TO = 1e-1, so
Newton starts near the solution the march would reach (Alla, Falcone &
Kalise 2015; from 0 on the worked example Newton alone fails at once).
One real step certifies Newton's result against tol.  A singular J (the
W-free eikonal), a cycling policy (theta < 0 in the worked example) or
any failed Newton step ends the Newton that follows the march, and the
solve returns the pure march from the start, bit for bit (the guard sees
the prefix's steps twice).  J is dense, so only grids of at most
NEWTON_MAX_N = 256 nodes get Newton; the two-scale grids of 512 and
1,024 nodes march to tol, faster and in less memory there.  The
discounted solve has no march to fall back on (it contracts by only
lam*dt a step): Newton alone, at any n.  A caller that needs tol reached
calls SolveRecord.require, the one report of a missed tol.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .grid import Field, TorusGrid
from .hamiltonian import HamiltonianSpec, LagrangianTable, affine_parts, frozen_values

__all__ = [
    "CFLError",
    "MinPlusStepper",
    "Stepper",
    "SolveRecord",
    "iterate",
    "evolve",
    "fixed_point",
    "stationary_solve",
]


MARCH_TO = 1e-1         # march residual at which Newton takes over
MAX_NEWTON = 50         # Newton iterations before the solve falls back to the march
NEWTON_MAX_N = 256      # largest grid with a Newton stage: a dense J of 512 KB
NEWTON_ROUNDING = 1e-12 # settled: sup|u - step(u)| <= this * (1 + sup|u|)
MAX_GAIN = 1e10         # sup|delta| above this * sup|F|: J is numerically singular


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
    """Precomputed periodic interpolation stencil for foot points x_i - v_j*dt.

    With copies = k the stencil covers k disjoint copies of the torus laid
    end to end, N = k*n values: copy j reads only its own nodes j*n ..
    j*n + n - 1, with the same weights as every other copy.
    """

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float, copies: int = 1):
        shift = -vgrid * dt / g.h
        base = np.floor(shift)
        theta = (shift - base)[:, None]
        idx0 = (np.arange(g.n)[None, :] + base.astype(np.int64)[:, None]) % g.n
        offsets = np.repeat(np.arange(copies) * g.n, g.n)
        self.idx0 = np.ascontiguousarray(np.tile(idx0, copies) + offsets)
        self.idx1 = np.ascontiguousarray(np.tile((idx0 + 1) % g.n, copies) + offsets)
        # full (m, N) weights, each row one value: a product with them is one loop over
        # m*N values instead of m loops over a broadcast column, with the same products
        self.w0 = np.ascontiguousarray(np.broadcast_to(1.0 - theta, self.idx0.shape))
        self.w1 = np.ascontiguousarray(np.broadcast_to(theta, self.idx0.shape))
        # the (m, N) table and the second node's products, written in place by apply;
        # the table holds the last apply's values until the next
        self.table = np.empty(self.idx0.shape)
        self._scratch = np.empty(self.idx0.shape)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The (m, N) table u(x_i - v_j dt), written into the plan's own buffer and
        valid until the next apply.  No (m, N) temporary is allocated; the products
        and sums are those of u[idx0] * w0 + u[idx1] * w1, so the values are too."""
        # mode "wrap" takes straight into out; the default "raise" copies through a buffer
        np.take(u, self.idx0, out=self.table, mode="wrap")
        np.multiply(self.table, self.w0, out=self.table)
        np.take(u, self.idx1, out=self._scratch, mode="wrap")
        np.multiply(self._scratch, self.w1, out=self._scratch)
        return np.add(self.table, self._scratch, out=self.table)

    def matrix(self, policy: np.ndarray) -> np.ndarray:
        """The dense (n, n) interpolation matrix P with (P u)_i = apply(u)[policy[i], i]."""
        rows = np.arange(policy.size)
        P = np.zeros((policy.size, policy.size))
        # the two stencil nodes of a row differ: a TorusGrid has n >= 8
        P[rows, self.idx0[policy, rows]] = self.w0[policy, rows]
        P[rows, self.idx1[policy, rows]] = self.w1[policy, rows]
        return P


class MinPlusStepper:
    """The min-plus kernel u'_i = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j) ].

    cost is the (n, m) table L, or a callable u -> (n, m) table for a cost
    that depends on the current values.  A fixed table of k*n rows steps k
    disjoint copies of the torus at once, copy j on rows j*n .. j*n + n - 1,
    each bit for bit as if alone.  The kernel checks its own rule only,
    dt*vmax <= 1/2; a layer that adds a contact term checks its bound.
    step takes one function of shape (N,) or, with a fixed cost table, a
    batch of shape (N, B), one function per column, each column stepped
    exactly as if alone.  A step of one function builds its candidates in
    the plan's one preallocated (m, N) buffer, and policy reads the
    minimizing velocity index from that table.  A negated velocity grid
    gives the forward foot points x_i + v_j dt with the same cost columns.
    """

    def __init__(self, g: TorusGrid, vgrid: np.ndarray, dt: float, cost):
        _check_step(dt, float(np.abs(vgrid).max()), None)
        self.dt = dt
        self._n = g.n
        self._cost = cost if callable(cost) else None
        self.plan = GatherPlan(g, vgrid, dt, 1 if self._cost else cost.shape[0] // g.n)
        self._dtLT = None if self._cost else np.ascontiguousarray(dt * cost.T)

    def _dt_cost(self, u: np.ndarray) -> np.ndarray:
        return self._dtLT if self._cost is None else self.dt * self._cost(u).T

    def step(self, u: np.ndarray) -> np.ndarray:
        if u.ndim == 1:
            # the (m, N) candidates, in the plan's buffer until its next apply; a
            # u-dependent cost is built first, so its temporaries are freed before the gather
            dt_cost = self._dt_cost(u)
            cand = self.plan.apply(u)
            cand += dt_cost
            return cand.min(axis=0)
        # a batch (N, B) goes one velocity at a time through three (N, B) buffers.  A
        # velocity's foot nodes in a copy are that copy's n rows rotated by one shift,
        # so they are a slice of the copy stacked on itself, starting at the shift
        # (idx0[j, 0], idx1[j, 0]); its weights are one value, multiplied in as a
        # scalar.  The products and sums are those of u[idx0[j]]*w0 + u[idx1[j]]*w1.
        dtLT = self._dt_cost(u)
        p, n = self.plan, self._n
        blocks = u.reshape(-1, n, u.shape[1])
        stacked = np.concatenate([blocks, blocks], axis=1)
        costs = dtLT.reshape(dtLT.shape[0], -1, n, 1)
        best, cand, scratch = (np.empty(blocks.shape) for _ in range(3))
        for j in range(dtLT.shape[0]):
            s0, s1 = p.idx0[j, 0], p.idx1[j, 0]
            np.multiply(stacked[:, s0:s0 + n], p.w0[j, 0], out=cand)
            np.multiply(stacked[:, s1:s1 + n], p.w1[j, 0], out=scratch)
            cand += scratch
            cand += costs[j]
            if j == 0:
                best, cand = cand, best
            else:
                np.minimum(best, cand, out=best)
        return best.reshape(u.shape)

    def policy(self, current: np.ndarray | None = None) -> np.ndarray:
        """Index j_i of the minimizing velocity at each node, read from the candidates
        of the last step of one function (no gather of its own).

        With a current policy, node i keeps current[i] unless the argmin
        candidate is lower by more than rounding (16 eps relative): exact
        ties would otherwise let a policy iteration cycle.
        """
        cand = self.plan.table
        best = cand.argmin(axis=0)
        if current is None:
            return best
        cols = np.arange(best.size)
        kept = cand[current, cols]
        better = cand[best, cols] < kept - 16 * np.finfo(float).eps * np.abs(kept)
        return np.where(better, best, current)


def _affine_flow(a: np.ndarray, b: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) with u -> alpha*u + beta the exact flow of u' = -(a*u + b) over time t:
    alpha = exp(-a t) and beta = -b t phi1(-a t), phi1(z) = expm1(z)/z, phi1(0) = 1.
    A negative t gives the flow of u' = a*u + b over time -t."""
    z = -a * t
    phi1 = np.ones_like(z)
    np.divide(np.expm1(z), z, out=phi1, where=z != 0)
    return np.exp(z), -t * b * phi1


class Stepper:
    """One contact step bound to (spec, table, dt, mode): the min-plus kernel
    and the contact term -+W(x, u), explicit or Picard.

    With copies = k it steps one function of k*n values, k disjoint copies of
    lt's torus laid end to end (copy j on j*n .. j*n + n - 1), each bit for bit
    as if alone: the kernel's cost is lt.L tiled k times and W is read on the
    tiled nodes.  A W affine in u (affine_parts on those nodes) is the pair
    `affine` = (a, b) of node arrays; its explicit step is
    alpha*K(alpha*u + beta) + beta, (alpha, beta) the exact flow of
    u' = -+(a*u + b) over dt/2, and its Picard correction reads W as a*u + b.
    Any other W (affine None) is folded at the nodes and evaluated each step
    in the correction -+dt*W.  The Picard mode refuses copies, since its stop
    at tol over the union would give a copy that settled early extra
    iterations.  Each direction's kernel is built on its first step.
    """

    def __init__(self, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                 mode: str = "explicit", copies: int = 1):
        if mode not in ("explicit", "picard"):
            raise ValueError(f"mode must be 'explicit' or 'picard', got {mode!r}")
        if mode == "picard" and copies != 1:
            raise ValueError(f"picard mode steps one copy of the torus, got copies={copies}")
        # the contact bound is this layer's to check; the vmax rule is also the kernels',
        # which are built on first use
        _check_step(dt, float(np.abs(lt.vgrid).max()), spec.lambda_bound)
        self.dt = dt
        self.mode = mode
        self._lt = lt
        self._copies = copies
        self.xs = np.tile(lt.grid.nodes, copies)
        # W's and dWu's x-only parts are evaluated here once
        self.W = spec.W.fold({"x": self.xs})
        self._dWu = spec.dWu.fold({"x": self.xs})
        self.affine = affine_parts(self.W, self._dWu, self.xs)
        # the explicit step's half flows E(-+dt/2), keyed by the contact term's sign
        self._half = None if mode != "explicit" or self.affine is None else {
            -1.0: _affine_flow(*self.affine, dt / 2), +1.0: _affine_flow(*self.affine, -dt / 2)}

    def _kernel(self, vgrid: np.ndarray) -> MinPlusStepper:
        lt = self._lt
        return MinPlusStepper(lt.grid, vgrid, self.dt, np.tile(lt.L, (self._copies, 1)))

    @cached_property
    def _back(self) -> MinPlusStepper:
        return self._kernel(self._lt.vgrid)

    @cached_property
    def _fwd(self) -> MinPlusStepper:
        # x_i + v_j dt is the backward foot point of -v_j
        return self._kernel(-self._lt.vgrid)

    def _contact(self, u: np.ndarray) -> np.ndarray:
        """W(x, u) on the nodes: a*u + b for an affine W, else the folded formula."""
        if self.affine is None:
            return frozen_values(self.W, self.xs, u)
        a, b = self.affine
        w = a * u
        w += b
        return w

    def newton_slope(self, u: np.ndarray, policy: np.ndarray) -> np.ndarray:
        """dt*dWu(x, u) on the nodes: the diagonal that fixed_point's Newton step adds
        under any policy to the step corrected by -dt*W."""
        return self.dt * frozen_values(self._dWu, self.xs, u)

    def _resolve(self, base: np.ndarray, u: np.ndarray, sign: float) -> np.ndarray:
        def corrected(z):
            return base + sign * self.dt * self._contact(z)

        z = corrected(u)
        if self.mode == "explicit":
            return z
        # unit dt: the driver's residual is the plain sup-norm change
        rec = iterate(corrected, z, 1.0, 50, tol=1e-13)
        if not rec.converged:
            raise ConvergenceError(
                f"picard iteration did not converge (|delta|={rec.residual:.3e})", rec.residual)
        return rec.values

    def _step(self, u: np.ndarray, sign: float, kernel_step) -> np.ndarray:
        """The split alpha*K(alpha*u + beta) + beta of an explicit affine step, else
        the kernel step corrected by sign*dt*W."""
        if self._half is None:
            return self._resolve(kernel_step(u), u, sign)
        alpha, beta = self._half[sign]
        w = alpha * u
        w += beta
        out = kernel_step(w)
        out *= alpha
        out += beta
        return out

    def backward_values(self, u: np.ndarray) -> np.ndarray:
        return self._step(u, -1.0, self._back.step)

    def forward_values(self, u: np.ndarray) -> np.ndarray:
        # max_j [u(x_i + v_j dt) - dt L] = -min_j [-u(x_i + v_j dt) + dt L]
        return self._step(u, +1.0, lambda w: -self._fwd.step(-w))


@dataclass
class SolveRecord:
    """What every step loop returns: the last iterate and how the loop ended."""

    values: np.ndarray
    steps: int             # kernel steps of the march
    residual: float        # sup|step(u) - u| / dt of the last step taken (inf if none)
    converged: bool        # the residual reached tol
    newton: int = 0        # Newton iterations (fixed_point only; 0 for a pure march)

    def require(self, what: str, tol: float) -> np.ndarray:
        """The values, or ConvergenceError naming what missed tol and how far."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} stopped at residual {self.residual:.3e} after {self.steps} steps "
                f"and {self.newton} Newton iterations, above tol {tol:.3g}", self.residual)
        return self.values


def iterate(step, u0: np.ndarray, dt: float, max_steps: int, tol: float | None = None,
            observe=None) -> SolveRecord:
    """Apply step to u0 up to max_steps times.

    Stops early once the residual sup|u_k - u_{k-1}|/dt is at most tol, or
    when observe(k, u_k), which sees every iterate, returns true.  The
    residual is also the finiteness guard: a NaN or inf iterate makes it
    nonfinite, which raises ValueError naming the step.
    """
    u = np.array(u0, dtype=float)
    residual = math.inf
    for k in range(1, max_steps + 1):
        nu = step(u)
        residual = float(np.abs(nu - u).max()) / dt
        if not math.isfinite(residual):
            raise ValueError(f"nonfinite values at step {k} (t={k * dt:.6g})")
        u = nu
        converged = tol is not None and residual <= tol
        stop = observe is not None and observe(k, u)
        if converged or stop:
            return SolveRecord(u, k, residual, converged)
    return SolveRecord(u, max_steps, residual, False)


def fixed_point(kernel: MinPlusStepper, correct, derivative, u0: np.ndarray, tol: float,
                max_steps: int, guard=None) -> SolveRecord:
    """Solve u = step(u), step(u) = correct(kernel.step(u), u): Newton-Howard
    from u0 when every Newton matrix is diagonally dominant, else march, then
    Newton-Howard, or the pure march if Newton fails.

    derivative(u, pi) is the pair (g, d) of diagonals (node arrays or
    scalars) with the step's derivative diag(g) P_pi - diag(d) along policy pi.
    Newton solves (diag(1 + d) - diag(g) P_pi) delta = -F until the policy
    repeats with F at rounding, and the step that gave F certifies u against
    tol.  Each Newton iteration steps the kernel once: F and the policy pi
    are read from the one candidate table.  When d > 0 at every node of u0
    (pi read from u0's own kernel step), Newton starts at u0.  Otherwise, or
    when that Newton stage fails, the solve is the march-first one from u0,
    record and all: the march (iterate, at the kernel's dt) runs to residual
    max(tol, MARCH_TO), Newton takes over, and a failed Newton returns
    iterate(step, u0, dt, max_steps, tol) instead, carrying that Newton's
    iteration count.  Newton fails at a singular J, a nonfinite iterate, a
    residual raised on one policy, a missed certificate or MAX_NEWTON
    iterations, and Newton from u0 also at a guard refusal.  A grid of more
    than NEWTON_MAX_N nodes only marches, to tol.  max_steps = 0 means no
    march at all: Newton starts at u0, at any n and d; a nonfinite step
    raises ValueError, and any other failure returns its last iterate and
    residual, unconverged.  guard(u, at) sees every iterate, `at` naming it
    ("step 102", "Newton iteration 3"), and raises ConvergenceError to
    refuse it; the refusal propagates, except from Newton at u0 with a march
    to fall back on.
    """
    dt = kernel.dt

    def step(u):
        return correct(kernel.step(u), u)

    def newton(u, steps, first):
        """Newton from u, reached after `steps` march steps: the record of its last
        iterate, converged once certified.  Newton from u0 with a march to fall back
        on (first) stops before its first solve unless every d > 0, and at a refusal."""
        policy, prev, k = None, math.inf, 0
        nodes = np.arange(u.size)
        while True:
            F = u - step(u)
            residual = float(np.abs(F).max()) / dt
            if not math.isfinite(residual):
                if max_steps:
                    break
                # no march to fall back on: raise as the march would, at this iterate's step
                raise ValueError(f"nonfinite values at step {k + 1} (Newton iteration {k})")
            new = kernel.policy(policy)
            same = policy is not None and np.array_equal(new, policy)
            # a policy switch may raise the residual; a Newton step on one policy may not
            if same and residual > prev:
                break
            if same and residual * dt <= NEWTON_ROUNDING * (1.0 + float(np.abs(u).max())):
                if residual <= tol:
                    return SolveRecord(u, steps, residual, True, k)
                break
            if k == MAX_NEWTON:
                break
            gain, d = derivative(u, new)
            if first and k == 0 and not np.all(np.asarray(d) > 0):
                break
            J = kernel.plan.matrix(new)
            J *= -np.reshape(gain, (-1, 1))
            J[nodes, nodes] += 1.0 + d
            try:
                delta = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            k += 1
            # also false for a nonfinite delta; a huge gain bounds |J^-1| from below
            if not float(np.abs(delta).max()) <= MAX_GAIN * residual * dt:
                break
            policy, prev, u = new, residual, u + delta
            if guard is not None:
                try:
                    guard(u, f"Newton iteration {k}")
                except ConvergenceError:
                    if not first:
                        raise
                    break
        return SolveRecord(u, steps, residual, False, k)

    u0 = np.array(u0, dtype=float)
    if not max_steps:
        return newton(u0, 0, False)
    observe = None if guard is None else (lambda k, u: guard(u, f"step {k}"))
    if u0.size > NEWTON_MAX_N:
        return iterate(step, u0, dt, max_steps, tol, observe)
    rec = newton(u0, 0, True)
    if rec.converged:
        return rec
    march = iterate(step, u0, dt, max_steps, max(tol, MARCH_TO), observe)
    if not march.converged or march.residual <= tol:
        return march
    rec = newton(march.values, march.steps, False)
    if rec.converged:
        return rec
    march = iterate(step, u0, dt, max_steps, tol, observe)
    march.newton = rec.newton
    return march


def evolve(phi: Field | Sequence[Field], spec: HamiltonianSpec, lt: LagrangianTable, T: float, dt: float,
           direction: str = "backward", observe=None) -> SolveRecord:
    """Step phi by the backward or forward semigroup over ceil(T/dt) steps.

    This is the one entry point for a contact evolution: it builds the
    Stepper, turns the horizon into a step count and returns the record of
    iterate.  observe(k, u_k) is iterate's own callback, seeing every step
    k = 1, 2, ...; a true return stops the evolution there.  phi is a Field
    on lt's grid, or a sequence of k of them, stepped as one function of k*n
    values whose copy j (values j*n .. j*n + n - 1) is the orbit of phi[j],
    bit for bit as if alone; u_k and the record's values are that function.
    The record's residual is then the largest over the copies, and a
    nonfinite copy raises at the step where it turns nonfinite.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    starts = [phi] if isinstance(phi, Field) else list(phi)
    stepper = Stepper(spec, lt, dt, copies=len(starts))
    advance = stepper.backward_values if direction == "backward" else stepper.forward_values
    return iterate(advance, np.concatenate([f.values for f in starts]), dt,
                   math.ceil(T / dt - 1e-12), observe=observe)


def stationary_solve(phi0: Field, spec: HamiltonianSpec, lt: LagrangianTable, dt: float,
                     tol: float, T_max: float) -> SolveRecord:
    """Fixed point of the explicit backward step from phi0, to residual tol.

    fixed_point marches backward, hands over to Newton, and returns the pure
    march within T_max if Newton does not settle; a W with dWu > 0 at every
    node starts with Newton from phi0 instead, and marches only if it fails.  For a W affine in u the
    step is the split S = E(dt/2) K E(dt/2), and u = S(u) exactly when
    w = E(dt/2) u solves w = E(dt) K(w).  fixed_point solves that from
    E(dt/2) phi0 with derivative (alpha, 0), E(dt) = alpha*w + beta: its
    march is the march of S conjugated by E(dt/2), which is the identity
    for a W-free spec.  u = E(-dt/2) w, and the record's residual and
    converged flag are those of one real step S from u.  Any other W steps
    K corrected by -dt*W with slope dt*dWu(x, u).
    Non-convergence is reported through the record's flag, not raised,
    since a residual stall at the scheme consistency level is a meaningful
    outcome; a caller that needs tol reached calls require.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stepper = Stepper(spec, lt, dt)
    max_steps = math.ceil(T_max / dt)
    if stepper.affine is None:
        return fixed_point(stepper._back, lambda base, u: stepper._resolve(base, u, -1.0),
                           lambda u, pi: (1.0, stepper.newton_slope(u, pi)), phi0.values,
                           tol, max_steps)
    alpha, beta = _affine_flow(*stepper.affine, dt)
    (a0, b0), (a1, b1) = stepper._half[-1.0], stepper._half[+1.0]
    rec = fixed_point(stepper._back, lambda base, w: alpha * base + beta,
                      lambda w, pi: (alpha, 0.0), a0 * phi0.values + b0, tol, max_steps)
    u = a1 * rec.values + b1
    residual = float(np.abs(stepper.backward_values(u) - u).max()) / dt
    return SolveRecord(u, rec.steps, residual, residual <= tol, rec.newton)
