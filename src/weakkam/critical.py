"""Critical values of u-independent Hamiltonians and the curve eps -> c(eps).

Two independent estimators with a mandatory agreement check:

  * vanishing discount: for each lam in a decreasing schedule, solve the
    discounted semi-Lagrangian fixed point
        u = (1 + lam*dt)^{-1} min_j [ u(x_i - v_j dt) + dt L'(x_i, v_j) ]
    exactly by semigroup.fixed_point with no march (Newton-Howard from the
    warm start: a dense solve per velocity policy until the policy
    repeats, certified to DEFAULT_TOL by one real step; an unsettled policy
    or a missed certificate raises through SolveRecord.require, as every
    missed tol does).  The first-order lam-bias is removed by a linear fit
    of -mean(lam*u_lam) in lam;
  * long-time certificate: evolve the discount's corrector h under the
    variational semigroup of the same Hamiltonian for DEFAULT_T_LONG and
    read -d/dt of the spatial mean between T/2 and T, and the one-step
    bracket [-max d, -min d], d = (K h' - h')/dt, of the march's last step
    from h'.  The kernel K is monotone and commutes with constants, so the
    scheme's critical value lies in that bracket from any h'
    (Gaubert & Gunawardena, Trans. AMS 356, 2004), and the bracket only
    narrows along an orbit: a short march from a good h certifies c.

critical_values solves many tables that share one grid and one velocity
grid: the discounted solves run table by table, then one long-time march
steps the disjoint union of their tori (a MinPlusStepper on the stacked
cost tables) from their stacked correctors, each table's mean and bracket
read from its own slice, so every result is bit for bit that of
critical_value on its table alone.  critical_value
is critical_values of one table; c_eps_curve solves all its eps samples in
one batch, and so does homogenize.cell_problem all its cells.

The discount value c carries the lam-fit bias; the bracket holds the
scheme's exact critical value.  A result agrees when c lies within
cross_tol of the slope and of both ends of the bracket, the working
certificate of correctness; a poor corrector only widens the bracket.
The W-part of a Hamiltonian G(x,p) + pot(x) is folded into the cost as
L' = L - pot via LagrangianTable.with_potential.  Both estimators use the
min-plus kernel semigroup.MinPlusStepper: the long-time march steps it
under semigroup.iterate; for the discounted solve fixed_point
steps it with the correction base - lam*dt*u and reads the argmin policy
and gather matrix of each step's candidate table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field
from .hamiltonian import HamiltonianSpec, LagrangianTable, frozen_values
from .semigroup import CFLError, MinPlusStepper, fixed_point, iterate

__all__ = [
    "CriticalValueResult",
    "CEpsCurve",
    "discounted_solve",
    "critical_value",
    "critical_values",
    "c_eps_curve",
    "one_sided_derivatives",
]

DEFAULT_SCHEDULE = (4e-2, 2e-2, 1e-2)
DEFAULT_DT = 0.02
DEFAULT_TOL = 1e-4
DEFAULT_CROSS_TOL = 2e-2
DEFAULT_T_LONG = 1.0


def discounted_solve(lt: LagrangianTable, lam: float, dt: float = DEFAULT_DT,
                     tol: float = DEFAULT_TOL, u0: Field | None = None) -> Field:
    """Exact fixed point u = K(u)/(1 + lam*dt) of the discounted update, K the kernel.

    semigroup.fixed_point solves (1 + lam*dt) u = K(u), the kernel K
    corrected by -lam*dt*u, by Newton from u0 (zero when not given):
    derivative (1, lam*dt) has d = lam*dt > 0, so each Newton matrix is
    strictly diagonally dominant and Newton starts at u0, fixed_point's
    Newton-first rule.  max_steps = 0 leaves that rule no march to fall
    back on: a policy that does not settle, or a certified residual above
    tol, raises ConvergenceError.
    """
    if lam <= 0:
        raise ValueError("discount rate lam must be positive")
    if dt * lam >= 1:
        raise CFLError(f"dt*lam = {dt * lam:.3g} must be below 1")
    kernel = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    rec = fixed_point(kernel, lambda base, u: base - lam * dt * u, lambda u, pi: (1.0, lam * dt),
                      u0.values if u0 is not None else np.zeros(lt.grid.n), tol, 0)
    return Field(lt.grid, rec.require(f"discounted solve at lam={lam:.3g}", tol))


def _march_steps(T: float, dt: float) -> tuple[int, int]:
    """The kernel steps to T/2 and to T; ValueError unless a step lies between them."""
    steps_half = int(round(T / (2 * dt)))
    steps_full = int(round(T / dt))
    if steps_full == steps_half:
        raise ValueError(f"long-time horizon T={T:g} holds no step of dt={dt:g} "
                         f"between T/2 and T")
    return steps_half, steps_full


def longtime_slope(lts, T: float, dt: float, starts=None):
    """(slope, lo, hi) per table from one march of round(T/dt) kernel steps.

    Table k starts from starts[k] (zero when starts is None).  slope is
    -d/dt of the spatial mean read between T/2 and T; [lo, hi] =
    [-max d, -min d], d = (K u - u)/dt over the march's last step from u,
    brackets the scheme's critical value.  The tables share one grid and
    one velocity grid.  One march steps the disjoint union of their tori
    (MinPlusStepper on the stacked cost tables), and each table's values
    are read from its own contiguous slice, so each result is bit for bit
    that of a march of its table alone.
    """
    if not lts:
        raise ValueError("longtime_slope got an empty batch of tables")
    steps_half, steps_full = _march_steps(T, dt)
    g, vgrid = lts[0].grid, lts[0].vgrid
    if any(lt.grid != g or not np.array_equal(lt.vgrid, vgrid) for lt in lts):
        raise ValueError("longtime_slope's tables must share one grid and one velocity grid")
    stepper = MinPlusStepper(g, vgrid, dt, np.concatenate([lt.L for lt in lts]))
    u0 = np.zeros(len(lts) * g.n) if starts is None else np.concatenate(starts)
    half = iterate(stepper.step, u0, dt, steps_half).values
    before = iterate(stepper.step, half, dt, steps_full - steps_half - 1).values
    full = iterate(stepper.step, before, dt, 1).values
    d = (full - before) / dt
    t1 = steps_half * dt
    t2 = steps_full * dt
    copies = [slice(k * g.n, (k + 1) * g.n) for k in range(len(lts))]
    slope = np.array([-(float(full[s].mean()) - float(half[s].mean())) / (t2 - t1)
                      for s in copies])
    lo = np.array([-float(d[s].max()) for s in copies])
    hi = np.array([-float(d[s].min()) for s in copies])
    return slope, lo, hi


@dataclass
class CriticalValueResult:
    c: float
    method: str                    # "agree" or "discount"
    u_corrector: Field             # discounted solution at the smallest lam, mean recentred
    diagnostics: dict = field(default_factory=dict)


def critical_value(lt: LagrangianTable, schedule=DEFAULT_SCHEDULE, dt: float = DEFAULT_DT,
                   T_long: float = DEFAULT_T_LONG,
                   cross_tol: float = DEFAULT_CROSS_TOL) -> CriticalValueResult:
    """Critical value by vanishing discount, certified by a long-time march from its corrector.

    Each discounted solve is exact, certified to residual DEFAULT_TOL.
    This is critical_values of the one table.
    """
    return critical_values([lt], schedule, dt, T_long, cross_tol)[0]


def critical_values(lts, schedule=DEFAULT_SCHEDULE, dt: float = DEFAULT_DT,
                    T_long: float = DEFAULT_T_LONG,
                    cross_tol: float = DEFAULT_CROSS_TOL) -> list[CriticalValueResult]:
    """critical_value of each table, in order, from one long-time march.

    The discounted solves run first, table by table, each warm-started
    along the schedule; then one longtime_slope march over the union of
    the tables' tori starts from their mean-centred correctors.  A result
    agrees when c lies within cross_tol of its slope and of both ends of
    its bracket; diagnostics["gap"] is the largest of those distances.
    Each result is bit for bit that of critical_value on its table alone.
    The tables share one grid and one velocity grid.
    """
    schedule = tuple(float(s) for s in schedule)
    if len(schedule) < 2 or any(a <= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing with at least 2 entries")
    results = []
    for lt in lts:
        estimates = []
        u_prev = None
        for lam in schedule:
            # warm start: the previous solution's policy is nearly optimal at the next lam
            u_prev = discounted_solve(lt, lam, dt, u0=u_prev)
            estimates.append(-lam * u_prev.mean())
        c_discount = float(np.polyfit(schedule, estimates, 1)[1])
        corrector = Field(u_prev.grid, u_prev.values - u_prev.mean())
        diag = {"lambda": list(schedule), "minus_mean_lambda_u": list(map(float, estimates))}
        results.append(CriticalValueResult(c_discount, "discount", corrector, diag))
    slopes, los, his = longtime_slope(lts, T_long, dt,
                                      [res.u_corrector.values for res in results])
    for res, slope, lo, hi in zip(results, slopes, los, his):
        gap = max(abs(res.c - float(end)) for end in (slope, lo, hi))
        res.method = "agree" if gap <= cross_tol else "discount"
        res.diagnostics.update(c_longtime=float(slope), c_lo=float(lo), c_hi=float(hi),
                               gap=float(gap))
    return results


@dataclass
class CEpsCurve:
    eps_samples: np.ndarray
    c_values: np.ndarray
    D_minus: float         # one-sided derivatives at 0, from one_sided_derivatives
    D_plus: float
    agree: bool            # every sample's discount and long-time estimators agreed

    def lipschitz_slack(self, lambda_bound: float) -> float:
        """Worst violation of |c(e1)-c(e2)| <= Lambda |e1-e2| over sample pairs."""
        eps = self.eps_samples
        cs = self.c_values
        worst = 0.0
        for i in range(eps.size):
            for j in range(i + 1, eps.size):
                excess = abs(cs[i] - cs[j]) - lambda_bound * abs(eps[i] - eps[j])
                worst = max(worst, excess)
        return worst


def one_sided_derivatives(eps: np.ndarray, cs: np.ndarray) -> tuple[float, float]:
    """(D_minus, D_plus) at 0 of the samples cs = c(eps), eps containing 0: each is the
    second-order derivative at 0 from c(0) and the two nearest samples on its side."""
    c0 = cs[int(np.argmin(np.abs(eps)))]
    derivs = []
    for sel in (eps < 0, eps > 0):
        if np.count_nonzero(sel) < 2:
            raise ValueError("need at least two samples on each side of 0")
        order = np.argsort(np.abs(eps[sel]))
        a, b = map(float, eps[sel][order][:2])
        fa, fb = map(float, cs[sel][order][:2])
        # Lagrange derivative at 0 of the parabola through (0,c0), (a,fa), (b,fb)
        derivs.append(float(c0 * (-a - b) / (a * b)
                            + fa * (-b) / (a * (a - b))
                            + fb * (-a) / (b * (b - a))))
    return derivs[0], derivs[1]


def c_eps_curve(spec: HamiltonianSpec, u_minus: Field, eps_list, dt: float = DEFAULT_DT, *,
                lt: LagrangianTable, cross_tol: float = DEFAULT_CROSS_TOL) -> CEpsCurve:
    """Sample eps -> c(G + W(., u_minus + eps)) and finite-difference D^-, D^+ at 0."""
    eps = np.array(sorted(float(e) for e in eps_list))
    if not np.any(np.abs(eps) < 1e-15):
        raise ValueError("eps_list must contain 0")
    if np.count_nonzero(eps < 0) < 2 or np.count_nonzero(eps > 0) < 2:
        raise ValueError("eps_list needs at least two values of each sign")
    nodes = u_minus.grid.nodes
    results = critical_values(
        [lt.with_potential(frozen_values(spec.W, nodes, u_minus.values + e)) for e in eps],
        dt=dt, cross_tol=cross_tol)
    cs = np.array([result.c for result in results])
    agree = all(result.method == "agree" for result in results)
    return CEpsCurve(eps, cs, *one_sided_derivatives(eps, cs), agree)
