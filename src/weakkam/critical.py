"""Critical values of u-independent Hamiltonians and the curve eps -> c(eps).

Two independent estimators with a mandatory agreement check:

  * vanishing discount: iterate the discounted semi-Lagrangian update
        u <- (1 + lam*dt)^{-1} min_j [ u(x_i - v_j dt) + dt L'(x_i, v_j) ]
    to a fixed point for each lam in a decreasing schedule, then remove
    the first-order lam-bias by a linear fit of -mean(lam*u_lam) in lam;
  * long-time slope: evolve 0 under the variational semigroup of the same
    Hamiltonian and read -d/dt of the spatial mean between T/2 and T.

Each estimator has a distinct bias (lam-bias versus finite-T bias), so
agreement within cross_tol is the working certificate of correctness.
The W-part of a Hamiltonian G(x,p) + pot(x) is folded into the cost as
L' = L - pot via LagrangianTable.with_potential.  Both estimators step the
min-plus kernel semigroup.MinPlusStepper under the driver semigroup.iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .grid import Field
from .hamiltonian import HamiltonianSpec, LagrangianTable, legendre
from .semigroup import CFLError, MinPlusStepper, iterate

__all__ = [
    "DivergenceError",
    "CriticalValueResult",
    "CEpsCurve",
    "discounted_solve",
    "critical_value",
    "c_eps_curve",
    "one_sided_derivatives",
]

DEFAULT_SCHEDULE = (4e-2, 2e-2, 1e-2)
DEFAULT_DT = 0.02
DEFAULT_TOL = 1e-4
DEFAULT_CROSS_TOL = 2e-2


class DivergenceError(RuntimeError):
    """Discounted iteration left the admissible range."""


def discounted_solve(lt: LagrangianTable, lam: float, dt: float = DEFAULT_DT,
                     tol: float = DEFAULT_TOL, u0: Field | None = None,
                     max_iter: int | None = None, divergence: float = 1e6) -> Field:
    """Fixed point of the discounted update, iterated until sup|du|/dt <= tol.

    At that stopping level the extracted values lam*u are accurate to about
    tol, since the iteration contracts by 1/(1 + lam*dt) per step.
    """
    if lam <= 0:
        raise ValueError("discount rate lam must be positive")
    if dt * lam >= 1:
        raise CFLError(f"dt*lam = {dt * lam:.3g} must be below 1")
    stepper = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    if max_iter is None:
        max_iter = int(math.ceil(60.0 / (lam * dt)))
    factor = 1.0 / (1.0 + lam * dt)

    def diverged(k, u):
        if np.abs(u).max() > divergence:
            raise DivergenceError(f"discounted iterate exceeded {divergence:g} in magnitude")

    start = u0.values if u0 is not None else np.zeros(lt.grid.n)
    rec = iterate(lambda u: factor * stepper.step(u), start, dt, max_iter, tol, diverged)
    if not rec.converged:
        raise ConvergenceError(
            f"discounted solve stalled at residual {rec.residual:.3e} (tol {tol:.1e})",
            rec.residual)
    return Field(lt.grid, rec.values)


def longtime_slope(lt: LagrangianTable, T: float, dt: float) -> float:
    """-d/dt of mean(T_t 0) read between T/2 and T under the W-free evolution."""
    stepper = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    steps_half = int(round(T / (2 * dt)))
    steps_full = int(round(T / dt))
    half = iterate(stepper.step, np.zeros(lt.grid.n), dt, steps_half).values
    full = iterate(stepper.step, half, dt, steps_full - steps_half).values
    t1 = steps_half * dt
    t2 = steps_full * dt
    return -(float(full.mean()) - float(half.mean())) / (t2 - t1)


@dataclass
class CriticalValueResult:
    c: float
    method: str                    # "agree" or "discount"
    u_corrector: Field             # discounted solution at the smallest lam, mean recentred
    diagnostics: dict = field(default_factory=dict)


def critical_value(lt: LagrangianTable, schedule=DEFAULT_SCHEDULE, dt: float = DEFAULT_DT,
                   tol: float = DEFAULT_TOL, T_long: float = 40.0,
                   cross_tol: float = DEFAULT_CROSS_TOL) -> CriticalValueResult:
    """Critical value by vanishing discount, cross-checked by long-time slope."""
    schedule = tuple(float(s) for s in schedule)
    if len(schedule) < 2 or any(a <= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing with at least 2 entries")
    lams = []
    estimates = []
    u_prev = None
    lam_prev = None
    for lam in schedule:
        if u_prev is None:
            u0 = None
        else:
            # warm start: rescale only the mean part, which grows like 1/lam
            mean_prev = u_prev.mean()
            u0 = Field(u_prev.grid, u_prev.values - mean_prev + mean_prev * lam_prev / lam)
        u_lam = discounted_solve(lt, lam, dt, tol, u0=u0)
        lams.append(lam)
        estimates.append(-lam * u_lam.mean())
        u_prev, lam_prev = u_lam, lam
    fit = np.polyfit(lams, estimates, 1)
    c_discount = float(fit[1])
    fit_residual = float(np.max(np.abs(np.polyval(fit, lams) - np.asarray(estimates))))
    spread = abs(estimates[0] - estimates[-1])
    nonlinear = fit_residual > max(1e-4, 0.1 * spread)

    c_longtime = longtime_slope(lt, T_long, dt)
    gap = abs(c_discount - c_longtime)
    method = "agree" if gap <= cross_tol else "discount"

    corrector = Field(u_prev.grid, u_prev.values - u_prev.mean())
    diag = {
        "lambda": list(lams),
        "minus_mean_lambda_u": list(map(float, estimates)),
        "c_discount": c_discount,
        "c_longtime": float(c_longtime),
        "gap": float(gap),
        "cross_tol": float(cross_tol),
        "fit_residual": fit_residual,
        "nonlinear_schedule": bool(nonlinear),
    }
    return CriticalValueResult(c_discount, method, corrector, diag)


@dataclass
class CEpsCurve:
    eps_samples: np.ndarray
    c_values: np.ndarray
    D_minus: float
    D_plus: float

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


def _one_sided(eps: np.ndarray, cs: np.ndarray, side: int) -> float:
    """Second-order one-sided derivative at 0 from the two nearest samples."""
    sel = eps < 0 if side < 0 else eps > 0
    if np.count_nonzero(sel) < 2:
        raise ValueError("need at least two samples on each side of 0")
    order = np.argsort(np.abs(eps[sel]))
    pts = eps[sel][order][:2]
    vals = cs[sel][order][:2]
    zero_idx = int(np.argmin(np.abs(eps)))
    c0 = cs[zero_idx]
    a, b = float(pts[0]), float(pts[1])
    fa, fb = float(vals[0]), float(vals[1])
    # Lagrange derivative at 0 of the parabola through (0,c0), (a,fa), (b,fb)
    return (c0 * (-a - b) / (a * b)
            + fa * (-b) / (a * (a - b))
            + fb * (-a) / (b * (b - a)))


def one_sided_derivatives(curve: CEpsCurve) -> tuple[float, float]:
    """Recompute and record (D_minus, D_plus) from the stored samples."""
    d_minus = _one_sided(curve.eps_samples, curve.c_values, -1)
    d_plus = _one_sided(curve.eps_samples, curve.c_values, +1)
    curve.D_minus = float(d_minus)
    curve.D_plus = float(d_plus)
    return curve.D_minus, curve.D_plus


def c_eps_curve(spec: HamiltonianSpec, u_minus: Field, eps_list, dt: float = DEFAULT_DT,
                tol: float = DEFAULT_TOL, lt: LagrangianTable | None = None,
                m: int = 65, k: int = 65, schedule=DEFAULT_SCHEDULE,
                T_long: float = 40.0, cross_tol: float = DEFAULT_CROSS_TOL) -> CEpsCurve:
    """Sample eps -> c(G + W(., u_minus + eps)) and finite-difference D^-, D^+ at 0."""
    eps = np.array(sorted(float(e) for e in eps_list))
    if not np.any(np.abs(eps) < 1e-15):
        raise ValueError("eps_list must contain 0")
    if np.count_nonzero(eps < 0) < 2 or np.count_nonzero(eps > 0) < 2:
        raise ValueError("eps_list needs at least two values of each sign")
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)
    xs = u_minus.grid.nodes
    cs = []
    for e in eps:
        pot = np.broadcast_to(
            np.asarray(spec.W_at(xs, u_minus.values + e), dtype=float), xs.shape)
        result = critical_value(lt.with_potential(pot), schedule=schedule, dt=dt,
                                tol=tol, T_long=T_long, cross_tol=cross_tol)
        cs.append(result.c)
    curve = CEpsCurve(eps, np.asarray(cs), 0.0, 0.0)
    one_sided_derivatives(curve)
    return curve
