"""Stability and instability criteria for stationary solutions, with probes.

The criteria are critical-value tests on zeta-shifted frozen Hamiltonians:

  * condition "A3" (stability):    some zeta > 0 with
        c( G + W(., u_-) - zeta*dWu(., u_-) ) < 0;
  * condition "A4" (instability):  some zeta > 0 with
        c( G + W(., u_-) + zeta*dWu(., u_-) ) < 0;
  * the constructive global-stability route for a(x)*u + G(x,Du) = c(G):
        a >= 0 everywhere and a > 0 on the projected Aubry set of G.

The zeta search walks a finite grid and stops at the first conclusive
value.  Each report also records the extremal minimum of dWu(., u_-)
against minimizing occupational measures, which lower-bounds the decay
rate that the direct probes then measure empirically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import critical as crit
from .errors import ConfigError
from .grid import Field
from .hamiltonian import HamiltonianSpec, LagrangianTable, conjugate_table, legendre
from .mather import aubry_set, extremal_integral, peierls_barrier, solve_occupational
from .semigroup import Stepper, iterate

__all__ = [
    "StabilityReport",
    "check_condition",
    "check_corollary_a",
    "decay_exponent",
    "instability_probe",
    "ProbeResult",
    "basin_estimate",
]

DEFAULT_ZETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class StabilityReport:
    condition: str                    # "A3" | "A4" | "corollary_a"
    verdict: str                      # "holds" | "fails" | "inconclusive"
    zeta_found: float | None
    c_values: dict
    A_estimate: float | None
    Delta_estimate: float | None = None
    decay_slope: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "zeta_found": self.zeta_found,
            "c_values": {str(k): v for k, v in self.c_values.items()},
            "A_estimate": self.A_estimate,
            "Delta_estimate": self.Delta_estimate,
            "decay_slope": self.decay_slope,
            "extra": self.extra,
        }


def frozen_potential(spec: HamiltonianSpec, u_minus: Field) -> np.ndarray:
    """W(x, u_-(x)) sampled on the grid."""
    xs = u_minus.grid.nodes
    out = np.asarray(spec.W_at(xs, u_minus.values), dtype=float)
    return np.broadcast_to(out, xs.shape)


def frozen_dwu(spec: HamiltonianSpec, u_minus: Field) -> np.ndarray:
    xs = u_minus.grid.nodes
    out = np.asarray(spec.dWu_at(xs, u_minus.values), dtype=float)
    return np.broadcast_to(out, xs.shape)


def check_condition(spec: HamiltonianSpec, u_minus: Field, which: str = "A3",
                    zeta_grid=DEFAULT_ZETA_GRID, dt: float = crit.DEFAULT_DT,
                    tol: float = crit.DEFAULT_TOL, margin: float = 1e-2,
                    lt: LagrangianTable | None = None, m: int = 65, k: int = 65,
                    with_A_estimate: bool = True) -> StabilityReport:
    """Walk the zeta grid testing the shifted critical values.

    Verdict "holds" on the first zeta with c < -margin; "fails" when every
    zeta gives c > +margin; "inconclusive" otherwise.
    """
    if which not in ("A3", "A4"):
        raise ValueError("which must be 'A3' or 'A4'")
    sign = -1.0 if which == "A3" else +1.0
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)
    base_pot = frozen_potential(spec, u_minus)
    dwu = frozen_dwu(spec, u_minus)

    c_values = {}
    zeta_found = None
    for zeta in zeta_grid:
        if zeta <= 0:
            raise ValueError("zeta grid entries must be positive")
        pot = base_pot + sign * zeta * dwu
        result = crit.critical_value(lt.with_potential(pot), dt=dt, tol=tol)
        c_values[float(zeta)] = result.c
        if result.c < -margin:
            zeta_found = float(zeta)
            break
    if zeta_found is not None:
        verdict = "holds"
    elif all(v > margin for v in c_values.values()):
        verdict = "fails"
    else:
        verdict = "inconclusive"

    A_estimate = None
    if with_A_estimate:
        measure = solve_occupational(lt, potential=base_pot)
        A_estimate = extremal_integral(measure, Field(u_minus.grid, dwu), sense="min")

    return StabilityReport(which, verdict, zeta_found, c_values, A_estimate,
                           extra={"margin": margin})


def check_corollary_a(G_part, a_field: Field, dt: float = crit.DEFAULT_DT,
                      tol: float = crit.DEFAULT_TOL, margin: float = 1e-2,
                      m: int = 65, k: int = 65, vmax: float = 4.0, pmax: float = 4.0,
                      aubry_tol: float = 1e-2,
                      barrier_t_list=(4.0, 8.0, 16.0)) -> StabilityReport:
    """Constructive global-stability check: a >= 0 and a > 0 on the Aubry set.

    G_part is the u-independent Hamiltonian as an (x,p) expression or
    callable; a_field is the coefficient of u.
    """
    if np.any(a_field.values < 0):
        raise ConfigError("corollary check requires a(x) >= 0 everywhere")
    g = a_field.grid
    xs = g.nodes[:, None]
    if callable(G_part) and not hasattr(G_part, "evaluate"):
        gfun = lambda P: G_part(xs, P)
    else:
        gfun = lambda P: G_part.evaluate({"x": xs, "p": P})
    vs, L = conjugate_table(gfun, g.n, m, k, vmax, pmax, warn_label="corollary G")
    lt = LagrangianTable(g, vs, L, vmax, pmax)

    cres = crit.critical_value(lt, dt=dt, tol=tol)
    bt = peierls_barrier(lt, cres.c, t_list=barrier_t_list, aubry_tol=aubry_tol)
    nodes = aubry_set(bt, aubry_tol)
    a0 = float(a_field.values[nodes].min()) if nodes.size else 0.0
    verdict = "holds" if a0 > margin else "fails"
    return StabilityReport(
        "corollary_a", verdict, None, {0.0: cres.c}, A_estimate=a0,
        extra={"margin": margin, "aubry_nodes": nodes.tolist(),
               "c_critical": cres.c, "c_used": bt.c_used,
               "critical_method": cres.method})


def _deviation_series(spec, lt, u_minus: Field, phi: Field, T: float, dt: float,
                      sample_every: int):
    times = []
    devs = []
    steps = math.ceil(T / dt - 1e-12)

    def sample(kstep, u):
        if kstep % sample_every == 0 or kstep == steps:
            times.append(kstep * dt)
            devs.append(float(np.abs(u - u_minus.values).max()))

    iterate(Stepper(spec, lt, dt).backward_values, phi.values, dt, steps, observe=sample)
    return np.asarray(times), np.asarray(devs)


def deviation_series(spec: HamiltonianSpec, u_minus: Field, phi: Field, T: float,
                     dt: float, lt: LagrangianTable | None = None, m: int = 65,
                     k: int = 65, sample_every: int = 10):
    """Times and sup-norm deviations from u_- along the evolution of phi."""
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)
    return _deviation_series(spec, lt, u_minus, phi, T, dt, sample_every)


def decay_exponent(spec: HamiltonianSpec, u_minus: Field, delta: float, T: float,
                   dt: float, fit_window: tuple | None = None,
                   lt: LagrangianTable | None = None, m: int = 65, k: int = 65,
                   sample_every: int = 10) -> float:
    """Fitted slope of ln ||u(t) - u_-|| on the late window, worse of +/-delta.

    A positive return value reports non-decay; it is not an error.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)
    t_lo, t_hi = fit_window if fit_window is not None else (T / 2, T)
    if t_hi > T + 1e-12:
        raise ValueError("fit window must end by the horizon T")
    noise_floor = 100 * np.finfo(float).eps * max(1.0, float(np.abs(u_minus.values).max()))

    slopes = []
    for sgn in (+1.0, -1.0):
        phi = Field(u_minus.grid, u_minus.values + sgn * delta)
        times, devs = _deviation_series(spec, lt, u_minus, phi, T, dt, sample_every)
        ok = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12) & (devs > noise_floor)
        if np.count_nonzero(ok) < 2:
            # deviation underflowed on the requested window; shrink it
            ok = devs > noise_floor
            warnings.warn("decay fit window shrunk: deviation at the noise floor",
                          stacklevel=2)
            if np.count_nonzero(ok) < 2:
                slopes.append(-math.inf)
                continue
            ok &= times <= times[ok][-1]
        fit = np.polyfit(times[ok], np.log(devs[ok]), 1)
        slopes.append(float(fit[0]))
    return max(slopes)


@dataclass
class ProbeResult:
    escaped: bool
    sup_dev: float
    t_escape: float | None
    times: np.ndarray
    devs: np.ndarray


def instability_probe(spec: HamiltonianSpec, u_minus: Field, eps: float,
                      Delta_target: float, T: float, dt: float,
                      lt: LagrangianTable | None = None, m: int = 65,
                      k: int = 65) -> ProbeResult:
    """Evolve u_- - eps and watch whether the deviation reaches Delta_target."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0,1)")
    if Delta_target <= eps:
        raise ValueError("Delta_target must exceed eps")
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)
    times = [0.0]
    devs = [eps]

    def watch(kstep, u):
        times.append(kstep * dt)
        devs.append(float(np.abs(u - u_minus.values).max()))
        return devs[-1] >= Delta_target

    iterate(Stepper(spec, lt, dt).backward_values, u_minus.values - eps, dt,
            math.ceil(T / dt - 1e-12), observe=watch)
    t_escape = times[-1] if devs[-1] >= Delta_target else None
    devs = np.asarray(devs)
    return ProbeResult(t_escape is not None, float(devs.max()), t_escape,
                       np.asarray(times), devs)


def basin_estimate(spec: HamiltonianSpec, u_minus: Field, T: float, dt: float,
                   delta_hi: float, lt: LagrangianTable | None = None,
                   m: int = 65, k: int = 65, rounds: int = 6) -> float:
    """Bisection for the largest tested delta whose +/- perturbations re-enter
    a delta/2 neighborhood of u_- by time T.  Returns 0 if every probe fails."""
    if delta_hi <= 0:
        raise ValueError("delta_hi must be positive")
    if lt is None:
        lt = legendre(spec, u_minus.grid, m, k)

    def recovers(delta: float) -> bool:
        for sgn in (+1.0, -1.0):
            phi = Field(u_minus.grid, u_minus.values + sgn * delta)
            _, devs = _deviation_series(spec, lt, u_minus, phi, T, dt, sample_every=10)
            if devs.min() > delta / 2:
                return False
        return True

    if recovers(delta_hi):
        return delta_hi
    best = 0.0
    lo, hi = 0.0, delta_hi
    for _ in range(rounds):
        mid = (lo + hi) / 2
        if mid <= 0:
            break
        if recovers(mid):
            best = mid
            lo = mid
        else:
            hi = mid
    return best
