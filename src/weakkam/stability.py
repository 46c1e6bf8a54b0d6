"""Stability and instability criteria for stationary solutions, with probes.

The criteria are critical-value tests on zeta-shifted frozen Hamiltonians:

  * condition "A3" (stability):    some zeta > 0 with
        c( G + W(., u_-) - zeta*dWu(., u_-) ) < 0;
  * condition "A4" (instability):  some zeta > 0 with
        c( G + W(., u_-) + zeta*dWu(., u_-) ) < 0;
  * the constructive global-stability route for a(x)*u + G(x,Du) = c(G):
        a >= 0 everywhere and a > 0 on the projected Aubry set of G.

The zeta search walks a finite grid and stops at the first conclusive
value; a critical value whose two estimators disagree concludes nothing.
Each report also records the extremal minimum of dWu(., u_-) against
minimizing occupational measures, which lower-bounds the decay rate that
the direct probes then measure empirically.  The probes (decay exponent,
escape time, basin) follow orbits of the backward semigroup from u_- plus a
constant through `deviation_series`, whose observer on `semigroup.evolve`
ends each orbit at the first sample that decides its probe, or at the horizon.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import critical as crit
from .errors import ConfigError
from .grid import Field
# conjugate_table is not called here; bench/tests check that the tracer patches it here too
from .hamiltonian import HamiltonianSpec, LagrangianTable, conjugate_table, frozen_values
from .mather import extremal_integral, peierls_barrier, solve_occupational
from .semigroup import evolve

__all__ = [
    "StabilityReport",
    "check_condition",
    "check_corollary_a",
    "decay_exponent",
    "DecayFit",
    "instability_probe",
    "ProbeResult",
    "basin_estimate",
]

DEFAULT_ZETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
MARGIN = 1e-2           # a verdict reads c < -MARGIN, c > +MARGIN or a > MARGIN
SAMPLE_EVERY = 10       # steps between the samples of a deviation series
BASIN_ROUNDS = 6        # bisection rounds of basin_estimate


@dataclass
class StabilityReport:
    condition: str                    # "A3" | "A4" | "corollary_a"
    verdict: str                      # "holds" | "fails" | "inconclusive"
    zeta_found: float | None
    c_values: dict
    A_estimate: float
    Delta_estimate: float | None = None
    decay_slope: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "c_values": {str(k): v for k, v in self.c_values.items()}}


def check_condition(spec: HamiltonianSpec, u_minus: Field, which: str = "A3",
                    zeta_grid=DEFAULT_ZETA_GRID, dt: float = crit.DEFAULT_DT, *,
                    lt: LagrangianTable,
                    cross_tol: float = crit.DEFAULT_CROSS_TOL) -> StabilityReport:
    """Walk the zeta grid testing the shifted critical values.

    Each c is the critical value of the table lt with the shifted frozen
    potential folded in.  Verdict "holds" on the first zeta with
    c < -MARGIN whose discount and long-time estimators agree within
    cross_tol; "fails" when every zeta gives c > +MARGIN with agreeing
    estimators; "inconclusive" otherwise.  A_estimate is the extremal minimum of
    dWu(., u_-) over the minimizing measures of lt with W(., u_-) folded in.
    """
    if which not in ("A3", "A4"):
        raise ValueError("which must be 'A3' or 'A4'")
    if len(zeta_grid) == 0:
        raise ValueError("zeta grid is empty")
    if any(zeta <= 0 for zeta in zeta_grid):
        raise ValueError("zeta grid entries must be positive")
    sign = -1.0 if which == "A3" else +1.0
    base_pot = frozen_values(spec.W, u_minus.grid.nodes, u_minus.values)
    dwu = frozen_values(spec.dWu, u_minus.grid.nodes, u_minus.values)

    c_values = {}
    zeta_found = None
    agreed = True
    for zeta in zeta_grid:
        pot = base_pot + sign * zeta * dwu
        result = crit.critical_value(lt.with_potential(pot), dt=dt, cross_tol=cross_tol)
        c_values[float(zeta)] = result.c
        if result.method != "agree":
            agreed = False
        elif result.c < -MARGIN:
            zeta_found = float(zeta)
            break
    if zeta_found is not None:
        verdict = "holds"
    elif agreed and all(v > MARGIN for v in c_values.values()):
        verdict = "fails"
    else:
        verdict = "inconclusive"

    measure = solve_occupational(lt.with_potential(base_pot))
    A_estimate = extremal_integral(measure, Field(u_minus.grid, dwu), sense="min")
    return StabilityReport(which, verdict, zeta_found, c_values, A_estimate,
                           extra={"margin": MARGIN})


def check_corollary_a(spec: HamiltonianSpec, dt: float = crit.DEFAULT_DT, *, lt: LagrangianTable,
                      cross_tol: float = crit.DEFAULT_CROSS_TOL) -> StabilityReport:
    """Constructive global-stability check for a(x)*u + G(x,Du) = c(G).

    spec has W = a(x)*u, so a(x) is spec.dWu on lt's grid; lt is the
    table of G.  Verdict "holds" when a > MARGIN on the Aubry set of G
    (from peierls_barrier at its default horizons), "inconclusive" when
    the two critical-value estimators disagree beyond cross_tol, "fails"
    otherwise.
    """
    nodes, zero = lt.grid.nodes, np.zeros(lt.grid.n)
    if "u" in spec.dWu.variables() or np.any(frozen_values(spec.W, nodes, zero) != 0):
        raise ConfigError("corollary check requires W = a(x)*u with dWu = a(x) free of u")
    a = frozen_values(spec.dWu, nodes, zero)
    if np.any(a < 0):
        raise ConfigError("corollary check requires a(x) = dWu >= 0 everywhere")

    cres = crit.critical_value(lt, dt=dt, cross_tol=cross_tol)
    bt = peierls_barrier(lt, cres.c)
    aubry = bt.aubry_indices
    a0 = float(a[aubry].min()) if aubry.size else 0.0
    if cres.method != "agree":
        verdict = "inconclusive"
    else:
        verdict = "holds" if a0 > MARGIN else "fails"
    return StabilityReport(
        "corollary_a", verdict, None, {0.0: cres.c}, A_estimate=a0,
        extra={"margin": MARGIN, "aubry_nodes": aubry.tolist(),
               "c_critical": cres.c, "c_used": bt.c_used,
               "critical_method": cres.method})


def deviation_series(spec: HamiltonianSpec, u_minus: Field, offset: float, T: float,
                     dt: float, *, lt: LagrangianTable, every: int = SAMPLE_EVERY, stop=None):
    """Times and sup-norm deviations from u_- along the evolution of u_- + offset,
    sampled every `every` steps and at the last step; with stop, the evolution
    ends at the first sample whose deviation d has stop(d) true."""
    times = []
    devs = []

    def sample(kstep, u):
        times.append(kstep * dt)
        devs.append(float(np.abs(u - u_minus.values).max()))
        return stop is not None and stop(devs[-1])

    rec = evolve(Field(u_minus.grid, u_minus.values + offset), spec, lt, T, dt,
                 observe=lambda k, u: k % every == 0 and sample(k, u))
    if rec.steps % every:
        sample(rec.steps, rec.values)
    return np.asarray(times), np.asarray(devs)


@dataclass
class DecayFit:
    slope: float | None    # worse (larger) fitted slope of the +delta and -delta series;
                           # None when neither series has two samples above the noise floor
    times: np.ndarray      # sample times of the +delta series
    devs: np.ndarray       # sup-norm deviations of the +delta series


def decay_exponent(spec: HamiltonianSpec, u_minus: Field, delta: float, T: float,
                   dt: float, *, lt: LagrangianTable) -> DecayFit:
    """Fitted slope of ln ||u(t) - u_-|| on the window [T/2, T], worse of +/-delta.

    Evolves u_- + delta and u_- - delta once each through deviation_series
    and returns the slope with the +delta series it was fitted from.  A
    positive slope reports non-decay; it is not an error.  The slope is
    None when neither series has two samples above the noise floor.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    noise_floor = 100 * np.finfo(float).eps * max(1.0, float(np.abs(u_minus.values).max()))

    series = []
    slopes = []
    for sgn in (+1.0, -1.0):
        times, devs = deviation_series(spec, u_minus, sgn * delta, T, dt, lt=lt)
        series.append((times, devs))
        ok = (times >= T / 2 - 1e-12) & (times <= T + 1e-12) & (devs > noise_floor)
        if np.count_nonzero(ok) < 2:
            # deviation underflowed on [T/2, T]; shrink the window
            ok = devs > noise_floor
            warnings.warn("decay fit window shrunk: deviation at the noise floor",
                          stacklevel=2)
            if np.count_nonzero(ok) < 2:
                continue
        fit = np.polyfit(times[ok], np.log(devs[ok]), 1)
        slopes.append(float(fit[0]))
    return DecayFit(max(slopes, default=None), *series[0])


@dataclass
class ProbeResult:
    t_escape: float | None     # None when the deviation never reached the target
    times: np.ndarray
    devs: np.ndarray


def instability_probe(spec: HamiltonianSpec, u_minus: Field, eps: float,
                      Delta_target: float, T: float, dt: float, *,
                      lt: LagrangianTable) -> ProbeResult:
    """Evolve u_- - eps, sampled every step, until the deviation reaches Delta_target."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0,1)")
    if Delta_target <= eps:
        raise ValueError("Delta_target must exceed eps")
    times, devs = deviation_series(spec, u_minus, -eps, T, dt, lt=lt, every=1,
                                   stop=lambda d: d >= Delta_target)
    t_escape = float(times[-1]) if devs[-1] >= Delta_target else None
    return ProbeResult(t_escape, np.r_[0.0, times], np.r_[eps, devs])


def basin_estimate(spec: HamiltonianSpec, u_minus: Field, T: float, dt: float,
                   delta_hi: float, *, lt: LagrangianTable) -> float:
    """Bisection for the largest tested delta whose +/- perturbations re-enter
    a delta/2 neighborhood of u_- by time T.  Returns 0 if every probe fails.
    Each orbit stops at its first sample within delta/2, which decides it."""
    if delta_hi <= 0:
        raise ValueError("delta_hi must be positive")

    def recovers(delta: float) -> bool:
        return all(deviation_series(spec, u_minus, sgn * delta, T, dt, lt=lt,
                                    stop=lambda d: d <= delta / 2)[1].min() <= delta / 2
                   for sgn in (+1.0, -1.0))

    if recovers(delta_hi):
        return delta_hi
    lo, hi = 0.0, delta_hi
    for _ in range(BASIN_ROUNDS):
        mid = (lo + hi) / 2
        if recovers(mid):
            lo = mid
        else:
            hi = mid
    return lo
