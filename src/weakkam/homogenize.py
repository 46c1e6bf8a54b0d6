"""Two-scale stationary problems, effective Hamiltonians, and the rate study.

The fast-variable cell problem defines the effective Hamiltonian: for
frozen (x, p, c), Hbar(x,p,c) is the critical value of the Hamiltonian
q -> H(x, y, p+q, c) on the fast torus in y.  Tabulated over (x, p, c)
grids, it drives the effective stationary solve, which reads the table at
its own p and c nodes and interpolates linearly in x only, while the
multiscale solver discretizes the frozen two-scale Hamiltonian
x -> H(x, x/eps, p, u) directly on a fine grid with eps = 1/k
commensurate to the slow torus.  Both stationary solvers feed the min-plus
kernel semigroup.MinPlusStepper a running cost tabulated on a grid of
u-levels (at least 2) and interpolated at the current values, and find
its fixed point with semigroup.fixed_point: march, then Newton-Howard on
grids of at most semigroup.NEWTON_MAX_N = 256 nodes (the default effective
solve, the two-scale solve at eps = 1/8 with 32 nodes a period); finer
grids only march.  Both raise at the first iterate off the level table;
the monotonicity window Lambda1 <= dH/du <= Lambda2 gives contraction at
rate Lambda1.

The rate experiment solves the ladder eps in {1/8, ..., 1/64}, measures
sup-norm distances to the effective solution on each fine grid, and fits
the log-log slope; the constant max errors/sqrt(eps) is tracked under
grid refinement as a self-consistency check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import critical as crit
from .config import REQUIRED, formula, number, read_section
from .errors import ConfigError, ConvergenceError
from .expr import Expr
from .grid import Field, TorusGrid, lipschitz
from .hamiltonian import (BOUND_KEYS, DEFAULT_BOUND, U_CHECK, LagrangianTable,
                          _check_u_derivative, _midpoint_convexity_gap, _sample_points,
                          conjugate_table)
from .semigroup import MinPlusStepper, fixed_point

__all__ = [
    "HomogProblem",
    "EffectiveTable",
    "cell_problem",
    "build_effective_table",
    "solve_effective",
    "solve_multiscale",
    "rate_experiment",
    "RateResult",
]

TABLE_TOL = 5e-2        # slack of the effective table's monotonicity and convexity checks
CELL_DT = 0.05          # time step of a cell problem's critical solve, capped at 1/(2 vmax)
STATIONARY_M = 65       # velocities of both stationary solves
T_MAX = 40.0            # time budget of both stationary solves
EFFECTIVE_DT = 5e-3     # time step of the effective stationary solve
EFFECTIVE_TOL = 1e-6    # residual target of the effective stationary solve
MULTISCALE_K = 49       # momenta of the two-scale Legendre table
MULTISCALE_TOL = 1e-5   # residual target of the two-scale stationary solve
N_ULEVELS = 9           # u-levels on which the two-scale cost is tabulated
NOISE_FLOOR = 1e-3      # rate errors all at or below this report no slope
X_COUNT = 9             # x-nodes of the effective table of an x-dependent problem
HOMOG_KEYS = {"H": (formula, REQUIRED), "dHu": (formula, REQUIRED),
              "Lambda1": (number, REQUIRED), "Lambda2": (number, REQUIRED), **BOUND_KEYS}


@dataclass(frozen=True)
class HomogProblem:
    """Two-scale contact Hamiltonian H(x, y, p, u) with monotonicity bounds."""

    H: Expr
    dHu: Expr
    Lambda1: float
    Lambda2: float
    vmax: float = DEFAULT_BOUND
    pmax: float = DEFAULT_BOUND

    def H_at(self, x, y, p, u):
        return self.H.evaluate({"x": x, "y": y, "p": p, "u": u})

    def x_independent(self) -> bool:
        return "x" not in self.H.variables()


def problem_from_config(conf: dict) -> HomogProblem:
    """Build a problem from a `homog` section (HOMOG_KEYS)."""
    sec = read_section("homog", conf, HOMOG_KEYS)
    return validate_problem(HomogProblem(
        sec["H"], sec["dHu"], float(sec["Lambda1"]), float(sec["Lambda2"]),
        float(sec["vmax"]), float(sec["pmax"])))


def validate_problem(hp: HomogProblem) -> HomogProblem:
    """Checks at fixed sample points: the monotonicity window, dHu against the
    central difference of H in u (as validate_spec checks dWu), and convexity in p."""
    if not (0 < hp.Lambda1 <= hp.Lambda2):
        raise ConfigError("need 0 < Lambda1 <= Lambda2")
    pts = _sample_points(6)
    xs, ys = pts[0], pts[1]
    ps = hp.pmax * (2.0 * pts[2] - 1.0)
    us = U_CHECK * (2.0 * pts[3] - 1.0)
    dvals = np.asarray(hp.dHu.evaluate({"x": xs, "y": ys, "p": ps, "u": us}))
    if np.any(dvals < hp.Lambda1 - 1e-9) or np.any(dvals > hp.Lambda2 + 1e-9):
        raise ConfigError(
            f"sampled dH/du leaves [{hp.Lambda1}, {hp.Lambda2}]: "
            f"range [{dvals.min():.4g}, {dvals.max():.4g}]")
    _check_u_derivative("H", hp.H, hp.dHu, np.broadcast_to(dvals, xs.shape),
                       {"x": xs, "y": ys, "p": ps, "u": us})
    if _midpoint_convexity_gap(lambda p: hp.H_at(xs, ys, p, us), pts[4:], hp.pmax) > 1e-9:
        raise ConfigError("H fails the sampled midpoint convexity test in p")
    return hp


def cell_problem(hp: HomogProblem, x: float, p: float, c: float, n_fast: int = 64,
                 m: int = 49, cross_tol: float = crit.DEFAULT_CROSS_TOL) -> float:
    """Effective value Hbar(x,p,c): critical value of q -> H(x,y,p+q,c) in y.

    The Legendre table has m velocities and m momenta, and the time step is
    min(CELL_DT, 1/(2 vmax)), so foot points stay within half the fast torus
    at any vmax.  Raises ConvergenceError when its discount and long-time
    estimators differ by more than cross_tol.
    """
    for name, val in (("x", x), ("p", p), ("c", c)):
        if not np.isfinite(val):
            raise ValueError(f"cell coordinate {name} must be finite")
    g = TorusGrid(n_fast)
    H = hp.H.fold({"x": float(x), "y": g.nodes[:, None], "u": float(c)})

    def gfun(Q):
        return H.evaluate({"p": p + Q})

    vs, L = conjugate_table(gfun, g.n, m, m, hp.vmax, hp.pmax + abs(p), warn_label="cell H")
    lt = LagrangianTable(g, vs, L)
    res = crit.critical_value(lt, dt=min(CELL_DT, 0.5 / hp.vmax), cross_tol=cross_tol)
    if res.method != "agree":
        raise ConvergenceError(
            f"cell problem at (x={x:.4g}, p={p:.4g}, c={c:.4g}): discount and "
            f"long-time estimators disagree by {res.diagnostics['gap']:.3g}",
            res.diagnostics["gap"])
    return res.c


@dataclass
class EffectiveTable:
    x_nodes: np.ndarray
    p_nodes: np.ndarray
    c_nodes: np.ndarray
    values: np.ndarray          # (nx, np, nc); x_nodes uniform on [0, 1)
    Lambda2: float


def build_effective_table(hp: HomogProblem, x_nodes, p_nodes, c_nodes,
                          **cell_opts) -> EffectiveTable:
    """Tabulate cell_problem(**cell_opts) on the given grids and verify monotonicity."""
    xn = np.asarray(list(x_nodes), dtype=float)
    pn = np.asarray(list(p_nodes), dtype=float)
    cn = np.asarray(list(c_nodes), dtype=float)
    if xn.size == 0 or pn.size == 0 or cn.size == 0:
        raise ValueError("table grids must be nonempty")
    flat = [cell_problem(hp, float(x), float(p), float(c), **cell_opts)
            for x in xn for p in pn for c in cn]
    values = np.asarray(flat).reshape(xn.size, pn.size, cn.size)

    # monotone in c at rate Lambda1, convex along p
    for kk in range(cn.size - 1):
        dc = cn[kk + 1] - cn[kk]
        bad = values[:, :, kk + 1] - values[:, :, kk] - hp.Lambda1 * dc < -TABLE_TOL
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ConfigError(
                f"effective table fails Lambda1-monotonicity in c at "
                f"(x={xn[i]:.4g}, p={pn[j]:.4g}, c={cn[kk]:.4g})")
    for j in range(pn.size - 2):
        mid = values[:, j + 1, :]
        avg = (values[:, j, :] + values[:, j + 2, :]) / 2
        bad = mid - avg > TABLE_TOL
        if np.any(bad):
            i, kk = np.argwhere(bad)[0]
            raise ConfigError(
                f"effective table fails convexity in p at "
                f"(x={xn[i]:.4g}, p={pn[j + 1]:.4g}, c={cn[kk]:.4g})")
    return EffectiveTable(xn, pn, cn, values, hp.Lambda2)


def _level_table_fixed_point(g: TorusGrid, vs: np.ndarray, levels: np.ndarray,
                             L_table: np.ndarray, dt: float, Lambda2: float,
                             u0: np.ndarray, tol: float, what: str) -> Field:
    """Fixed point of u' = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j, u_i) ].

    L_table has shape (n, nlevels, m) on nlevels >= 2 uniform levels; the cost at
    node i is its linear interpolation along the level axis at the current u_i.
    semigroup.fixed_point solves it with slope -dt*dL_pi/du (a grid over
    NEWTON_MAX_N nodes only marches).  A u0 outside the levels raises
    ConvergenceError, and so does the first iterate that leaves them,
    naming its step or Newton iteration: nothing off the table is read,
    clamped or extrapolated.
    """
    if levels.size < 2:
        raise ValueError(f"{what} needs at least 2 u-levels, got {levels.size}")
    rows = np.arange(g.n)
    dlev = levels[1] - levels[0]

    def outside(u):
        return np.count_nonzero((u < levels[0]) | (u > levels[-1]))

    def bracket(u):
        pos = (u - levels[0]) / dlev
        i0 = np.minimum(np.floor(pos).astype(int), levels.size - 2)
        return i0, (pos - i0)[:, None]

    def cost_at(u):
        i0, th = bracket(u)
        return L_table[rows, i0] * (1 - th) + L_table[rows, i0 + 1] * th

    def slope(u, policy):
        i0 = bracket(u)[0]
        return -dt * (L_table[rows, i0 + 1, policy] - L_table[rows, i0, policy]) / dlev

    span = f"the u-level range [{levels[0]:.4g}, {levels[-1]:.4g}]"

    def guard(u, at):
        off = outside(u)
        if off:
            raise ConvergenceError(f"{what} left {span} at {at}, at {off} of {g.n} nodes")

    if outside(u0):
        raise ConvergenceError(f"{what} starts outside {span} at {outside(u0)} of {g.n} nodes")
    kernel = MinPlusStepper(g, vs, dt, cost_at, lambda_bound=Lambda2)
    rec = fixed_point(kernel.step, kernel, slope, u0, dt, tol, math.ceil(T_MAX / dt),
                      guard=guard)
    if not rec.converged:
        raise ConvergenceError(
            f"{what} stalled at residual {rec.residual:.3e} (tol {tol:.1e}) after "
            f"{rec.steps} steps and {rec.newton} Newton iterations", rec.residual)
    return Field(g, rec.values)


def solve_effective(et: EffectiveTable, n_slow: int = 256) -> Field:
    """Stationary solve of Hbar(x, Du, u) = 0 from the tabulated values.

    Hbar is read at the table's own p and c nodes, interpolated linearly
    and periodically in x onto n_slow nodes; the c nodes are the u-levels
    of the solve (at least 2 of each).  Nothing is extrapolated in p or c.
    """
    if et.p_nodes.size < 2 or et.c_nodes.size < 2:
        raise ValueError("the effective table needs at least 2 p nodes and 2 c nodes")
    g = TorusGrid(n_slow)
    nx = et.x_nodes.size
    s = g.nodes / (1.0 / nx) if nx > 1 else np.zeros(g.n)   # one x-node: constant in x
    i0 = np.floor(s).astype(int) % nx
    tx = (s - np.floor(s))[:, None, None]
    # Hbar on the slow grid per (p-node, c-node); the leading 0.0 + turns a -0.0 into +0.0
    Hf = 0.0 + (1 - tx) * et.values[i0] + tx * et.values[(i0 + 1) % nx]
    # exact conjugate of the piecewise-linear interpolant in p: max over p nodes
    slopes = np.abs(np.diff(Hf, axis=1) / np.diff(et.p_nodes)[None, :, None])
    vmax = max(float(slopes.max()), 1e-6)
    vs = np.linspace(-vmax, vmax, STATIONARY_M)
    # L_table[i, kc, j] = max_jp (p_jp * v_j - Hf[i, jp, kc]), one p node at a time
    L_table = np.full((g.n, et.c_nodes.size, vs.size), -np.inf)
    for jp, p in enumerate(et.p_nodes):
        np.maximum(L_table, p * vs - Hf[:, jp, :, None], out=L_table)
    return _level_table_fixed_point(g, vs, et.c_nodes, L_table, EFFECTIVE_DT, et.Lambda2,
                                    np.zeros(g.n), EFFECTIVE_TOL, "effective stationary solve")


def solve_multiscale(hp: HomogProblem, eps: float, n_per_period: int = 32,
                     u0: Field | None = None) -> Field:
    """Stationary solve of the frozen two-scale Hamiltonian H(x, x/eps, Du, u).

    The cost is the Legendre table of H on the u-level grid.  When H does
    not depend on x the node data (y, u-level) repeats every fast period,
    so the table is built on the first n_per_period nodes and tiled around
    the torus; otherwise it is built on every node.
    """
    k_int = round(1.0 / eps)
    if k_int < 1 or abs(1.0 / k_int - eps) > 1e-12:
        raise ValueError(f"eps must be the reciprocal of an integer, got {eps}")
    n = k_int * n_per_period
    g = TorusGrid(n)
    xs = g.nodes
    ys = np.mod(xs * k_int, 1.0)
    # foot points should not cross a fast cell in one step
    dt = min(5e-3, eps / (4.0 * hp.vmax))
    # u-levels cover the comparison bound max|H(x, y, 0, 0)|/Lambda1 with a 25% pad
    lim = float(np.max(np.abs(hp.H_at(xs, ys, 0.0, 0.0)))) / hp.Lambda1 * 1.25 + 0.1
    levels = np.linspace(-lim, lim, N_ULEVELS)

    cells = n_per_period if hp.x_independent() else n
    xf = np.repeat(xs[:cells], levels.size)[:, None]
    yf = np.repeat(ys[:cells], levels.size)[:, None]
    uf = np.tile(levels, cells)[:, None]
    H = hp.H.fold({"x": xf, "y": yf, "u": uf})

    def gfun(Q):
        return H.evaluate({"p": Q})

    vs, Lflat = conjugate_table(gfun, cells * levels.size, STATIONARY_M, MULTISCALE_K,
                                hp.vmax, hp.pmax, warn_label="two-scale H")
    L_table = np.tile(Lflat.reshape(cells, levels.size, vs.size), (n // cells, 1, 1))

    start = u0.interp(xs) if u0 is not None else np.zeros(n)
    return _level_table_fixed_point(g, vs, levels, L_table, dt, hp.Lambda2, start,
                                    MULTISCALE_TOL, f"multiscale solve at eps=1/{k_int}")


@dataclass
class RateResult:
    slope: float | None          # None when errors sit at the noise floor
    C_fit: float
    errors: dict                 # eps -> sup-norm error on the fine grid
    ubar: Field
    table: EffectiveTable


def rate_experiment(hp: HomogProblem, eps_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                    n_per_period: int = 32, table: EffectiveTable | None = None,
                    p_span: float = 2.0, p_count: int = 17, c_count: int = 5,
                    n_slow: int = 256, cell_opts: dict | None = None) -> RateResult:
    """Solve the eps ladder and fit the log-log error slope against sqrt(eps)."""
    eps_list = sorted(float(e) for e in eps_list)
    if table is None:
        if hp.x_independent():
            x_nodes = np.array([0.0])
        else:
            x_nodes = np.linspace(0.0, 1.0, X_COUNT, endpoint=False)
        p_nodes = np.linspace(-p_span, p_span, p_count)
        span = _default_c_span(hp)
        c_nodes = np.linspace(-span, span, c_count)
        table = build_effective_table(hp, x_nodes, p_nodes, c_nodes, **(cell_opts or {}))
    ubar = solve_effective(table, n_slow=n_slow)
    lip = lipschitz(ubar)
    if 2.0 * lip > float(table.p_nodes.max()):
        warnings.warn(
            f"effective table p-range {table.p_nodes.max():.3g} is below twice the "
            f"observed Lipschitz constant {lip:.3g} of the effective solution",
            stacklevel=2)

    errors = {}
    for eps in sorted(eps_list, reverse=True):
        ue = solve_multiscale(hp, eps, n_per_period=n_per_period, u0=ubar)
        ub_fine = ubar.interp(ue.grid.nodes)
        errors[eps] = float(np.max(np.abs(ue.values - ub_fine)))

    eps_arr = np.array(sorted(errors))
    err_arr = np.array([errors[e] for e in eps_arr])
    if np.all(err_arr <= NOISE_FLOOR):
        slope = None
    else:
        slope = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(err_arr, 1e-300)), 1)[0])
    C_fit = float(np.max(err_arr / np.sqrt(eps_arr)))
    return RateResult(slope, C_fit, errors, ubar, table)


def _default_c_span(hp: HomogProblem) -> float:
    xs = np.linspace(0, 1, 64, endpoint=False)
    ys = np.linspace(0, 1, 64, endpoint=False)
    vals = np.abs(np.asarray(hp.H_at(xs[:, None], ys[None, :], 0.0, 0.0)))
    return float(vals.max()) / hp.Lambda1 * 1.25 + 0.5
