"""Two-scale stationary problems, effective Hamiltonians, and the rate study.

The fast-variable cell problem defines the effective Hamiltonian: for
frozen (x, p, c), Hbar(x,p,c) is the critical value of the Hamiltonian
q -> H(x, y, p+q, c) on the fast torus in y.  Tabulated over (x, p, c)
grids with trilinear interpolation, it drives the effective stationary
solve, while the multiscale solver discretizes the frozen two-scale
Hamiltonian x -> H(x, x/eps, p, u) directly on a fine grid with eps = 1/k
commensurate to the slow torus.  Both stationary solvers feed the min-plus
kernel semigroup.MinPlusStepper a running cost tabulated on a grid of
u-levels and interpolated at the current values, and iterate it to a fixed
point with semigroup.iterate; the monotonicity window
Lambda1 <= dH/du <= Lambda2 gives contraction at rate Lambda1.

The rate experiment solves the ladder eps in {1/8, ..., 1/64}, measures
sup-norm distances to the effective solution on each fine grid, and fits
the log-log slope; the constant max errors/sqrt(eps) is tracked under
grid refinement as a self-consistency check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import critical as crit
from .errors import ConfigError, ConvergenceError
from .expr import Expr
from .grid import Field, TorusGrid, lipschitz
from .hamiltonian import LagrangianTable, _as_expr, _midpoint_convexity_gap, conjugate_table
from .semigroup import MinPlusStepper, iterate

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


@dataclass(frozen=True)
class HomogProblem:
    """Two-scale contact Hamiltonian H(x, y, p, u) with monotonicity bounds."""

    H: Expr
    dHu: Expr
    Lambda1: float
    Lambda2: float
    vmax: float = 4.0
    pmax: float = 4.0

    def H_at(self, x, y, p, u):
        return self.H.evaluate({"x": x, "y": y, "p": p, "u": u})

    def x_independent(self) -> bool:
        return "x" not in self.H.variables()


def problem_from_config(conf: dict) -> HomogProblem:
    try:
        hp = HomogProblem(
            H=_as_expr(conf["H"]), dHu=_as_expr(conf["dHu"]),
            Lambda1=float(conf["Lambda1"]), Lambda2=float(conf["Lambda2"]),
            vmax=float(conf.get("vmax", 4.0)), pmax=float(conf.get("pmax", 4.0)))
    except KeyError as exc:
        raise ConfigError(f"homogenization config missing key {exc}") from exc
    return validate_problem(hp)


def validate_problem(hp: HomogProblem, seed: int = 0, samples: int = 200) -> HomogProblem:
    """Sampled checks of the monotonicity window and convexity in p."""
    if not (0 < hp.Lambda1 <= hp.Lambda2):
        raise ConfigError("need 0 < Lambda1 <= Lambda2")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, samples)
    ys = rng.uniform(0, 1, samples)
    ps = rng.uniform(-hp.pmax, hp.pmax, samples)
    us = rng.uniform(-5, 5, samples)
    dvals = np.asarray(hp.dHu.evaluate({"x": xs, "y": ys, "p": ps, "u": us}))
    if np.any(dvals < hp.Lambda1 - 1e-9) or np.any(dvals > hp.Lambda2 + 1e-9):
        raise ConfigError(
            f"sampled dH/du leaves [{hp.Lambda1}, {hp.Lambda2}]: "
            f"range [{dvals.min():.4g}, {dvals.max():.4g}]")
    if _midpoint_convexity_gap(lambda p: hp.H_at(xs, ys, p, us), rng, hp.pmax, samples) > 1e-9:
        raise ConfigError("H fails the sampled midpoint convexity test in p")
    return hp


def cell_problem(hp: HomogProblem, x: float, p: float, c: float,
                 dt: float = 0.05, tol: float = crit.DEFAULT_TOL, n_fast: int = 64,
                 m: int = 49, k: int = 49, schedule=crit.DEFAULT_SCHEDULE,
                 T_long: float = 40.0, cross_tol: float = crit.DEFAULT_CROSS_TOL) -> float:
    """Effective value Hbar(x,p,c): critical value of q -> H(x,y,p+q,c) in y."""
    for name, val in (("x", x), ("p", p), ("c", c)):
        if not np.isfinite(val):
            raise ValueError(f"cell coordinate {name} must be finite")
    g = TorusGrid(n_fast, 1.0)
    ys = g.nodes[:, None]
    pmax_cell = hp.pmax + abs(p)

    def gfun(Q):
        return hp.H.evaluate({"x": float(x), "y": ys, "p": p + Q, "u": float(c)})

    vs, L = conjugate_table(gfun, g.n, m, k, hp.vmax, pmax_cell, warn_label="cell H")
    lt = LagrangianTable(g, vs, L, hp.vmax, pmax_cell)
    res = crit.critical_value(lt, schedule=schedule, dt=dt, tol=tol,
                              T_long=T_long, cross_tol=cross_tol)
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
    values: np.ndarray          # (nx, np, nc)
    Lambda1: float
    Lambda2: float

    def evaluate(self, x, p, c):
        """Trilinear interpolation: periodic in x, clamped in p and c."""
        xn, pn, cn = self.x_nodes, self.p_nodes, self.c_nodes
        if xn.size > 1:
            hx = 1.0 / xn.size
            s = np.mod(np.asarray(x, float), 1.0) / hx
            i0 = np.floor(s).astype(int) % xn.size
            i1 = (i0 + 1) % xn.size
            tx = s - np.floor(s)
        else:
            i0 = i1 = np.zeros_like(np.asarray(x, dtype=int))
            tx = np.zeros_like(np.asarray(x, float))

        def axis_weights(nodes, q):
            q = np.clip(np.asarray(q, float), nodes[0], nodes[-1])
            j = np.clip(np.searchsorted(nodes, q) - 1, 0, nodes.size - 2)
            t = (q - nodes[j]) / (nodes[j + 1] - nodes[j])
            return j, t

        jp, tp = axis_weights(pn, p) if pn.size > 1 else (np.zeros_like(i0), 0.0 * tx)
        kc, tc = axis_weights(cn, c) if cn.size > 1 else (np.zeros_like(i0), 0.0 * tx)
        jp1 = np.minimum(jp + 1, pn.size - 1)
        kc1 = np.minimum(kc + 1, cn.size - 1)
        V = self.values
        out = 0.0
        for ii, wx in ((i0, 1 - tx), (i1, tx)):
            for jj, wp in ((jp, 1 - tp), (jp1, tp)):
                for kk, wc in ((kc, 1 - tc), (kc1, tc)):
                    out = out + wx * wp * wc * V[ii, jj, kk]
        return out


def build_effective_table(hp: HomogProblem, x_nodes, p_nodes, c_nodes,
                          dt: float = 0.05, tol: float = crit.DEFAULT_TOL,
                          table_tol: float = 5e-2, **cell_opts) -> EffectiveTable:
    """Tabulate the cell problem on the given grids and verify monotonicity."""
    xn = np.asarray(list(x_nodes), dtype=float)
    pn = np.asarray(list(p_nodes), dtype=float)
    cn = np.asarray(list(c_nodes), dtype=float)
    if xn.size == 0 or pn.size == 0 or cn.size == 0:
        raise ValueError("table grids must be nonempty")
    flat = [cell_problem(hp, float(x), float(p), float(c), dt=dt, tol=tol, **cell_opts)
            for x in xn for p in pn for c in cn]
    values = np.asarray(flat).reshape(xn.size, pn.size, cn.size)

    # monotone in c at rate Lambda1, convex along p
    for kk in range(cn.size - 1):
        dc = cn[kk + 1] - cn[kk]
        bad = values[:, :, kk + 1] - values[:, :, kk] - hp.Lambda1 * dc < -table_tol
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ConfigError(
                f"effective table fails Lambda1-monotonicity in c at "
                f"(x={xn[i]:.4g}, p={pn[j]:.4g}, c={cn[kk]:.4g})")
    for j in range(pn.size - 2):
        mid = values[:, j + 1, :]
        avg = (values[:, j, :] + values[:, j + 2, :]) / 2
        bad = mid - avg > table_tol
        if np.any(bad):
            i, kk = np.argwhere(bad)[0]
            raise ConfigError(
                f"effective table fails convexity in p at "
                f"(x={xn[i]:.4g}, p={pn[j + 1]:.4g}, c={cn[kk]:.4g})")
    return EffectiveTable(xn, pn, cn, values, hp.Lambda1, hp.Lambda2)


def _level_table_fixed_point(g: TorusGrid, vs: np.ndarray, levels: np.ndarray,
                             L_table: np.ndarray, dt: float, Lambda2: float,
                             u0: np.ndarray, tol: float, T_max: float, what: str) -> Field:
    """Fixed point of u' = min_j [ u(x_i - v_j dt) + dt L(x_i, v_j, u_i) ].

    L_table has shape (n, nlevels, m); per step the cost at each node is the
    linear interpolation of L_table along the level axis at the current
    value u_i.
    """
    rows = np.arange(g.n)
    dlev = levels[1] - levels[0] if levels.size > 1 else 1.0

    def cost_at(u):
        if levels.size == 1:
            return L_table[:, 0, :]
        pos = np.clip((u - levels[0]) / dlev, 0.0, levels.size - 1 - 1e-12)
        i0 = pos.astype(int)
        th = (pos - i0)[:, None]
        return L_table[rows, i0] * (1 - th) + L_table[rows, i0 + 1] * th

    stepper = MinPlusStepper(g, vs, dt, cost_at, lambda_bound=Lambda2)
    rec = iterate(stepper.step, u0, dt, math.ceil(T_max / dt), tol)
    if not rec.converged:
        raise ConvergenceError(
            f"{what} stalled at residual {rec.residual:.3e} (tol {tol:.1e})", rec.residual)
    return Field(g, rec.values)


def _level_grid(span: float, count: int, pad: float = 0.25) -> np.ndarray:
    lim = span * (1 + pad) + 0.1
    return np.linspace(-lim, lim, count)


def solve_effective(et: EffectiveTable, n_slow: int = 256, m: int = 65,
                    dt: float = 5e-3, tol: float = 1e-6, T_max: float = 40.0) -> Field:
    """Stationary solve of Hbar(x, Du, u) = 0 from the tabulated values."""
    g = TorusGrid(n_slow, 1.0)
    xs = g.nodes
    nlev = et.c_nodes.size
    # H values on the fine slow grid, per (p-node, c-node)
    Hf = np.empty((g.n, et.p_nodes.size, nlev))
    for j, pv in enumerate(et.p_nodes):
        for kk, cv in enumerate(et.c_nodes):
            Hf[:, j, kk] = et.evaluate(xs, pv, cv)
    # exact conjugate of the piecewise-linear interpolant in p: max over p nodes
    slopes = np.abs(np.diff(Hf, axis=1) / np.diff(et.p_nodes)[None, :, None])
    vmax = float(slopes.max()) if slopes.size else 1.0
    vmax = max(vmax, 1e-6)
    m = m if m % 2 == 1 else m + 1
    vs = np.linspace(-vmax, vmax, m)
    # L_table[i, kc, j] = max_jp (p_jp * v_j - Hf[i, jp, kc])
    scores = (et.p_nodes[None, :, None, None] * vs[None, None, None, :]
              - Hf[:, :, :, None])
    L_table = scores.max(axis=1)
    return _level_table_fixed_point(g, vs, et.c_nodes, L_table, dt, et.Lambda2,
                                    np.zeros(g.n), tol, T_max, "effective stationary solve")


def solve_multiscale(hp: HomogProblem, eps: float, n_per_period: int = 32,
                     m: int = 65, k: int = 49, dt: float | None = None,
                     tol: float = 1e-5, T_max: float = 40.0,
                     n_ulevels: int = 9, u0: Field | None = None) -> Field:
    """Stationary solve of the frozen two-scale Hamiltonian H(x, x/eps, Du, u)."""
    k_int = round(1.0 / eps)
    if k_int < 1 or abs(1.0 / k_int - eps) > 1e-12:
        raise ValueError(f"eps must be the reciprocal of an integer, got {eps}")
    n = k_int * n_per_period
    g = TorusGrid(n, 1.0)
    xs = g.nodes
    ys = np.mod(xs * k_int, 1.0)
    if dt is None:
        # foot points should not cross a fast cell in one step
        dt = min(5e-3, eps / (4.0 * hp.vmax))
    span = float(np.max(np.abs(hp.H_at(xs, ys, 0.0, 0.0)))) / hp.Lambda1
    levels = _level_grid(span, n_ulevels)

    if hp.x_independent():
        # the node data (y, u-level) repeats with period n_per_period
        yu = ys[:n_per_period]
        yf = np.repeat(yu, levels.size)[:, None]
        uf = np.tile(levels, n_per_period)[:, None]

        def gfun(Q):
            return hp.H.evaluate({"y": yf, "p": Q, "u": uf})

        vs, Lflat = conjugate_table(gfun, yu.size * levels.size, m, k,
                                    hp.vmax, hp.pmax, warn_label="two-scale H")
        L_small = Lflat.reshape(n_per_period, levels.size, vs.size)
        reps = k_int
        L_table = np.tile(L_small, (reps, 1, 1))
    else:
        xf = np.repeat(xs, levels.size)[:, None]
        yf = np.repeat(ys, levels.size)[:, None]
        uf = np.tile(levels, n)[:, None]

        def gfun(Q):
            return hp.H.evaluate({"x": xf, "y": yf, "p": Q, "u": uf})

        vs, Lflat = conjugate_table(gfun, n * levels.size, m, k,
                                    hp.vmax, hp.pmax, warn_label="two-scale H")
        L_table = Lflat.reshape(n, levels.size, vs.size)

    start = u0.interp(xs) if u0 is not None else np.zeros(n)
    return _level_table_fixed_point(g, vs, levels, L_table, dt, hp.Lambda2, start, tol,
                                    T_max, f"multiscale solve at eps=1/{k_int}")


@dataclass
class RateResult:
    slope: float | None          # None when errors sit at the noise floor
    C_fit: float
    errors: dict                 # eps -> sup-norm error on the fine grid
    ubar: Field
    table: EffectiveTable
    details: dict = field(default_factory=dict)


def rate_experiment(hp: HomogProblem, eps_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                    n_per_period: int = 32, dt: float | None = None,
                    tol: float = 1e-5, table: EffectiveTable | None = None,
                    x_count: int = 9, p_span: float = 2.0, p_count: int = 17,
                    c_count: int = 5, n_slow: int = 256,
                    noise_floor: float = 1e-3, cell_opts: dict | None = None) -> RateResult:
    """Solve the eps ladder and fit the log-log error slope against sqrt(eps)."""
    eps_list = sorted(float(e) for e in eps_list)
    if table is None:
        if hp.x_independent():
            x_nodes = np.array([0.0])
        else:
            x_nodes = np.linspace(0.0, 1.0, x_count, endpoint=False)
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
        ue = solve_multiscale(hp, eps, n_per_period=n_per_period, dt=dt, tol=tol,
                              u0=ubar)
        ub_fine = ubar.interp(ue.grid.nodes)
        errors[eps] = float(np.max(np.abs(ue.values - ub_fine)))

    eps_arr = np.array(sorted(errors))
    err_arr = np.array([errors[e] for e in eps_arr])
    if np.all(err_arr <= noise_floor):
        slope = None
    else:
        slope = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(err_arr, 1e-300)), 1)[0])
    C_fit = float(np.max(err_arr / np.sqrt(eps_arr)))
    return RateResult(slope, C_fit, errors, ubar, table,
                      details={"n_per_period": n_per_period, "lip_ubar": lip})


def _default_c_span(hp: HomogProblem) -> float:
    xs = np.linspace(0, 1, 64, endpoint=False)
    ys = np.linspace(0, 1, 64, endpoint=False)
    vals = np.abs(np.asarray(hp.H_at(xs[:, None], ys[None, :], 0.0, 0.0)))
    return float(vals.max()) / hp.Lambda1 * 1.25 + 0.5
