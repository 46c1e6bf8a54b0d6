"""Split contact Hamiltonians H(x,p,u) = G(x,p) + W(x,u) and their Lagrangians.

The convex part G is turned into a running cost by the discrete
Legendre-Fenchel transform L(x,v) = sup_p (p*v - G(x,p)), computed as a
sampled max over a momentum grid refined by ternary search (valid since
p -> p*v - G(x,p) is concave).  The contact part W carries its own
derivative bound: |dW/du| <= lambda_bound everywhere, which is what the
time steppers rely on for stability.

Velocity and momentum grids always contain 0; even requested counts are
bumped to the next odd integer so that identities like
min_v L(x,v) = -G(x,0) hold exactly for the built-in Hamiltonians.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import REQUIRED, constant, formula, number, positive, read_section, section, text
from .errors import ConfigError
from .expr import EvalError, Expr
from .grid import Field, TorusGrid

__all__ = [
    "HamiltonianSpec",
    "LagrangianTable",
    "legendre",
    "conjugate_table",
    "builtin",
    "BUILTIN_NAMES",
]

# (G, W, dWu) formula templates: each {field} is a required parameter, substituted in
# parentheses; a parameter is a formula in x, or a number where NUMBER_PARAMS says so
BUILTINS = {
    "eikonal": ("p^2 + {V}", "0", "0"),
    "linear_contact": ("p^2 + {V}", "{a}*u", "{a}"),
    "example_ex": ("{zeta}*p^2", "({dphi}^2 - {theta})*({phi} - u) - {zeta}*{dphi}^2",
                   "{theta} - {dphi}^2"),
    "corollary_a": ("p^2 + {V} - {c}", "{a}*u", "{a}"),
}
BUILTIN_NAMES = tuple(BUILTINS)
NUMBER_PARAMS = {"linear_contact": ("a",)}
DEFAULT_BOUND = 4.0     # vmax and pmax of a Hamiltonian that declares neither
# the velocity and momentum bounds, keys of `hamiltonian`, builtin params and `homog`
BOUND_KEYS = {"vmax": (positive, DEFAULT_BOUND), "pmax": (positive, DEFAULT_BOUND)}
SPEC_KEYS = {"G": (formula, REQUIRED), "W": (formula, "0"), "dWu": (formula, "0"),
             "Lambda": (number, None), **BOUND_KEYS, "name": (text, "custom")}
REFINE = 40         # ternary-search passes refining each sampled Legendre argmax
SAMPLES = 200       # points of each sampled load-time check
U_CHECK = 5.0       # load-time checks sample u on [-U_CHECK, U_CHECK]
# the (x, u) lattice on which |dWu| is bounded and dWu is compared with W
X_LATTICE = np.linspace(0.0, 1.0, 4096, endpoint=False)[:, None]
U_LATTICE = np.linspace(-U_CHECK, U_CHECK, 21)[None, :]
DIFF_H = 1e-3       # half-width of the central difference in u of W (and of a two-scale H)
# allowed |dWu - central difference| per unit of 1 + max|dWu|: for W linear in u (every
# builtin) the difference is exact up to rounding, eps*max|W|/DIFF_H ~ 2e-13*max|W|;
# a W smooth in u adds the truncation error DIFF_H^2/6 * max|d3W/du3| ~ 1.7e-7 per unit
DIFF_TOL = 1e-6
# allowed |W - (a*u + b)| of an affine W, in ulps of the magnitudes involved: W's own
# operations round a few times (example_ex's W, folded: one -, one *, one -)
AFFINE_ULPS = 8


@dataclass(frozen=True)
class HamiltonianSpec:
    """The pair (G, W) with dW/du supplied explicitly and bounded by lambda_bound
    (left out: max |dWu| on the load-time lattice)."""

    G: Expr
    W: Expr
    dWu: Expr
    lambda_bound: float | None = None
    vmax: float = DEFAULT_BOUND
    pmax: float = DEFAULT_BOUND
    name: str = "custom"

    def __post_init__(self):
        if self.lambda_bound is None:
            object.__setattr__(self, "lambda_bound", float(np.abs(self._dwu_lattice).max()))

    @cached_property
    def _dwu_lattice(self) -> np.ndarray:
        """dWu on X_LATTICE x U_LATTICE, evaluated once per spec."""
        vals = np.asarray(self.dWu.evaluate({"x": X_LATTICE, "u": U_LATTICE}), dtype=float)
        return np.broadcast_to(vals, (X_LATTICE.size, U_LATTICE.size))


def frozen_values(e: Expr, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """An (x, u) expression frozen at u = us(x), sampled on the nodes xs: the one
    sampler of W and dWu on the nodes (the contact step, the frozen potentials)."""
    return np.broadcast_to(np.asarray(e.evaluate({"x": xs, "u": us}), dtype=float), xs.shape)


def affine_parts(W: Expr, dWu: Expr, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) with W(x, u) = a(x)*u + b(x) on the nodes xs up to rounding, or None.

    a = dWu and b = W(x, 0), as contiguous arrays.  W counts as affine when
    dWu does not read u and, at every node and every u of U_LATTICE,
    |W - (a*u + b)| is at most AFFINE_ULPS ulps of the node's largest
    |W| + |a*u| + |b| over the lattice.  W and dWu may be folded at xs; a W
    that leaves its domain on the lattice is not affine."""
    if "u" in dWu.variables():
        return None
    try:
        a, b = (np.ascontiguousarray(frozen_values(e, xs, np.zeros(xs.shape))) for e in (dWu, W))
        # one evaluation on the (u, x) lattice: u is a column against the nodes
        us = U_LATTICE.T
        w = np.broadcast_to(np.asarray(W.evaluate({"x": xs, "u": us}), dtype=float),
                            (us.size, xs.size))
    except EvalError:
        return None
    au = a * us
    scale = (np.abs(w) + np.abs(au) + np.abs(b)).max(axis=0)
    if np.any(np.abs(w - (au + b)) > AFFINE_ULPS * np.finfo(float).eps * scale):
        return None
    return a, b


def _sample_points(dim: int) -> np.ndarray:
    """SAMPLES points spread evenly over [0, 1)^dim, shape (dim, SAMPLES), drawn from
    no random generator: frac(1/2 + k*alpha) with alpha_j = g^-(j+1), g^(dim+1) = g + 1
    (Roberts' R_d additive recurrence)."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1)
    k = np.arange(1, SAMPLES + 1)[:, None]
    return np.mod(0.5 + k * alpha, 1.0).T


def _midpoint_convexity_gap(fn, s: np.ndarray, pmax: float) -> float:
    """Largest sampled fn((p1+p2)/2) - (fn(p1)+fn(p2))/2 with (p1, p2) = pmax*(2s - 1).

    s is (2, SAMPLES) points of [0, 1)^2 from _sample_points; fn binds every
    other sampled variable; a positive gap refutes convexity in p.
    """
    p1, p2 = pmax * (2.0 * s - 1.0)
    mid = np.asarray(fn((p1 + p2) / 2))
    avg = (np.asarray(fn(p1)) + np.asarray(fn(p2))) / 2
    return float(np.max(mid - avg))


def _check_u_derivative(name: str, f: Expr, df: Expr, d: np.ndarray, at: dict):
    """Raise ConfigError unless df, the declared u-derivative of f with values d at the
    points `at` (arrays broadcasting to d's shape), matches the central difference
    (f(u + DIFF_H) - f(u - DIFF_H)) / (2 DIFF_H) within DIFF_TOL * (1 + max|d|)."""
    diff = (np.asarray(f.evaluate({**at, "u": at["u"] + DIFF_H}))
            - np.asarray(f.evaluate({**at, "u": at["u"] - DIFF_H}))) / (2 * DIFF_H)
    err = np.broadcast_to(np.abs(d - diff), d.shape)
    k = np.unravel_index(np.argmax(err), err.shape)
    if err[k] > DIFF_TOL * (1.0 + float(np.abs(d).max())):
        where = ", ".join(f"{v}={np.broadcast_to(a, d.shape)[k]:.6g}" for v, a in at.items())
        raise ConfigError(f"d{name}u = {df} is not d{name}/du: it differs from the central "
                          f"difference of {name} by {err[k]:.3g} at ({where})")


def validate_spec(spec: HamiltonianSpec):
    """Load-time sanity checks on the (x, u) lattice and at sampled points.

    |dWu| stays within lambda_bound, dWu matches the central difference of
    W in u (_check_u_derivative), and G passes the sampled midpoint
    convexity test in p.
    """
    dwu = spec._dwu_lattice
    bound = float(np.abs(dwu).max())
    if bound > spec.lambda_bound + 1e-9:
        raise ConfigError(
            f"|dWu| reaches {bound:.6g} on the test lattice, exceeding Lambda={spec.lambda_bound:.6g}")
    _check_u_derivative("W", spec.W, spec.dWu, dwu, {"x": X_LATTICE, "u": U_LATTICE})
    pts = _sample_points(3)
    worst = _midpoint_convexity_gap(lambda p: spec.G.evaluate({"x": pts[0], "p": p}),
                                    pts[1:], spec.pmax)
    if worst > 1e-9:
        raise ConfigError(f"G fails the sampled midpoint convexity test by {worst:.3g}")
    return spec


def spec_from_config(ham: dict) -> HamiltonianSpec:
    """Build a spec from a `hamiltonian` section: inline (SPEC_KEYS) or builtin+params."""
    if isinstance(ham, dict) and "builtin" in ham:
        sec = read_section("hamiltonian", ham, {"builtin": (text, REQUIRED),
                                                "params": (section, {})})
        return builtin(sec["builtin"], sec["params"])
    sec = read_section("hamiltonian", ham, SPEC_KEYS)
    lam = sec.get("Lambda")
    spec = HamiltonianSpec(sec["G"], sec["W"], sec["dWu"], None if lam is None else float(lam),
                           float(sec["vmax"]), float(sec["pmax"]), sec["name"])
    return validate_spec(spec)


def builtin(name: str, params: dict) -> HamiltonianSpec:
    """A named problem instance: its BUILTINS templates with each field replaced by the
    parameter, built as an inline Hamiltonian.  example_ex has the exact stationary
    solution u = phi; linear_contact's a is a number (NUMBER_PARAMS)."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    fields = sorted(set(re.findall(r"\{(\w+)\}", " ".join(BUILTINS[name]))))
    keys = {f: (constant if f in NUMBER_PARAMS.get(name, ()) else formula, REQUIRED)
            for f in fields}
    par = read_section(f"builtin {name!r}", params or {}, {**keys, **BOUND_KEYS})
    G, W, dWu = (t.format(**{f: f"({par[f]})" for f in fields}) for t in BUILTINS[name])
    return spec_from_config({"G": G, "W": W, "dWu": dWu, "vmax": par["vmax"],
                             "pmax": par["pmax"], "name": name})


@dataclass(frozen=True)
class LagrangianTable:
    """Discrete Legendre transform L(x_i, v_j) on grid x velocity-grid."""

    grid: TorusGrid
    vgrid: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        L = np.array(self.L, dtype=float, copy=True)
        vg = np.array(self.vgrid, dtype=float, copy=True)
        if L.shape != (self.grid.n, vg.size):
            raise ValueError(f"table shape {L.shape} does not match grid/velocities")
        L.setflags(write=False)
        vg.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "vgrid", vg)

    @property
    def m(self) -> int:
        return self.vgrid.size

    def with_potential(self, pot) -> "LagrangianTable":
        """Fold a frozen potential into the cost: L'(x,v) = L(x,v) - pot(x)."""
        vals = pot.values if isinstance(pot, Field) else np.asarray(pot, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("potential shape does not match the grid")
        return LagrangianTable(self.grid, self.vgrid, self.L - vals[:, None])


def _odd(count: int) -> int:
    return count if count % 2 == 1 else count + 1


def conjugate_table(H: Expr, rows: dict, m: int, k: int, vmax: float, pmax: float,
                    warn_label: str = "G") -> tuple[np.ndarray, np.ndarray]:
    """Sampled sup_p (p*v - H(p)) per row, with one ternary-search refinement pass.

    rows binds each variable of H but p to a 1-D array, one value per row, on
    which H is folded once.  Every operation acts row by row, so a row's
    costs are the same in any batch.  Returns (velocity grid, (rows, m) costs).
    """
    if m < 16 or k < 16:
        raise ValueError("velocity and momentum counts must be >= 16")
    if not (vmax > 0 and pmax > 0):
        raise ValueError("vmax and pmax must be positive")
    m = _odd(m)
    k = _odd(k)
    vs = np.linspace(-vmax, vmax, m)
    ps = np.linspace(-pmax, pmax, k)
    folded = H.fold({name: np.asarray(col, dtype=float)[:, None] for name, col in rows.items()})
    nnodes = len(next(iter(rows.values())))

    def g_of(P):
        return np.broadcast_to(np.asarray(folded.evaluate({"p": P}), dtype=float), P.shape)

    best = np.full((nnodes, m), -np.inf)
    bidx = np.zeros((nnodes, m), dtype=np.int32)
    for idx, pval in enumerate(ps):
        g = g_of(np.full((nnodes, 1), pval))
        if not np.all(np.isfinite(g)):
            raise ValueError(f"nonfinite {warn_label} values at p={pval}")
        score = pval * vs[None, :] - g
        upd = score > best
        best[upd] = score[upd]
        bidx[upd] = idx

    boundary = int(np.count_nonzero((bidx == 0) | (bidx == k - 1)))
    if boundary:
        warnings.warn(
            f"Legendre argmax hit the momentum truncation [-{pmax},{pmax}] at "
            f"{boundary} of {nnodes * m} entries; consider raising pmax",
            stacklevel=2)

    lo = ps[np.maximum(bidx - 1, 0)]
    hi = ps[np.minimum(bidx + 1, k - 1)]
    V = np.broadcast_to(vs[None, :], (nnodes, m))
    for _ in range(REFINE):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        f1 = m1 * V - g_of(m1)
        f2 = m2 * V - g_of(m2)
        left = f1 >= f2
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    pm = (lo + hi) / 2
    table = np.maximum(best, pm * V - g_of(pm))
    return vs, table


def legendre(spec: HamiltonianSpec, g: TorusGrid, m: int = 65, k: int = 65) -> LagrangianTable:
    """Build the discrete Lagrangian table for the convex part of a spec."""
    vs, L = conjugate_table(spec.G, {"x": g.nodes}, m, k, spec.vmax, spec.pmax,
                            warn_label=spec.name)
    return LagrangianTable(g, vs, L)
