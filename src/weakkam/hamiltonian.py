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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expr import Expr, parse
from .grid import Field, TorusGrid

__all__ = [
    "HamiltonianSpec",
    "LagrangianTable",
    "legendre",
    "conjugate_table",
    "builtin",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("eikonal", "linear_contact", "example_ex", "corollary_a")


@dataclass(frozen=True)
class HamiltonianSpec:
    """The pair (G, W) with dW/du supplied explicitly and bounded by lambda_bound."""

    G: Expr
    W: Expr
    dWu: Expr
    lambda_bound: float
    vmax: float = 4.0
    pmax: float = 4.0
    name: str = "custom"

    def G_at(self, x, p):
        return self.G.evaluate({"x": x, "p": p})

    def W_at(self, x, u):
        return self.W.evaluate({"x": x, "u": u})

    def dWu_at(self, x, u):
        return self.dWu.evaluate({"x": x, "u": u})


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value)
    return parse(repr(float(value)))


def _formula(value) -> str:
    if isinstance(value, Expr):
        return f"({value})"
    if isinstance(value, str):
        return f"({value})"
    return f"({float(value)!r})"


def _sampled_max_abs(e: Expr, nx: int = 4096, u_range=(-5.0, 5.0), nu: int = 21) -> float:
    xs = np.linspace(0.0, 1.0, nx, endpoint=False)
    names = e.variables()
    if "u" in names:
        us = np.linspace(u_range[0], u_range[1], nu)
        vals = e.evaluate({"x": xs[:, None], "u": us[None, :]})
    else:
        vals = e.evaluate({"x": xs}) if "x" in names else e.evaluate({})
    return float(np.max(np.abs(vals)))


def _midpoint_convexity_gap(fn, rng, pmax: float, samples: int) -> float:
    """Largest sampled fn((p1+p2)/2) - (fn(p1)+fn(p2))/2, p1, p2 uniform on [-pmax, pmax].

    fn binds every other sampled variable; a positive gap refutes convexity in p.
    """
    p1 = rng.uniform(-pmax, pmax, samples)
    p2 = rng.uniform(-pmax, pmax, samples)
    mid = np.asarray(fn((p1 + p2) / 2))
    avg = (np.asarray(fn(p1)) + np.asarray(fn(p2))) / 2
    return float(np.max(mid - avg))


def validate_spec(spec: HamiltonianSpec, seed: int = 0, samples: int = 200):
    """Load-time sanity checks: the derivative bound and sampled convexity of G."""
    bound = _sampled_max_abs(spec.dWu)
    if bound > spec.lambda_bound + 1e-9:
        raise ConfigError(
            f"|dWu| reaches {bound:.6g} on the test lattice, exceeding Lambda={spec.lambda_bound:.6g}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, samples)
    worst = _midpoint_convexity_gap(lambda p: spec.G_at(xs, p), rng, spec.pmax, samples)
    if worst > 1e-9:
        raise ConfigError(f"G fails the sampled midpoint convexity test by {worst:.3g}")
    return spec


def spec_from_config(ham: dict) -> HamiltonianSpec:
    """Build a spec from a config mapping: inline G/W/dWu or builtin+params."""
    if "builtin" in ham:
        return builtin(ham["builtin"], ham.get("params", {}))
    try:
        G = _as_expr(ham["G"])
        W = _as_expr(ham.get("W", "0"))
        dWu = _as_expr(ham.get("dWu", "0"))
    except KeyError as exc:
        raise ConfigError(f"hamiltonian config missing key {exc}") from exc
    lam = float(ham.get("Lambda", _sampled_max_abs(dWu)))
    spec = HamiltonianSpec(
        G=G, W=W, dWu=dWu, lambda_bound=lam,
        vmax=float(ham.get("vmax", 4.0)), pmax=float(ham.get("pmax", 4.0)),
        name=ham.get("name", "custom"))
    return validate_spec(spec)


def builtin(name: str, params: dict) -> HamiltonianSpec:
    """Named problem instances.

    eikonal(V):              G = p^2 + V(x),        W = 0
    linear_contact(a, V):    G = p^2 + V(x),        W = a*u        (a constant, may be negative)
    example_ex(phi, dphi, theta, zeta):
                             G = zeta*p^2,
                             W = (dphi^2 - theta)*(phi - u) - zeta*dphi^2
    corollary_a(a, V, c):    G = p^2 + V(x) - c,    W = a(x)*u
    """
    params = dict(params or {})

    def need(key):
        if key not in params:
            raise ConfigError(f"builtin {name!r} requires parameter {key!r}")
        return params[key]

    if name == "eikonal":
        V = _formula(need("V"))
        g_src, w_src, dwu_src = f"p^2 + {V}", "0", "0"
    elif name == "linear_contact":
        a = float(need("a"))
        V = _formula(need("V"))
        g_src, w_src, dwu_src = f"p^2 + {V}", f"({a!r})*u", f"({a!r})"
    elif name == "example_ex":
        phi = _formula(need("phi"))
        dphi = _formula(need("dphi"))
        theta = _formula(need("theta"))
        zeta = _formula(need("zeta"))
        g_src = f"{zeta}*p^2"
        w_src = f"({dphi}^2 - {theta})*({phi} - u) - {zeta}*{dphi}^2"
        dwu_src = f"{theta} - {dphi}^2"
    elif name == "corollary_a":
        a = _formula(need("a"))
        V = _formula(need("V"))
        c = _formula(need("c"))
        g_src = f"p^2 + {V} - {c}"
        w_src = f"{a}*u"
        dwu_src = f"{a}"
    else:
        raise ConfigError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")

    dWu = parse(dwu_src)
    spec = HamiltonianSpec(
        G=parse(g_src), W=parse(w_src), dWu=dWu,
        lambda_bound=_sampled_max_abs(dWu),
        vmax=float(params.get("vmax", 4.0)), pmax=float(params.get("pmax", 4.0)),
        name=name)
    return validate_spec(spec)


@dataclass(frozen=True)
class LagrangianTable:
    """Discrete Legendre transform L(x_i, v_j) on grid x velocity-grid."""

    grid: TorusGrid
    vgrid: np.ndarray
    L: np.ndarray
    vmax: float
    pmax: float

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
        return LagrangianTable(self.grid, self.vgrid, self.L - vals[:, None],
                               self.vmax, self.pmax)


def _odd(count: int) -> int:
    return count if count % 2 == 1 else count + 1


def conjugate_table(gfun, nnodes: int, m: int, k: int, vmax: float, pmax: float,
                    refine: int = 40, warn_label: str = "G") -> tuple[np.ndarray, np.ndarray]:
    """Sampled sup_p (p*v - g(p)) with one ternary-search refinement pass.

    gfun(P) evaluates the convex part at a momentum array P of shape
    (nnodes, width); any per-node data is bound inside gfun along axis 0.
    Returns (velocity grid, cost table of shape (nnodes, m)).
    """
    if m < 16 or k < 16:
        raise ValueError("velocity and momentum counts must be >= 16")
    if not (vmax > 0 and pmax > 0):
        raise ValueError("vmax and pmax must be positive")
    m = _odd(m)
    k = _odd(k)
    vs = np.linspace(-vmax, vmax, m)
    ps = np.linspace(-pmax, pmax, k)

    def geval(P):
        out = np.asarray(gfun(P), dtype=float)
        return np.broadcast_to(out, P.shape)

    best = np.full((nnodes, m), -np.inf)
    bidx = np.zeros((nnodes, m), dtype=np.int32)
    for idx, pval in enumerate(ps):
        g = geval(np.full((nnodes, 1), pval))
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
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        f1 = m1 * V - geval(m1)
        f2 = m2 * V - geval(m2)
        left = f1 >= f2
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    pm = (lo + hi) / 2
    table = np.maximum(best, pm * V - geval(pm))
    return vs, table


def legendre(spec: HamiltonianSpec, g: TorusGrid, m: int = 65, k: int = 65) -> LagrangianTable:
    """Build the discrete Lagrangian table for the convex part of a spec."""
    xs = g.nodes[:, None]

    def gfun(P):
        return spec.G.evaluate({"x": xs, "p": P})

    vs, L = conjugate_table(gfun, g.n, m, k, spec.vmax, spec.pmax, warn_label=spec.name)
    return LagrangianTable(g, vs, L, spec.vmax, spec.pmax)
