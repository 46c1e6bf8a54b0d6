"""Occupational-measure linear programming and the Peierls barrier.

Closed probability measures on position x velocity space are discretized
as nonnegative weights w[i,j] on the grid x velocity-grid, subject to

    sum_ij w[i,j] = 1,
    sum_ij w[i,j] * v_j * De_k(x_i) = 0   for every hat function e_k,

with De_k the centered difference of the hat centered at node k.  The
minimum of sum w*L over that polytope equals -c of the table's
Hamiltonian; a potential pot enters as the folded cost L - pot of
LagrangianTable.with_potential, giving -c of G + pot.  A second-stage
program over the optimal face produces the extremes of integrals of a
given function against minimizing measures.

LP solves use a dense two-phase simplex on one tableau, whose kept
artificial block gives the duals.  Pivots follow Dantzig's rule while the
objective improves and switch permanently to Bland's rule after a stall,
which precludes cycling; leaving-variable ties always break by smallest
basis index.  The occupational programs have few rows but
n*m columns, so they are solved through restricted masters with exact
pricing over all columns (each column has three structural nonzeros),
which certifies global optimality at the same 1e-9 tolerance while
keeping every tableau small.

The Peierls barrier is computed by min-plus dynamic programming on the
normalized running cost L + c.  The shared kernel semigroup.MinPlusStepper
steps one function per start node as a batch, seeded from the diagonal,
under the driver semigroup.iterate, for a base block of BASE_T only; longer
horizons are min-plus powers of that table, by the semigroup identity
h_{s+t}(x,y) = min_z [h_s(x,z) + h_t(z,y)] and repeated squaring in row
chunks of at most CHUNK_BYTES.  The liminf over horizons is realized as a
min over a finite horizon list.  A residual drift of the diagonal minimum between the
two largest distinct horizons estimates any error in the supplied
normalization constant and is subtracted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field
from .hamiltonian import LagrangianTable
from .semigroup import MinPlusStepper, iterate

__all__ = [
    "LinearProgram",
    "LPError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "lp_simplex",
    "OccupationalMeasure",
    "solve_occupational",
    "extremal_integral",
    "BarrierTable",
    "peierls_barrier",
]

L_CLIP = 1e6
BIG = L_CLIP        # barrier value of an unreached (start, arrival) pair
SAFETY = 4.0        # dt*vmax may span at most SAFETY cells in the barrier
BASE_T = 0.5        # the barrier steps this long; longer horizons are min-plus products
CHUNK_BYTES = 512 * 1024    # temporary of one row chunk of a min-plus product
LP_TOL = 1e-9       # simplex pivot and optimality tolerance
LP_MAX_ITER = 200_000   # simplex pivots per phase before LPError
FACE_TOL = 1e-6     # slack of the optimal face in extremal_integral
AUBRY_TOL = 1e-2    # the Aubry set is the nodes y with h[y,y] <= AUBRY_TOL


class LPError(RuntimeError):
    pass


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """minimize c.x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("A must be a matrix, c and b vectors")
        if A.shape != (b.size, c.size):
            raise ValueError(f"inconsistent LP dimensions: A{A.shape}, c{c.shape}, b{b.shape}")
        for dim, size in (("rows (constraints)", b.size), ("columns (variables)", c.size)):
            if size == 0:
                raise ValueError(f"LP has no {dim}: A{A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def _pivot(tab: np.ndarray, row: int, col: int):
    piv = tab[row] / tab[row, col]
    colv = tab[:, col].copy()
    tab -= np.outer(colv, piv)
    tab[row] = piv


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, ncols: int):
    """Run pivots until the reduced costs of the first ncols columns are nonnegative.

    tab carries the constraint rows, a trailing rhs column, and a final
    reduced-cost row whose rhs entry is minus the current objective.
    Dantzig's rule gives way to Bland's after 50 pivots without improvement.
    """
    nrows = tab.shape[0] - 1
    bland = False
    stall = 0
    best_obj = math.inf
    for _ in range(LP_MAX_ITER):
        red = tab[-1, :ncols]
        if bland:
            neg = np.nonzero(red < -LP_TOL)[0]
            if neg.size == 0:
                return
            col = int(neg[0])
        else:
            col = int(np.argmin(red))
            if red[col] >= -LP_TOL:
                return
        ratios = tab[:nrows, col]
        ok = ratios > LP_TOL
        if not np.any(ok):
            raise LPUnboundedError("objective unbounded below on the feasible set")
        cand = np.nonzero(ok)[0]
        theta = tab[cand, -1] / ratios[cand]
        tmin = theta.min()
        ties = cand[theta <= tmin + 1e-12]
        row = int(ties[np.argmin(basis[ties])])  # smallest basis index: anti-cycling
        _pivot(tab, row, col)
        basis[row] = col
        obj = -tab[-1, -1]
        if obj < best_obj - 1e-12:
            best_obj = obj
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                bland = True
    raise LPError(f"simplex exceeded {LP_MAX_ITER} pivots")


def lp_simplex(lp: LinearProgram) -> tuple[np.ndarray, float, np.ndarray]:
    """Optimal basic feasible solution of a standard-form LP and its duals.

    Returns (x, value, y): y.b = value, A^T y <= c and equality on the basic
    columns.  Both phases run on the one tableau [A | I | b], rows with b < 0
    negated; phase 2 never enters the artificial identity block, whose
    reduced costs are then minus the row-signed duals.  A redundant row is
    zeroed and keeps its artificial basic at zero: no ratio test picks it,
    and its dual is 0.  Raises LPInfeasibleError / LPUnboundedError, and
    LPError when x misses A x = b or y misses c on the basic columns.
    """
    nrows, ncols = lp.A.shape
    sign = np.where(lp.b < 0, -1.0, 1.0)
    tab = np.zeros((nrows + 1, ncols + nrows + 1))
    tab[:nrows, :ncols] = lp.A * sign[:, None]
    tab[:nrows, ncols:-1] = np.eye(nrows)
    tab[:nrows, -1] = lp.b * sign

    # phase 1: drive artificial variables out
    tab[-1] = -tab[:nrows].sum(axis=0)
    tab[-1, ncols:-1] = 0.0
    basis = np.arange(ncols, ncols + nrows)
    _simplex_phase(tab, basis, ncols)
    if -tab[-1, -1] > 1e-7 * max(1.0, float(np.abs(lp.b).max())):
        raise LPInfeasibleError(f"phase-1 objective {-tab[-1, -1]:.3e} > 0")

    # pivot out artificials still basic (at zero); rows with no pivot are redundant
    for row in range(nrows):
        if basis[row] >= ncols:
            entries = np.abs(tab[row, :ncols])
            j = int(np.argmax(entries))
            if entries[j] > LP_TOL:
                _pivot(tab, row, j)
                basis[row] = j
            else:
                tab[row, :ncols] = 0.0

    # phase 2: reduced costs for the true objective
    tab[-1] = 0.0
    tab[-1, :ncols] = lp.c
    for row, j in enumerate(basis):
        if j < ncols and lp.c[j] != 0.0:
            tab[-1] -= lp.c[j] * tab[row]
    _simplex_phase(tab, basis, ncols)

    x = np.zeros(ncols + nrows)
    x[basis] = tab[:nrows, -1]
    x = x[:ncols]
    x[x < 0] = 0.0  # clip pivot dust
    scale = max(1.0, float(np.abs(lp.A).max()))
    feas = float(np.max(np.abs(lp.A @ x - lp.b)))
    if feas > 1e-9 * max(scale, float(np.abs(lp.b).max())):
        raise LPError(f"primal feasibility residual {feas:.3e} too large")
    duals = -tab[-1, ncols:-1] * sign
    basic = basis[basis < ncols]
    miss = float(np.max(np.abs(lp.c[basic] - duals @ lp.A[:, basic]), initial=0.0))
    if miss > 1e-9 * max(scale, float(np.abs(lp.c).max())):
        raise LPError(f"dual residual {miss:.3e} on the basic columns too large")
    return x, float(lp.c @ x), duals


class _OccupationalColumns:
    """Implicit constraint columns of the occupational program.

    Column (i, j) carries weight w[i,j]: a 1 in the probability row, plus
    +v_j/(2h) in the flux row of node i+1 and -v_j/(2h) in the flux row of
    node i-1.  An optional extra row holds a second-stage face constraint.
    """

    def __init__(self, lt: LagrangianTable, cost: np.ndarray,
                 face_row: np.ndarray | None = None, face_rhs: float = 0.0):
        self.n = lt.grid.n
        self.m = lt.m
        self.vs = lt.vgrid
        self.scale = 1.0 / (2.0 * lt.grid.h)
        self.cost = cost
        self.face_row = face_row          # (n, m) coefficients or None
        self.face_rhs = face_rhs
        self.nrows = 1 + self.n + (1 if face_row is not None else 0)

    def rhs(self) -> np.ndarray:
        b = np.zeros(self.nrows)
        b[0] = 1.0
        if self.face_row is not None:
            b[-1] = self.face_rhs
        return b

    def matrix(self, cols_i: np.ndarray, cols_j: np.ndarray) -> np.ndarray:
        """The columns' constraint rows; a face row gets one more column, its slack."""
        slack = self.face_row is not None
        A = np.zeros((self.nrows, cols_i.size + slack))
        t = np.arange(cols_i.size)
        A[0, t] = 1.0
        coeff = self.vs[cols_j] * self.scale
        np.add.at(A, ((cols_i + 1) % self.n + 1, t), coeff)
        np.add.at(A, ((cols_i - 1) % self.n + 1, t), -coeff)
        if slack:
            A[-1, t] = self.face_row[cols_i, cols_j]
            A[-1, -1] = 1.0
        return A

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        yf = duals[1:1 + self.n]
        red = (self.cost - duals[0]
               - (np.roll(yf, -1) - np.roll(yf, 1))[:, None] * self.vs[None, :] * self.scale)
        if self.face_row is not None:
            red = red - duals[-1] * self.face_row
        return red


def _column_generation(cols: _OccupationalColumns, init_i: np.ndarray, init_j: np.ndarray):
    """Exact solve of the occupational LP through restricted masters.

    The master's columns are flat indices i*m + j in order of entry: the initial
    ones without repeats, then each round up to 64 of the most negative reduced costs.
    """
    flat_init = init_i * cols.m + init_j
    _, first = np.unique(flat_init, return_index=True)
    active = flat_init[np.sort(first)]
    normal = cols.cost[cols.cost < L_CLIP / 2]
    scale = max(1.0, float(np.abs(normal).max()) if normal.size else 1.0)
    for _ in range(500):
        ci, cj = np.divmod(active, cols.m)
        cost = cols.cost[ci, cj]
        if cols.face_row is not None:     # the face row's slack costs nothing
            cost = np.concatenate([cost, [0.0]])
        lp = LinearProgram(cost, cols.matrix(ci, cj), cols.rhs())
        x, value, duals = lp_simplex(lp)
        red = cols.reduced_costs(duals)
        red[ci, cj] = 0.0
        take = np.argsort(red, axis=None)[:64]
        new = take[red.flat[take] < -LP_TOL * scale]
        if new.size == 0:
            weights = np.zeros((cols.n, cols.m))
            weights[ci, cj] = x[:ci.size]
            return weights, value
        active = np.concatenate([active, new])
    raise LPError("column generation did not converge")


@dataclass
class OccupationalMeasure:
    """Optimal weights on lt's (node, velocity) pairs and their action integral."""

    lt: LagrangianTable = field(repr=False)    # the folded table the program was solved on
    weights: np.ndarray      # (n, m), nonnegative, sums to 1
    value: float             # optimal integral of min(lt.L, L_CLIP)

    def closedness_residual(self) -> float:
        flux = self.weights @ (self.lt.vgrid / (2.0 * self.lt.grid.h))
        res = np.roll(flux, -1) - np.roll(flux, 1)
        return float(np.max(np.abs(res)))

    def mean_velocity(self) -> float:
        return float((self.weights @ self.lt.vgrid).sum())

    def node_mass(self) -> np.ndarray:
        return self.weights.sum(axis=1)


def solve_occupational(lt: LagrangianTable) -> OccupationalMeasure:
    """Minimize the action integral of lt.L, clipped at L_CLIP, over discrete
    closed probability measures; fold a potential in with lt.with_potential."""
    cost = np.minimum(lt.L, L_CLIP)
    cols = _OccupationalColumns(lt, cost)
    n, m = lt.grid.n, lt.m
    j0 = int(np.argmin(np.abs(lt.vgrid)))    # v = 0 column per node: always feasible
    init_i = np.concatenate([np.arange(n), np.arange(n)])
    init_j = np.concatenate([np.full(n, j0, dtype=int), np.argmin(cost, axis=1)])
    weights, value = _column_generation(cols, init_i, init_j)
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise LPError(f"measure mass {total} deviates from 1")
    return OccupationalMeasure(lt, weights, value)


def extremal_integral(measure: OccupationalMeasure, f: Field, sense: str = "min") -> float:
    """Optimize the integral of f over the optimal face of the base program.

    The base objective is constrained to value + FACE_TOL through a slack
    variable, then sum_ij w[i,j] f(x_i) is minimized or maximized.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    sign = 1.0 if sense == "min" else -1.0
    lt = measure.lt
    fmat = np.broadcast_to(sign * f.values[:, None], lt.L.shape).copy()
    cols = _OccupationalColumns(lt, fmat, face_row=np.minimum(lt.L, L_CLIP),
                                face_rhs=measure.value + FACE_TOL)
    n = lt.grid.n
    j0 = int(np.argmin(np.abs(lt.vgrid)))
    sup_i, sup_j = np.nonzero(measure.weights > 0)
    init_i = np.concatenate([np.arange(n), sup_i])
    init_j = np.concatenate([np.full(n, j0, dtype=int), sup_j])
    _, value = _column_generation(cols, init_i, init_j)
    return float(sign * value)


@dataclass
class BarrierTable:
    """The drift-corrected barrier of one table, with the Aubry set read off its diagonal."""

    h: np.ndarray              # (n, n): normalized barrier from x to y
    c_used: float              # normalization constant after drift correction
    aubry_indices: np.ndarray  # nodes with h[y,y] <= AUBRY_TOL


def _minplus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The min-plus product min_z A[y, z] + B[z, x], clamped at BIG.

    With tables indexed [arrival, start], _minplus(A, B) is B's horizon
    followed by A's.  Rows go in chunks whose (rows, n, n) temporary is at
    most CHUNK_BYTES, and never less than one row.
    """
    n = A.shape[0]
    rows = max(1, CHUNK_BYTES // (8 * n * n))
    out = np.empty((n, n))
    for i in range(0, n, rows):
        np.min(A[i:i + rows, :, None] + B[None, :, :], axis=1, out=out[i:i + rows])
    return np.minimum(out, BIG, out=out)


def peierls_barrier(lt: LagrangianTable, c: float, t_list=(4.0, 8.0, 16.0)) -> BarrierTable:
    """Min-plus dynamic programming for the normalized minimal action.

    h_t(x, .) = T_t delta_x for every start node x at once: column x of the
    table H[y, x] is one function of the arrival node y, and the batch is
    stepped by the min-plus kernel on the cost L + c,

        H_{t+dt}[y, x] = min_j ( H_t[y - v_j dt, x] + dt (L[y,j] + c) ),

    seeded with 0 on the diagonal and BIG elsewhere, and clamped at BIG,
    with dt = min(0.02, SAFETY*h/vmax), vmax the largest |v| of the velocity
    grid, so a foot point spans at most SAFETY cells.  Each horizon t is
    N = round(t/dt) steps, but only the base block of B = min(round(BASE_T/dt),
    largest N) steps is stepped from the seed: a horizon N <= B is its
    stepped table, and a longer one N = q*B + r is the min-plus power H_B^q,
    stepped on by its remainder r.  The powers H_B^(2^i) are formed by
    repeated squaring with _minplus and shared by all horizons.  Neither
    undercuts stepping from the seed: the kernel's interpolation is a convex
    combination, so T(min_z g_z) <= min_z T(g_z), and T is monotone.  The
    barrier is the min over the horizon list of the drift-corrected tables;
    the Aubry set is the nodes y with h[y,y] <= AUBRY_TOL.
    """
    g = lt.grid
    t_list = tuple(sorted(float(t) for t in t_list))
    if len(t_list) < 1 or any(t <= 0 for t in t_list):
        raise ValueError("t_list must contain positive horizons")
    dt = min(0.02, SAFETY * g.h / float(np.abs(lt.vgrid).max()))
    stepper = MinPlusStepper(g, lt.vgrid, dt, np.minimum(lt.L, BIG) + c)

    def step(H):
        return np.minimum(stepper.step(H), BIG)

    snap_steps = sorted({max(1, int(round(t / dt))) for t in t_list})
    base = min(round(BASE_T / dt), snap_steps[-1])
    H0 = np.full((g.n, g.n), BIG)
    np.fill_diagonal(H0, 0.0)
    powers = [iterate(step, H0, dt, base).values]     # H_B^(2^i)
    while 2 ** len(powers) <= snap_steps[-1] // base:
        powers.append(_minplus(powers[-1], powers[-1]))
    snaps = []
    for N in snap_steps:
        q, r = divmod(N, base)
        H = None
        for i, power in enumerate(powers):
            if q >> i & 1:
                H = power if H is None else _minplus(power, H)
        if r:       # stepped on from the power, or from the seed
            H = iterate(step, H0 if H is None else H, dt, r).values
        snaps.append(H.T)

    # estimate the residual normalization drift from the diagonal minimum
    drift = 0.0
    if len(snaps) >= 2:
        d2 = float(np.diag(snaps[-1]).min())
        d1 = float(np.diag(snaps[-2]).min())
        drift = (d2 - d1) / (snap_steps[-1] * dt - snap_steps[-2] * dt)
    barrier = None
    for tgt, snap in zip(snap_steps, snaps):
        corrected = snap - drift * (tgt * dt)
        barrier = corrected if barrier is None else np.minimum(barrier, corrected)

    indices = np.nonzero(np.diag(barrier) <= AUBRY_TOL)[0]
    return BarrierTable(barrier, c - drift, indices)
