import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakkam import TorusGrid, builtin, legendre
from weakkam import critical as crit
from weakkam import mather
from weakkam.errors import ConvergenceError
from weakkam.expr import parse
from weakkam.grid import Field, constant_field, field_from_expr
from weakkam.hamiltonian import HamiltonianSpec, LagrangianTable
from weakkam.hamiltonian import frozen_values
from weakkam.semigroup import MinPlusStepper


def test_lp_simplex_trivial():
    lp = mather.LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0])
    x, value, _ = mather.lp_simplex(lp)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(x, [0.0, 1.0])


def test_lp_simplex_degenerate_face():
    lp = mather.LinearProgram([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    _, value, _ = mather.lp_simplex(lp)
    assert value == pytest.approx(-1.0, abs=1e-12)


def _enumerate_vertices(c, A, b):
    """Oracle: best objective over all basic feasible solutions."""
    m, n = A.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b)
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        best = min(best, float(c @ x))
    return best


def test_lp_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.normal(size=(3, 6))
        x_feas = rng.uniform(0.5, 1.5, 6)
        b = A @ x_feas          # feasible by construction
        c = rng.normal(size=6)
        # bound the feasible set so the LP cannot be unbounded
        A = np.vstack([A, np.ones(6)])
        b = np.concatenate([b, [x_feas.sum() + 1.0]])
        oracle = _enumerate_vertices(c, A, b)
        _, value, _ = mather.lp_simplex(mather.LinearProgram(c, A, b))
        assert value == pytest.approx(oracle, abs=1e-8)


def test_lp_simplex_infeasible_and_unbounded():
    with pytest.raises(mather.LPInfeasibleError):
        mather.lp_simplex(mather.LinearProgram(
            [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 3.0]))
    with pytest.raises(mather.LPUnboundedError):
        mather.lp_simplex(mather.LinearProgram(
            [-1.0, 0.0], [[1.0, -1.0]], [0.0]))


def test_empty_lp_is_refused_at_construction():
    # both used to reach lp_simplex and fail there with a bare numpy error
    with pytest.raises(ValueError, match=r"LP has no rows \(constraints\): A\(0, 2\)"):
        mather.LinearProgram([1.0, 2.0], np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match=r"LP has no columns \(variables\): A\(1, 0\)"):
        mather.LinearProgram([], np.zeros((1, 0)), [0.0])


def _random_lp(rng):
    """A feasible, bounded LP with a row of negative rhs, a duplicated row and a
    total-mass row that bounds the feasible set."""
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k + 3, 10))
    A = rng.normal(size=(k, n))
    x_feas = rng.uniform(0.5, 1.5, n) * (rng.uniform(size=n) < 0.7)
    if A[0] @ x_feas > 0:
        A[0] *= -1.0
    A = np.vstack([A, A[-1], np.ones(n)])
    return mather.LinearProgram(rng.normal(size=n), A, A @ x_feas)


def test_lp_simplex_duals():
    # strong duality, dual feasibility and complementary slackness
    rng = np.random.default_rng(15)
    for _ in range(200):
        lp = _random_lp(rng)
        x, value, y = mather.lp_simplex(lp)
        scale = max(1.0, float(np.abs(lp.c).max()), float(np.abs(lp.A).max()))
        assert lp.b[0] < 0
        assert lp.b @ y == pytest.approx(value, abs=1e-9 * scale)
        red = lp.c - lp.A.T @ y
        assert red.min() >= -1e-9 * scale
        assert np.all(np.abs(red[x > 0]) <= 1e-9 * scale)


@pytest.fixture(scope="module")
def g64():
    return TorusGrid(64)


def test_occupational_free(g64):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    assert meas.value == pytest.approx(0.0, abs=1e-10)
    # every optimal measure is supported on v = 0
    j0 = int(np.argmin(np.abs(lt.vgrid)))
    off = meas.weights.sum() - meas.weights[:, j0].sum()
    assert off <= 1e-9


def test_occupational_eikonal_atom(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    assert meas.value == pytest.approx(-1.0, abs=1e-9)
    mass = meas.node_mass()
    assert mass[0] == pytest.approx(1.0, abs=1e-9)


def test_occupational_shifted_momentum(g64):
    spec = HamiltonianSpec(G=parse("(p+0.7)^2"), W=parse("0"), dWu=parse("0"),
                           lambda_bound=0.0)
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    # oracle: minimize v^2/4 - 0.7 v over constant-velocity uniform measures
    grid_opt = float(np.min(lt.vgrid ** 2 / 4 - 0.7 * lt.vgrid))
    assert meas.value == pytest.approx(grid_opt, abs=1e-9)
    assert meas.value == pytest.approx(-0.49, abs=5e-3)
    assert meas.mean_velocity() == pytest.approx(1.4, abs=float(np.diff(lt.vgrid)[0]))


@pytest.mark.parametrize("G", ["(p + 0.7 + 0.3*sin(2*pi*x))^2", "(p + 0.7)^2 + cos(2*pi*x)"])
def test_column_generation_past_the_first_master(monkeypatch, G):
    linprog = pytest.importorskip("scipy.optimize").linprog
    masters = []
    solve = mather.lp_simplex

    def counted(lp):
        masters.append(lp)
        return solve(lp)

    monkeypatch.setattr(mather, "lp_simplex", counted)
    g = TorusGrid(32)
    spec = HamiltonianSpec(G=parse(G), W=parse("0"), dWu=parse("0"), lambda_bound=0.0)
    lt = legendre(spec, g, 33, 33)
    meas = mather.solve_occupational(lt)
    assert len(masters) > 1
    # the full program over all n*m weights: total mass 1, and for every node k the
    # flux w @ v of node k-1 equals that of node k+1 (closedness)
    n, m = lt.L.shape
    A = np.zeros((1 + n, n, m))
    A[0] = 1.0
    for k in range(n):
        A[1 + k, (k - 1) % n] += lt.vgrid
        A[1 + k, (k + 1) % n] -= lt.vgrid
    b = np.zeros(1 + n)
    b[0] = 1.0
    full = linprog(np.minimum(lt.L, mather.L_CLIP).ravel(), A_eq=A.reshape(1 + n, n * m),
                   b_eq=b, bounds=(0, None), method="highs")
    assert full.status == 0
    assert meas.value == pytest.approx(full.fun, abs=1e-9)


def test_measure_invariants(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    assert np.all(meas.weights >= 0)
    assert meas.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert meas.closedness_residual() <= 1e-7


def test_extremal_constant_forced(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    f = constant_field(g64, 0.8)
    assert mather.extremal_integral(meas, f, "min") == pytest.approx(0.8, abs=1e-9)
    assert mather.extremal_integral(meas, f, "max") == pytest.approx(0.8, abs=1e-9)


def test_extremal_eikonal_atom_value(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    f = field_from_expr(g64, parse("0.5 - cos(2*pi*x)^2"))
    lo = mather.extremal_integral(meas, f, "min")
    hi = mather.extremal_integral(meas, f, "max")
    # unique atom at x = 0; the face relaxation permits O(FACE_TOL) drift
    assert lo == pytest.approx(-0.5, abs=1e-4)
    assert hi == pytest.approx(-0.5, abs=1e-4)
    assert lo <= hi + 1e-12


def test_extremal_example_instance(example_setup):
    spec, lt, um = example_setup["spec"], example_setup["lt"], example_setup["u_minus"]
    g = example_setup["grid"]
    meas = mather.solve_occupational(lt.with_potential(frozen_values(spec.W, g.nodes, um.values)))
    assert meas.value == pytest.approx(0.0, abs=5e-3)
    f = Field(g, np.asarray(spec.dWu.evaluate({"x": g.nodes, "u": um.values})))
    lo = mather.extremal_integral(meas, f, "min")
    hi = mather.extremal_integral(meas, f, "max")
    # atoms sit where the derivative of the stationary solution vanishes
    assert lo == pytest.approx(0.5, abs=5e-3)
    assert hi == pytest.approx(0.5, abs=5e-3)


def test_extremal_parameter_validation(g64):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    f = constant_field(g64, 1.0)
    with pytest.raises(ValueError, match="sense"):
        mather.extremal_integral(meas, f, "median")


def test_extremal_min_le_max_random(g64):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    rng = np.random.default_rng(13)
    for _ in range(3):
        f = Field(g64, rng.normal(size=g64.n))
        lo = mather.extremal_integral(meas, f, "min")
        hi = mather.extremal_integral(meas, f, "max")
        assert lo <= hi + 1e-9


def test_lp_value_matches_critical_value(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g64, 33, 33)
    meas = mather.solve_occupational(lt)
    res = crit.critical_value(lt)
    assert abs(meas.value + res.c) <= max(2 * 2e-2, 1e-2)


def test_barrier_free_case(g64):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g64, 33, 33)
    bt = mather.peierls_barrier(lt)
    # cost of slow travel vanishes in the long-horizon limit
    assert np.abs(bt.h).max() <= 5e-2
    assert bt.aubry_indices.size == g64.n


@pytest.fixture(scope="module")
def normalized_eikonal_barrier(g64):
    spec = builtin("eikonal", {"V": "cos(2*pi*x) - 1"})
    lt = legendre(spec, g64, 33, 33)
    return mather.peierls_barrier(lt), lt


def test_barrier_diagonal_positive_off_aubry(normalized_eikonal_barrier, g64):
    bt, _ = normalized_eikonal_barrier
    d = np.diag(bt.h)
    assert d.min() >= -1e-6
    assert d[0] <= 1e-6                      # the node at the potential maximum
    far = np.arange(g64.n)[np.abs(np.minimum(np.arange(g64.n),
                                             g64.n - np.arange(g64.n))) > 4]
    assert np.all(d[far] > 1e-2)


def test_barrier_triangle_inequality(normalized_eikonal_barrier):
    bt, _ = normalized_eikonal_barrier
    h = bt.h
    rng = np.random.default_rng(14)
    n = h.shape[0]
    for _ in range(300):
        x, y, z = rng.integers(0, n, 3)
        assert h[x, z] <= h[x, y] + h[y, z] + 1e-6


def test_barrier_semigroup_property(normalized_eikonal_barrier):
    # the barrier is at rest: h (x) h = h to rounding
    bt, _ = normalized_eikonal_barrier
    h = bt.h
    composed = np.min(h[:, :, None] + h[None, :, :], axis=1)
    assert np.max(np.abs(composed - h)) <= 1e-12 * (1.0 + np.abs(h).max())


def test_barrier_matches_closed_form():
    # p^2 + cos(2 pi x) at its critical value c = max V = 1 has the Aubry set {0} and the
    # barrier h(x, y) = d(x) + d(y), with d(x) = (sqrt(2)/pi)(1 - |cos(pi x)|) the
    # distance to 0 in the metric sqrt(1 - cos(2 pi x))|dx|; the error is first order
    # in h (2.115e-2 at n = 64, 1.122e-2 at n = 128 with m = 49, where vmax*dt is 4
    # cells); where vmax*dt is not a whole number of cells (2.56 at n = 32, vmax = 4;
    # 3.84 at n = 64, vmax = 3) it was 3.56e-2 and 2.51e-2 (0.225 and 0.214 from a
    # seed of 0 on the diagonal and 1e6 elsewhere)
    errors = []
    for n, vmax, bound in ((32, 4, 4e-2), (64, 3, 4e-2), (64, 4, 2.5e-2), (128, 4, 1.3e-2)):
        g = TorusGrid(n)
        lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)", "vmax": vmax}), g, 49, 49)
        bt = mather.peierls_barrier(lt)
        d = np.sqrt(2.0) / np.pi * (1.0 - np.abs(np.cos(np.pi * g.nodes)))
        errors.append(float(np.max(np.abs(bt.h - (d[:, None] + d[None, :])))))
        assert errors[-1] <= bound
        assert 0 in bt.aubry_indices
        # the barrier's own critical value: resting at the node x = 0 costs -max V = -1
        assert abs(bt.c_used - 1.0) <= 1e-12
    assert errors[3] <= 0.6 * errors[2]


def test_barrier_first_table_is_the_stepped_cone_seed(monkeypatch):
    # the table first squared is the cone K d(x, y) stepped round(BASE_T/dt) times on
    # L, K = 2 min over v != 0 of max_x (L(x, v) - min L)/|v|
    lt = _cos_table(24, 0.7, 0.3)
    g, vs = lt.grid, lt.vgrid
    K = 2.0 * min(max((lt.L[:, j] - lt.L.min()) / abs(vs[j])) for j in range(vs.size)
                  if vs[j] != 0)
    dist = np.array([[min(abs(y - x), g.n - abs(y - x)) for x in range(g.n)]
                     for y in range(g.n)])
    dt = min(0.02, mather.SAFETY * g.h / float(np.abs(vs).max()))
    stepper = MinPlusStepper(g, vs, dt, lt.L)
    H = K * g.h * dist
    for _ in range(round(mather.BASE_T / dt)):
        H = stepper.step(H)
    first = []
    minplus = mather._minplus
    monkeypatch.setattr(mather, "_minplus", lambda A, B: first.append(A) or minplus(A, B))
    mather.peierls_barrier(lt)
    assert np.array_equal(first[0], H)


def test_barrier_squarings_cap_raises(g64, monkeypatch):
    # cos at n = 64 rests at its third squaring
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g64, 33, 33)
    for cap in (1, 2):
        monkeypatch.setattr(mather, "MAX_SQUARINGS", cap)
        with pytest.raises(ConvergenceError, match=f"did not rest in {cap} squarings") as err:
            mather.peierls_barrier(lt)
        assert err.value.residual > 1e-12
    monkeypatch.setattr(mather, "MAX_SQUARINGS", 3)
    mather.peierls_barrier(lt)


def _assert_shift_invariant(lt, bt):
    # L + s has the barrier of L, to rounding, and the critical value c - s
    for s in (-0.5, 0.3):
        shifted = mather.peierls_barrier(LagrangianTable(lt.grid, lt.vgrid, lt.L + s))
        assert np.max(np.abs(shifted.h - bt.h)) <= 1e-12 * (1.0 + np.abs(bt.h).max())
        assert abs(shifted.c_used - (bt.c_used - s)) <= 1e-12


def test_barrier_doubled_cone_is_equal_on_aligned_grids(monkeypatch):
    # vmax*dt is 4 cells at n = 64 and 128 (vmax = 4): the seed's slope K does not matter
    seed = mather._cone_seed
    for n in (64, 128):
        lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), TorusGrid(n), 49, 49)
        monkeypatch.setattr(mather, "_cone_seed", seed)
        bt = mather.peierls_barrier(lt)
        _assert_shift_invariant(lt, bt)
        monkeypatch.setattr(mather, "_cone_seed", lambda lt: 2.0 * seed(lt))
        assert np.max(np.abs(mather.peierls_barrier(lt).h - bt.h)) <= 1e-12


def _cos_table(n, amp, phase):
    # p^2 + amp*cos(2 pi (x - phase)) has critical value amp
    spec = builtin("eikonal", {"V": f"{amp:.6f}*cos(2*pi*(x - {phase:.6f}))"})
    return legendre(spec, TorusGrid(n), 17, 17)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 32), amp=st.floats(0.1, 2.0), phase=st.floats(0.0, 1.0))
def test_barrier_random_tables_rest_and_doubled_cone_within_scheme_error(n, amp, phase):
    # every table rests within MAX_SQUARINGS (at most 13 squarings over 300 random
    # tables), a shift of L by a constant moves only its critical value, and doubling
    # the cone's slope K moves the barrier by at most h, the scheme's first-order error
    # (at most 0.65h there)
    lt = _cos_table(n, amp, phase)
    bt = mather.peierls_barrier(lt)
    h = bt.h
    composed = np.min(h[:, :, None] + h[None, :, :], axis=1)
    assert np.max(np.abs(composed - h)) <= 1e-12 * (1.0 + np.abs(h).max())
    seed = mather._cone_seed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mather, "_cone_seed", lambda lt: 2.0 * seed(lt))
        doubled = mather.peierls_barrier(lt).h
    assert np.max(np.abs(doubled - h)) <= lt.grid.h
    _assert_shift_invariant(lt, bt)


def test_aubry_set_window(normalized_eikonal_barrier, g64):
    bt, _ = normalized_eikonal_barrier
    nodes = bt.aubry_indices
    assert 0 in nodes
    dist = np.minimum(nodes, g64.n - nodes)
    assert np.all(dist <= 4)


def test_aubry_example_instance(example_setup):
    spec, lt, um = example_setup["spec"], example_setup["lt"], example_setup["u_minus"]
    g = example_setup["grid"]
    pot = frozen_values(spec.W, g.nodes, um.values)
    bt = mather.peierls_barrier(lt.with_potential(pot))
    nodes = bt.aubry_indices
    quarter, three_quarter = g.n // 4, 3 * g.n // 4
    dist = np.minimum(np.abs(nodes - quarter), np.abs(nodes - three_quarter))
    assert np.all(dist <= 4)
    assert quarter in nodes and three_quarter in nodes


def test_mather_support_in_aubry_set(example_setup):
    spec, lt, um = example_setup["spec"], example_setup["lt"], example_setup["u_minus"]
    pot = frozen_values(spec.W, um.grid.nodes, um.values)
    meas = mather.solve_occupational(lt.with_potential(pot))
    bt = mather.peierls_barrier(lt.with_potential(pot))
    nodes = bt.aubry_indices
    mass = meas.node_mass()
    support = np.nonzero(mass > 1e-6)[0]
    n = example_setup["grid"].n
    for i in support:
        dist = np.min(np.minimum(np.abs(nodes - i), n - np.abs(nodes - i)))
        assert dist <= 1


def test_barrier_nan_cost_raises_at_first_step(g64):
    lt = legendre(builtin("eikonal", {"V": 0}), g64, 33, 33)
    L = lt.L.copy()
    L[5, 3] = np.nan
    bad = LagrangianTable(lt.grid, lt.vgrid, L)
    with pytest.raises(ValueError, match="nonfinite values at step 1 "):
        mather.peierls_barrier(bad)
