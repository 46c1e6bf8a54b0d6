import itertools
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from weakkam.errors import ConfigError, ConvergenceError
from weakkam.expr import parse
from weakkam.grid import TorusGrid
from weakkam.hamiltonian import LagrangianTable
from weakkam import critical as crit
from weakkam import homogenize as hz
from weakkam import semigroup
from weakkam.semigroup import CFLError, iterate


def make_problem(b=0.5):
    return hz.HomogProblem(H=parse(f"u + p^2 + {b}*cos(2*pi*y)"),
                           dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)


def oracle_effective(p, b=0.5):
    """Quadrature + root-find: E with integral of sqrt(E - b cos) equal to |p|."""
    p_crit = quad(lambda y: np.sqrt(b - b * np.cos(2 * np.pi * y)), 0, 1)[0]
    if abs(p) <= p_crit:
        return b
    fn = lambda E: quad(lambda y: np.sqrt(E - b * np.cos(2 * np.pi * y)), 0, 1)[0] - abs(p)
    return brentq(fn, b, b + p * p + 2 * abs(p) + 1)


def test_validate_rejects_bad_windows():
    with pytest.raises(ConfigError):
        hz.validate_problem(hz.HomogProblem(parse("u+p^2"), parse("1"), -1.0, 1.0))
    with pytest.raises(ConfigError, match="dH/du"):
        hz.validate_problem(hz.HomogProblem(parse("2*u+p^2"), parse("2"), 1.0, 1.5))
    with pytest.raises(ConfigError, match="convexity"):
        hz.validate_problem(hz.HomogProblem(parse("u-p^2"), parse("1"), 1.0, 1.0))


def test_validate_rejects_dHu_that_is_not_dH_du():
    # dH/du = 3 sits outside the declared window, which the stationary solves rely on
    with pytest.raises(ConfigError, match=r"dHu = 1 is not dH/du.*at \(x=.*, y=.*, p=.*, u="):
        hz.validate_problem(hz.HomogProblem(parse("3*u + p^2 + 0.5*cos(2*pi*y)"),
                                            parse("1"), 1.0, 1.0))
    # nonlinear in u: the central difference agrees to its truncation error
    hz.validate_problem(hz.HomogProblem(parse("u + 0.1*sin(u)*cos(2*pi*y) + p^2"),
                                        parse("1 + 0.1*cos(u)*cos(2*pi*y)"), 0.8, 1.2))


def test_cell_problem_no_oscillation():
    hp = make_problem(b=0.0)
    for (x, p, c) in [(0.0, 0.0, 0.0), (0.3, 1.0, 0.5), (0.0, -2.0, -1.0)]:
        val = hz.cell_problem(hp, x, p, c)
        assert val == pytest.approx(c + p * p, abs=5e-3)


def test_cell_problem_flat_part():
    hp = make_problem()
    assert hz.cell_problem(hp, 0.0, 0.0, 0.0) == pytest.approx(0.5, abs=5e-3)
    assert hz.cell_problem(hp, 0.0, 0.0, 1.0) == pytest.approx(1.5, abs=5e-3)


def test_cell_problem_quadrature_oracle():
    hp = make_problem()
    for p in (1.0, 2.0):
        val = hz.cell_problem(hp, 0.0, p, 0.0)
        assert val == pytest.approx(oracle_effective(p), abs=2e-2)


def test_cell_problems_read_the_slow_variable():
    # H depends on x only through 0.2*cos(2 pi x), which shifts each cell's value by it
    hp = hz.HomogProblem(H=parse("u + p^2 + 0.5*cos(2*pi*y) + 0.2*cos(2*pi*x)"),
                         dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    xs = np.array([0.0, 0.25, 0.5])
    et = hz.build_effective_table(hp, xs, [0.0, 0.5], [0.0], n_fast=16, m=17)
    shift = 0.2 * (np.cos(2 * np.pi * xs) - 1.0)
    assert np.allclose(et.values - et.values[0], shift[:, None, None], rtol=0, atol=1e-6)


def test_cell_problem_rejects_nonfinite():
    hp = make_problem()
    with pytest.raises(ValueError):
        hz.cell_problem(hp, np.inf, 0.0, 0.0)


X_DEPENDENT = "u + p^2 + 0.5*cos(2*pi*y) + 0.2*cos(2*pi*x)"


def test_vectorized_cell_problem_is_its_scalar_calls():
    # the 12 cells have 4 (x, c) pairs; a cell's cost is its pair's Legendre table minus p*v
    hp = hz.HomogProblem(H=parse(X_DEPENDENT), dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    xs, ps, cs = np.array([0.0, 0.25]), np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.5])
    values = hz.cell_problem(hp, xs[:, None, None], ps[None, :, None], cs[None, None, :],
                             n_fast=16, m=17)
    assert values.shape == (2, 3, 2)
    for (i, j, kk), value in np.ndenumerate(values):
        alone = hz.cell_problem(hp, xs[i], ps[j], cs[kk], n_fast=16, m=17)
        assert isinstance(alone, float) and value == alone


def test_cell_problem_disagreement_names_the_first_failing_cell(monkeypatch):
    # cells 3 and 5 of the row-major order disagree; the error names cell 3
    solve = crit.critical_values

    def two_disagree(tables, **kwargs):
        results = solve(tables, **kwargs)
        for cell in (3, 5):
            results[cell].method = "discount"
            results[cell].diagnostics["gap"] = 0.125 * cell
        return results

    monkeypatch.setattr(crit, "critical_values", two_disagree)
    hp = make_problem()
    with pytest.raises(ConvergenceError,
                       match=r"^cell problem at \(x=0, p=0, c=0\.5\): discount and "
                             r"long-time estimators disagree: certified gap 0\.375 "
                             r"exceeds cross_tol 0\.02$") as err:
        hz.cell_problem(hp, 0.0, np.array([-1.0, 0.0, 1.0])[:, None], np.array([0.0, 0.5]),
                        n_fast=16, m=17)
    assert err.value.residual == 0.375


def _counting_conjugate_table(monkeypatch):
    calls = []
    table = hz.conjugate_table

    def counted(*args, **kwargs):
        calls.append(len(next(iter(args[1].values()))))
        return table(*args, **kwargs)

    monkeypatch.setattr(hz, "conjugate_table", counted)
    return calls


def _shifted(text, p):
    """The formula text with p replaced by p0 + p: H(x, y, p0 + q, u) as a formula in q."""
    return parse(re.sub(r"\bp\b", f"(({p!r}) + p)", text))


@pytest.mark.parametrize("text", ["u + p^2 + 0.5*cos(2*pi*y)", X_DEPENDENT])
def test_cell_lagrangian_is_its_pair_table_minus_p_v(text, monkeypatch):
    # sup_q (q v - H(p + q)) = sup_P (P v - H(P)) - p v: each cell's table, its (x, c)
    # pair's table minus p*v, is the table of q -> H(x, y, p + q, c) over the window
    # pmax + |p| up to rounding, and so are the cells' critical values
    hp = hz.HomogProblem(H=parse(text), dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    g = TorusGrid(16)
    cells = list(itertools.product((0.0, 0.25), (-1.0, 0.0, 1.5), (0.0, 0.5)))
    shifted = []
    for x, p, c in cells:
        rows = {"x": np.full(g.n, x), "y": g.nodes, "u": np.full(g.n, c)}
        vs, L = hz.conjugate_table(_shifted(text, p), rows, 17, 17, hp.vmax, hp.pmax + abs(p))
        shifted.append(LagrangianTable(g, vs, L))
    solve, given = crit.critical_values, []

    def recorded(tables, **kwargs):
        given.extend(tables)
        return solve(tables, **kwargs)

    monkeypatch.setattr(crit, "critical_values", recorded)
    x, p, c = np.array(cells).T
    values = hz.cell_problem(hp, x, p, c, n_fast=16, m=17)
    for cell, old in zip(given, shifted, strict=True):
        assert np.array_equal(cell.vgrid, old.vgrid)
        assert np.max(np.abs(cell.L - old.L)) <= 1e-12
    expected = [res.c for res in solve(shifted, dt=min(hz.CELL_DT, 0.5 / hp.vmax))]
    assert np.max(np.abs(values - expected)) <= 1e-12


def test_effective_table_builds_one_legendre_table_per_x_c_pair(monkeypatch):
    hp = hz.HomogProblem(H=parse(X_DEPENDENT), dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    calls = _counting_conjugate_table(monkeypatch)
    hz.build_effective_table(hp, [0.0, 0.25, 0.5], [-1.0, 0.0, 1.0], [0.0, 0.5],
                             n_fast=16, m=17)
    assert calls == [3 * 2 * 16]


def test_cell_problem_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="empty batch of cells"):
        hz.cell_problem(make_problem(), [], [], [])


def test_multiscale_ladder_builds_a_table_once_per_bitwise_period(monkeypatch):
    hp = make_problem()
    single = {e: hz.solve_multiscale(hp, [e], n_per_period=16)[0]
              for e in (1 / 2, 1 / 3, 1 / 8, 1 / 16, 1 / 32)}
    calls = _counting_conjugate_table(monkeypatch)
    ladder = [1 / 8, 1 / 16, 1 / 32]
    for e, ue in zip(ladder, hz.solve_multiscale(hp, ladder, n_per_period=16)):
        assert np.array_equal(ue.values, single[e].values)
    assert calls == [16 * hz.N_ULEVELS]
    # at eps = 1/3 the first period's fast coordinates differ from 1/2's in rounding
    ys = [np.mod(TorusGrid(k * 16).nodes * k, 1.0)[:16] for k in (2, 3)]
    assert ys[0].tobytes() != ys[1].tobytes()
    calls.clear()
    for e, ue in zip((1 / 2, 1 / 3), hz.solve_multiscale(hp, (1 / 2, 1 / 3), n_per_period=16)):
        assert np.array_equal(ue.values, single[e].values)
    assert len(calls) == 2


def test_multiscale_ladder_of_an_x_dependent_problem_builds_every_table(monkeypatch):
    hp = hz.HomogProblem(H=parse(X_DEPENDENT), dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    single = [hz.solve_multiscale(hp, [e], n_per_period=8)[0] for e in (1 / 2, 1 / 4)]
    calls = _counting_conjugate_table(monkeypatch)
    ladder = hz.solve_multiscale(hp, [1 / 2, 1 / 4], n_per_period=8)
    assert calls == [16 * hz.N_ULEVELS, 32 * hz.N_ULEVELS]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(ladder, single))


@pytest.fixture(scope="module")
def small_table():
    hp = make_problem()
    return hp, hz.build_effective_table(
        hp, [0.0], np.linspace(-2, 2, 9), np.linspace(-1.2, 1.2, 5))


def test_table_invariants(small_table):
    hp, et = small_table
    # monotone in c at rate Lambda1
    dc = np.diff(et.c_nodes)
    steps = np.diff(et.values, axis=2)
    assert np.all(steps >= hp.Lambda1 * dc[None, None, :] - 5e-2)
    # convex along p
    mid = et.values[:, 1:-1, :]
    avg = (et.values[:, :-2, :] + et.values[:, 2:, :]) / 2
    assert np.all(mid <= avg + 5e-2)


def test_table_spot_oracle(small_table):
    hp, et = small_table
    rng = np.random.default_rng(15)
    for _ in range(3):
        j = rng.integers(0, et.p_nodes.size)
        kk = rng.integers(0, et.c_nodes.size)
        p, c = float(et.p_nodes[j]), float(et.c_nodes[kk])
        assert et.values[0, j, kk] == pytest.approx(c + oracle_effective(p), abs=2e-2)


def _synthetic_table(fn, p_nodes, c_nodes, x_nodes=(0.0,)):
    xn = np.asarray(x_nodes)
    pn = np.asarray(p_nodes)
    cn = np.asarray(c_nodes)
    vals = np.empty((xn.size, pn.size, cn.size))
    for i, x in enumerate(xn):
        for j, p in enumerate(pn):
            for kk, c in enumerate(cn):
                vals[i, j, kk] = fn(x, p, c)
    return hz.EffectiveTable(xn, pn, cn, vals, 1.0)


def test_solve_effective_trivial_quadratic():
    et = _synthetic_table(lambda x, p, c: c + p * p,
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5))
    ubar = hz.solve_effective(et, n_slow=64)
    assert np.max(np.abs(ubar.values)) <= 2e-2


def test_solve_effective_flat_oscillatory():
    et = _synthetic_table(lambda x, p, c: c + oracle_effective(p),
                          np.linspace(-2, 2, 17), np.linspace(-1.2, 1.2, 5))
    ubar = hz.solve_effective(et, n_slow=64)
    assert np.allclose(ubar.values, -0.5, rtol=0, atol=2e-2)


def test_solve_effective_potential_bracket():
    et = _synthetic_table(lambda x, p, c: c + p * p + 0.3 * np.cos(2 * np.pi * x),
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5),
                          x_nodes=np.linspace(0, 1, 16, endpoint=False))
    ubar = hz.solve_effective(et, n_slow=64)
    # comparison with constant sub/supersolutions: |ubar| <= max|V|/Lambda1
    assert np.all(np.abs(ubar.values) <= 0.3 + 5e-2)


@pytest.mark.parametrize("x_nodes", [(0.0,), np.linspace(0, 1, 16, endpoint=False)])
def test_solve_effective_newton_matches_the_march(monkeypatch, x_nodes):
    # Lambda1 = 1: the march stopped at residual EFFECTIVE_TOL lies within EFFECTIVE_TOL
    # of the fixed point, which Newton returns; MARCH_TO = 0 makes fixed_point a pure march
    et = _synthetic_table(lambda x, p, c: c + p * p + 0.3 * np.cos(2 * np.pi * x),
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5), x_nodes=x_nodes)
    newton = hz.solve_effective(et, n_slow=64)
    monkeypatch.setattr(semigroup, "MARCH_TO", 0.0)
    march = hz.solve_effective(et, n_slow=64)
    assert np.abs(newton.values - march.values).max() <= hz.EFFECTIVE_TOL


def test_effective_newton_iterate_outside_the_level_range_raises():
    # Hbar = c + p^2 + 0.5 again, on the c-range [-0.45, 0.2]: the march hands over at
    # u ~ -0.4, inside it, and Newton's first iterate is the solution -0.5, outside it
    p_nodes = np.linspace(-2.0, 2.0, 9)
    c_nodes = np.linspace(-0.45, 0.2, 5)
    values = c_nodes[None, None, :] + p_nodes[None, :, None] ** 2 + 0.5
    et = hz.EffectiveTable(np.array([0.0]), p_nodes, c_nodes, values, 1.0)
    with pytest.raises(ConvergenceError,
                       match=r"effective stationary solve left the u-level range "
                             r"\[-0.45, 0.2\] at Newton iteration 1, at 32 of 32 nodes"):
        hz.solve_effective(et, n_slow=32)


def test_level_table_fallback_is_the_pure_march(monkeypatch):
    # MAX_NEWTON = 0 ends Newton at the handover: the solve's record is iterate's from its
    # own start, field for field, though the march prefix handed over well before tol
    records, solve = [], hz.fixed_point

    def spy(kernel, correct, slope, u0, tol, max_steps, guard=None):
        rec = solve(kernel, correct, slope, u0, tol, max_steps, guard=guard)

        def step(u):
            return correct(kernel.step(u), u)

        dt = kernel.dt
        prefix = iterate(step, u0, dt, max_steps, semigroup.MARCH_TO)
        records.append((rec, iterate(step, u0, dt, max_steps, tol), prefix))
        return rec

    monkeypatch.setattr(semigroup, "MAX_NEWTON", 0)
    monkeypatch.setattr(hz, "fixed_point", spy)
    et = _synthetic_table(lambda x, p, c: c + p * p + 0.3 * np.cos(2 * np.pi * x),
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5),
                          x_nodes=np.linspace(0, 1, 16, endpoint=False))
    u = hz.solve_effective(et, n_slow=64)
    [(rec, ref, prefix)] = records
    assert np.array_equal(rec.values, ref.values) and np.array_equal(u.values, ref.values)
    assert (rec.steps, rec.residual, rec.converged, rec.newton) == (
        ref.steps, ref.residual, True, 0)
    assert prefix.converged and prefix.steps < ref.steps


def test_effective_solve_takes_newton_from_its_start(monkeypatch):
    # the homog-cells table: d = -dt*dL_pi/du > 0 at every node, so Newton starts at
    # u0 with no march and lands where the march-first solve does (the same solve with
    # d read as 0 at u0, which refuses Newton there)
    hp = make_problem()
    span = hz._default_c_span(hp)
    et = hz.build_effective_table(hp, [0.0], np.linspace(-2, 2, 9),
                                  np.linspace(-span, span, 3))
    records, solve = [], hz.fixed_point

    def spy(kernel, correct, derivative, u0, tol, max_steps, guard=None):
        calls = []

        def march_first(base, u, policy):
            gain, d = derivative(base, u, policy)
            calls.append(d)
            return gain, 0.0 * d if len(calls) == 1 else d

        records.append(solve(kernel, correct, derivative, u0, tol, max_steps, guard=guard))
        records.append(solve(kernel, correct, march_first, u0, tol, max_steps, guard=guard))
        assert np.all(calls[0] > 0)
        return records[0]

    monkeypatch.setattr(hz, "fixed_point", spy)
    u = hz.solve_effective(et)
    first, marched = records
    assert (first.steps, first.converged) == (0, True) and first.newton >= 1
    assert marched.converged and marched.steps > 0 and marched.newton >= 1
    assert np.array_equal(u.values, first.values)
    assert np.abs(first.values - marched.values).max() <= 1e-12


def test_level_table_stall_reports_its_residual(monkeypatch):
    # MAX_NEWTON = 0 fails Newton from u0 at once; 10 steps of 5e-3 then leave the
    # residual above MARCH_TO: no Newton stage after the march, a missed tol
    monkeypatch.setattr(semigroup, "MAX_NEWTON", 0)
    monkeypatch.setattr(hz, "T_MAX", 0.05)
    et = _synthetic_table(lambda x, p, c: c + p * p + 0.3 * np.cos(2 * np.pi * x),
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5))
    with pytest.raises(ConvergenceError,
                       match=r"^effective stationary solve stopped at residual \S+ after 10 "
                             r"steps and 0 Newton iterations, above tol 1e-06$") as err:
        hz.solve_effective(et, n_slow=64)
    assert err.value.residual > semigroup.MARCH_TO


def test_solve_multiscale_no_fast_scale():
    hp = make_problem(b=0.0)
    ue = hz.solve_multiscale(hp, [1 / 8], n_per_period=16)[0]
    assert np.max(np.abs(ue.values)) <= 1e-3   # exact solution is 0


def test_solve_multiscale_bracket_and_ladder():
    hp = make_problem()
    u8 = hz.solve_multiscale(hp, [1 / 8], n_per_period=16)[0]
    assert np.all(u8.values <= 0 + 1e-6)
    assert np.all(u8.values >= -1 - 1e-6)
    u32 = hz.solve_multiscale(hp, [1 / 32], n_per_period=16)[0]
    err8 = np.max(np.abs(u8.values + 0.5))
    err32 = np.max(np.abs(u32.values + 0.5))
    assert err32 < err8   # monotone error decrease along the ladder


def test_solve_multiscale_x_dependent_branch_consistency():
    # the same function routed through both tabulation branches must agree
    hp_fast = make_problem()                      # no x in the formula
    hp_slow = hz.HomogProblem(H=parse("0*x + u + p^2 + 0.5*cos(2*pi*y)"),
                              dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    assert hp_fast.x_independent() and not hp_slow.x_independent()
    u_fast = hz.solve_multiscale(hp_fast, [1 / 8], n_per_period=16)[0]
    u_slow = hz.solve_multiscale(hp_slow, [1 / 8], n_per_period=16)[0]
    assert np.array_equal(u_fast.values, u_slow.values)


def test_solve_multiscale_x_dependent_bracket():
    hp = hz.HomogProblem(
        H=parse("u + p^2 + 0.25*cos(2*pi*x) + 0.5*cos(2*pi*y)"),
        dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
    ue = hz.solve_multiscale(hp, [1 / 8], n_per_period=16)[0]
    # comparison with constants: |u| <= max |H(x,y,0,0)| / Lambda1
    assert np.all(np.abs(ue.values) <= 0.75 + 1e-6)


def test_solve_multiscale_validates_eps():
    hp = make_problem()
    with pytest.raises(ValueError, match="reciprocal"):
        hz.solve_multiscale(hp, [0.3])


def test_rate_experiment_small_ladder(small_table):
    hp, et = small_table
    res = hz.rate_experiment(hp, eps_list=(1 / 4, 1 / 8, 1 / 16),
                             n_per_period=16, table=et, n_slow=64)
    eps_sorted = sorted(res.errors)
    errs = [res.errors[e] for e in eps_sorted]
    assert errs == sorted(errs)          # smaller eps, smaller error
    assert res.slope is not None and res.slope >= 0.4
    assert res.C_fit == pytest.approx(max(res.errors[e] / np.sqrt(e)
                                          for e in res.errors))


def test_rate_experiment_noise_floor():
    hp = make_problem(b=0.0)
    et = _synthetic_table(lambda x, p, c: c + p * p,
                          np.linspace(-2, 2, 17), np.linspace(-1, 1, 5))
    res = hz.rate_experiment(hp, eps_list=(1 / 4, 1 / 8), n_per_period=16,
                             table=et, n_slow=64)
    assert res.slope is None             # errors at the scheme-noise level
    assert all(err <= 1e-3 for err in res.errors.values())


def test_problem_from_config_roundtrip():
    hp = hz.problem_from_config({"H": "u + p^2 + 0.5*cos(2*pi*y)", "dHu": "1",
                                 "Lambda1": 1.0, "Lambda2": 1.0})
    assert hp.x_independent()
    with pytest.raises(ConfigError):
        hz.problem_from_config({"H": "u + p^2"})
    with pytest.raises(ConfigError, match="homog must be an object"):
        hz.problem_from_config("u + p^2")


def test_effective_solve_outside_the_level_range_raises():
    # Hbar = c + p^2 + 0.5 has the solution u = -0.5, below the c-range [-0.2, 0.2]
    # on which the table was read; the solve stops at the first iterate below it
    p_nodes = np.linspace(-2.0, 2.0, 9)
    c_nodes = np.linspace(-0.2, 0.2, 5)
    values = c_nodes[None, None, :] + p_nodes[None, :, None] ** 2 + 0.5
    et = hz.EffectiveTable(np.array([0.0]), p_nodes, c_nodes, values, 1.0)
    with pytest.raises(ConvergenceError,
                       match=r"effective stationary solve left the u-level range "
                             r"\[-0.2, 0.2\] at step 102, at 32 of 32 nodes"):
        hz.solve_effective(et, n_slow=32)


def _no_steps(*args, **kwargs):
    raise AssertionError("the level-table solve stepped before its checks")


def test_level_table_solve_needs_two_levels(monkeypatch):
    monkeypatch.setattr(hz, "fixed_point", _no_steps)
    g = TorusGrid(16)
    vs = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="needs at least 2 u-levels, got 1"):
        hz._level_table_fixed_point(g, vs, np.array([0.0]), np.zeros((g.n, 1, vs.size)),
                                    1e-2, 1.0, np.zeros(g.n), 1e-6, "one-level solve")
    et = _synthetic_table(lambda x, p, c: c + p * p, np.linspace(-2, 2, 9), [0.0])
    with pytest.raises(ValueError, match="at least 2 p nodes and 2 c nodes"):
        hz.solve_effective(et, n_slow=32)


def test_level_table_solve_rejects_a_start_outside_the_levels(monkeypatch):
    monkeypatch.setattr(hz, "fixed_point", _no_steps)
    g = TorusGrid(16)
    vs = np.linspace(-1.0, 1.0, 5)
    levels = np.linspace(-1.0, 1.0, 3)
    u0 = np.zeros(g.n)
    u0[3] = 1.5
    with pytest.raises(ConvergenceError,
                       match=r"solve starts outside the u-level range \[-1, 1\] at 1 of 16"):
        hz._level_table_fixed_point(g, vs, levels, np.zeros((g.n, 3, vs.size)),
                                    1e-2, 1.0, u0, 1e-6, "solve")


def test_level_table_solve_checks_the_contact_bound(monkeypatch):
    # the kernel checks only dt*vmax; the level-table layer refuses dt*Lambda2 > 1/2
    monkeypatch.setattr(hz, "fixed_point", _no_steps)
    g = TorusGrid(16)
    vs = np.linspace(-1.0, 1.0, 5)
    levels = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(CFLError, match=r"^dt\*Lambda = 0.6 exceeds 1/2$"):
        hz._level_table_fixed_point(g, vs, levels, np.zeros((g.n, 3, vs.size)),
                                    1e-2, 60.0, np.zeros(g.n), 1e-6, "solve")


def test_effective_table_refuses_nodes_it_cannot_bracket():
    # c nodes (-1, -0.9, 1) gave max|u| = 0.853 for Hbar = c + p^2, whose solution is 0
    p_nodes = np.linspace(-2.0, 2.0, 9)
    for c_nodes in ([-1.0, -0.9, 1.0], [1.0, 0.0, -1.0]):
        et = _synthetic_table(lambda x, p, c: c + p * p, p_nodes, c_nodes)
        with pytest.raises(ValueError, match="c nodes must be increasing and uniform"):
            hz.solve_effective(et, n_slow=32)
        with pytest.raises(ValueError, match="c nodes must be increasing and uniform"):
            hz.build_effective_table(make_problem(), [0.0], p_nodes, c_nodes)
    et = _synthetic_table(lambda x, p, c: c + p * p, p_nodes[::-1], [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="p nodes must be increasing"):
        hz.solve_effective(et, n_slow=32)
    with pytest.raises(ValueError, match="p nodes must be increasing"):
        hz.build_effective_table(make_problem(), [0.0], p_nodes[::-1], [-1.0, 0.0, 1.0])


def test_effective_table_convexity_on_uneven_p_nodes(monkeypatch):
    # Hbar = c + p^2 on p nodes (0, 1.8, 2) is convex: the middle value lies below the
    # chord at p = 1.8, though above the plain mean of the outer two
    monkeypatch.setattr(hz, "cell_problem", lambda hp, x, p, c, **opts: c + p * p + 0 * x)
    et = hz.build_effective_table(make_problem(), [0.0], [0.0, 1.8, 2.0], [0.0])
    assert et.values[0, :, 0] == pytest.approx([0.0, 3.24, 4.0])
    # a concave table is still refused
    monkeypatch.setattr(hz, "cell_problem", lambda hp, x, p, c, **opts: c - p * p + 0 * x)
    with pytest.raises(ConfigError, match=r"fails convexity in p at \(x=0, p=1.8, c=0\)"):
        hz.build_effective_table(make_problem(), [0.0], [0.0, 1.8, 2.0], [0.0])
