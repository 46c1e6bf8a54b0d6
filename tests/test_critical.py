import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakkam import TorusGrid, builtin, legendre
from weakkam import critical as crit
from weakkam import homogenize as hz
from weakkam import semigroup
from weakkam.expr import parse
from weakkam.errors import ConvergenceError
from weakkam.grid import Field, constant_field
from weakkam.hamiltonian import HamiltonianSpec, LagrangianTable, frozen_values
from weakkam.semigroup import CFLError, MinPlusStepper, iterate


@pytest.fixture(scope="module")
def free_table():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": 0})
    return legendre(spec, g, 33, 33)


def test_discounted_zero_fixed_point(free_table):
    u = crit.discounted_solve(free_table, lam=0.1)
    assert np.max(np.abs(u.values)) <= 1e-12


def test_discounted_constant_shift_exact(free_table):
    c0 = 0.6
    # potential +c0 folds into the cost as L - c0, i.e. the Hamiltonian G + c0
    shifted = free_table.with_potential(constant_field(free_table.grid, c0))
    u = crit.discounted_solve(shifted, lam=0.05, tol=1e-8)
    assert np.allclose(0.05 * u.values, -c0, rtol=0, atol=1e-10)


FREE_TABLES = {n: legendre(builtin("eikonal", {"V": 0}), TorusGrid(n), 17, 17) for n in (16, 32)}


# the value-iteration rounding allowance, in units of eps * max|ref| / (lam * dt):
# each value-iteration step rounds the interpolation (two products, one sum), the
# cost sum and the discount product, about 2 eps max|u| in all; each later step damps
# that error by f = 1/(1 + lam dt), so the errors sum to 2 eps max|u| / (1 - f)
# ~ 2 eps max|u| / (lam dt); policy iteration's dense solve of (I - f P) u = f dt L,
# condition ~1/(1 - f), adds as much again
ROUNDING_K = 4


@settings(max_examples=3, deadline=None)
@given(n=st.sampled_from(sorted(FREE_TABLES)),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7))
# drew |u - ref| = 1.0067e-8 against the earlier allowance residual/lam + 1e-10 = 1.0048e-8
@example(n=16, coef=[0.0, 0.703125, 0.0, 0.6016147602967279, 0.0, 0.0, 0.0])
def test_policy_iteration_matches_value_iteration(n, coef):
    x = FREE_TABLES[n].grid.nodes
    pot = coef[0] + sum(coef[2 * k - 1] * np.cos(2 * np.pi * k * x)
                        + coef[2 * k] * np.sin(2 * np.pi * k * x) for k in (1, 2, 3))
    lt = FREE_TABLES[n].with_potential(pot)
    dt = crit.DEFAULT_DT
    stepper = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    for lam in crit.DEFAULT_SCHEDULE:
        factor = 1.0 / (1.0 + lam * dt)
        u = crit.discounted_solve(lt, lam, dt).values
        assert np.abs(factor * stepper.step(u) - u).max() / dt <= 1e-9
        ref = iterate(lambda v: factor * stepper.step(v), np.zeros(n), dt, 10 ** 6, tol=1e-10)
        assert ref.converged
        # value iteration stopped at residual r lies within r/lam of the fixed point
        # (1e-8 at lam = 1e-2), up to the rounding both solves accumulate (ROUNDING_K)
        rounding = ROUNDING_K * np.finfo(float).eps * np.abs(ref.values).max() / (lam * dt)
        assert np.abs(u - ref.values).max() <= ref.residual / lam + rounding


def _howard_loop(lt, lam, dt, u0):
    """The policy iteration discounted_solve ran before semigroup.fixed_point: one dense
    solve of (I - f P_pi) u = f dt L_pi per policy, from the policy of u0, until the
    policy repeats (kept here as the reference)."""
    stepper = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    factor = 1.0 / (1.0 + lam * dt)
    n = lt.grid.n
    rows = np.arange(n)
    u, policy = u0, None
    for _ in range(semigroup.MAX_NEWTON):
        stepper.step(u)
        new = stepper.policy(policy)
        if policy is not None and np.array_equal(new, policy):
            return u
        policy = new
        u = np.linalg.solve(np.eye(n) - factor * stepper.plan.matrix(policy),
                            factor * dt * lt.L[rows, policy])
    raise AssertionError("the reference policy iteration did not settle")


@pytest.mark.parametrize("V", ["cos(2*pi*x)", "0.7*sin(2*pi*x) + 0.3*cos(6*pi*x)",
                               "1e-4*cos(2*pi*x)"])
def test_newton_discount_matches_the_policy_loop(V):
    # both are the exact fixed point, up to the rounding of a dense solve with condition
    # ~1/(lam dt), about eps max|u| / (lam dt); |u| ~ c/lam is 25 to 100 here, so the
    # agreement is read per unit of max|u|
    lt = legendre(builtin("eikonal", {"V": V}), TorusGrid(64), 33, 33)
    dt = crit.DEFAULT_DT
    u_new = u_old = None
    for lam in crit.DEFAULT_SCHEDULE:
        u_new = crit.discounted_solve(lt, lam, dt, u0=u_new)
        u_old = _howard_loop(lt, lam, dt, np.zeros(lt.grid.n) if u_old is None else u_old)
        scale = max(1.0, float(np.abs(u_old).max()))
        assert np.abs(u_new.values - u_old).max() <= 1e-12 * scale


def test_discounted_eikonal_window(eikonal_cos_256):
    spec, lt = eikonal_cos_256
    u = crit.discounted_solve(lt, lam=1e-2)
    assert -1.05 <= 1e-2 * u.values.mean() <= -0.95


def test_critical_free_is_zero(free_table):
    res = crit.critical_value(free_table)
    assert abs(res.c) <= 5e-3
    assert res.method == "agree"


def test_critical_eikonal(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    res = crit.critical_value(lt)
    # c - 1 is -7.0e-6 here; the raw -lam*mean(u_lam) at the smallest lam is 1.7e-3 off
    assert res.c == pytest.approx(1.0, abs=1e-4)
    assert res.method == "agree"
    assert res.u_corrector.mean() == pytest.approx(0.0, abs=1e-12)


def _slope_bracket(lt, dt, h):
    """[-max d, -min d], d = (K h - h)/dt: the one-step bracket of the cycle-time slope."""
    d = (MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L).step(h) - h) / dt
    return -float(d.max()), -float(d.min())


def _assert_slope_in_bracket(lt, dt, T, h, slope):
    # K is monotone and commutes with constants (Gaubert & Gunawardena 2004): K^k h - h
    # lies in [k dt min d, k dt max d] and K^k 0 within osc(h)/2 of K^k h less a constant,
    # so the slope read over [T/2, T] lies within 2 osc(h)/T of the bracket, for any h
    lo, hi = _slope_bracket(lt, dt, h)
    widen = 2 * float(np.ptp(h)) / T
    rounding = 1e-9 * (1.0 + float(np.abs(lt.L).max()))
    assert lo - widen - rounding <= slope <= hi + widen + rounding


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 32), m=st.integers(1, 9), dt=st.floats(1e-3, 0.2),
       reach=st.floats(0.0, 0.5), half_steps=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
def test_longtime_slope_lies_in_the_one_step_bracket(n, m, dt, reach, half_steps, seed):
    # a random cost table on a random velocity grid with dt*vmax = reach, and a random h
    rng = np.random.default_rng(seed)
    vgrid = rng.uniform(-1.0, 1.0, m)
    vgrid *= reach / dt / max(np.abs(vgrid).max(), 1e-300)
    lt = LagrangianTable(TorusGrid(n), vgrid,
                         rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, m)))
    T = 2 * half_steps * dt
    h = rng.normal(scale=rng.uniform(0.01, 10.0), size=n)
    slope, _, _ = crit.longtime_slope([lt], T, dt)
    _assert_slope_in_bracket(lt, dt, T, h, slope[0])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 32), m=st.integers(1, 9), count=st.integers(1, 6),
       dt=st.floats(1e-3, 0.2), reach=st.floats(0.0, 0.5), half_steps=st.integers(1, 20),
       seed=st.integers(0, 2 ** 16))
def test_batched_longtime_slope_is_the_per_table_slope(n, m, count, dt, reach, half_steps,
                                                       seed):
    # one march over the union of the tori gives each table's slope bit for bit
    rng = np.random.default_rng(seed)
    vgrid = rng.uniform(-1.0, 1.0, m)
    vgrid *= reach / dt / max(np.abs(vgrid).max(), 1e-300)
    lts = [LagrangianTable(TorusGrid(n), vgrid,
                           rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, m)))
           for _ in range(count)]
    T = 2 * half_steps * dt
    starts = [rng.normal(scale=rng.uniform(0.01, 10.0), size=n) for _ in range(count)]
    for given in (None, starts):
        batched = crit.longtime_slope(lts, T, dt, given)
        assert all(values.shape == (count,) for values in batched)
        alone = [crit.longtime_slope([lt], T, dt, None if given is None else [given[k]])
                 for k, lt in enumerate(lts)]
        for values, per_table in zip(batched, zip(*alone)):
            assert np.array_equal(values, np.concatenate(per_table))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 32), m=st.integers(1, 9), dt=st.floats(1e-3, 0.2),
       reach=st.floats(0.0, 0.5), steps=st.integers(2, 16), seed=st.integers(0, 2 ** 16))
def test_one_step_bracket_narrows_along_an_orbit(n, m, dt, reach, steps, seed):
    # K is monotone and commutes with constants, so along the orbit u_k = K^k h of a
    # random table from a random h, d_k = (u_(k+1) - u_k)/dt has min d_k never falling
    # and max d_k never rising: the bracket of a march of k steps never widens in k
    rng = np.random.default_rng(seed)
    vgrid = rng.uniform(-1.0, 1.0, m)
    vgrid *= reach / dt / max(np.abs(vgrid).max(), 1e-300)
    lt = LagrangianTable(TorusGrid(n), vgrid,
                         rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, m)))
    h = rng.normal(scale=rng.uniform(0.01, 10.0), size=n)
    ends = [crit.longtime_slope([lt], k * dt, dt, [h])[1:] for k in range(1, steps + 1)]
    lo, hi = (np.concatenate(end) for end in zip(*ends))
    assert (lo[0], hi[0]) == _slope_bracket(lt, dt, h)
    # each d_k rounds about 4 eps of max|u_k| + dt max|L|, over dt; allow four times that
    rounding = 16 * np.finfo(float).eps * (
        float(np.abs(h).max()) / dt + (steps + 1) * float(np.abs(lt.L).max()))
    assert np.all(np.diff(lo) >= -rounding) and np.all(np.diff(hi) <= rounding)


def _assert_long_slope_in_certificate(lt, dt, res):
    # the result's bracket is the one-step bracket of its march's last step, from
    # g = K^(N-1) h with h the corrector and N = round(T_long/dt); the slope of the
    # 40-unit march from 0 lies in it, within _assert_slope_in_bracket's allowance
    steps = int(round(crit.DEFAULT_T_LONG / dt))
    g = iterate(MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L).step, res.u_corrector.values,
                dt, steps - 1).values
    assert _slope_bracket(lt, dt, g) == (res.diagnostics["c_lo"], res.diagnostics["c_hi"])
    assert res.method == "agree"
    slope, _, _ = crit.longtime_slope([lt], 40.0, dt)
    _assert_slope_in_bracket(lt, dt, 40.0, g, slope[0])


def test_long_slope_from_zero_lies_in_the_eikonal_certificate(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    _assert_long_slope_in_certificate(lt, crit.DEFAULT_DT, crit.critical_value(lt))


def test_long_slope_from_zero_lies_in_the_cell_certificates(monkeypatch):
    # three cells of the homog-cells Hamiltonian, their tables and results read where
    # cell_problem hands them to critical_values
    solve, given = crit.critical_values, []

    def recorded(tables, **kwargs):
        results = solve(tables, **kwargs)
        given.extend(zip(tables, results))
        return results

    monkeypatch.setattr(crit, "critical_values", recorded)
    hp = hz.HomogProblem(H=parse("u + p^2 + 0.5*cos(2*pi*y)"), dHu=parse("1"),
                         Lambda1=1.0, Lambda2=1.0)
    hz.cell_problem(hp, 0.0, np.array([0.0, 0.8, 1.5]), 0.0)
    assert len(given) == 3
    for table, res in given:
        _assert_long_slope_in_certificate(table, min(hz.CELL_DT, 0.5 / hp.vmax), res)


def test_a_shifted_discount_value_is_not_certified(eikonal_cos_128, monkeypatch):
    # lowering each discounted solution by 0.05/lam raises c_discount by 0.05 and leaves
    # the corrector as it was; the bracket, within 7e-6 of c before, refuses the shift
    spec, lt = eikonal_cos_128
    base = crit.critical_value(lt)
    solve = crit.discounted_solve

    def lowered(table, lam, dt, u0=None):
        u = solve(table, lam, dt, u0=u0)
        return Field(u.grid, u.values - 0.05 / lam)

    monkeypatch.setattr(crit, "discounted_solve", lowered)
    res = crit.critical_value(lt)
    assert base.method == "agree" and res.method == "discount"
    assert res.c == pytest.approx(base.c + 0.05, abs=1e-9)
    assert res.diagnostics["gap"] >= 0.05 - base.diagnostics["gap"]


def test_longtime_slope_needs_a_step_between_half_and_full_horizon(free_table):
    # round(0.01/0.02) = round(0.01/0.04) = 0: no step lies between T/2 and T
    with pytest.raises(ValueError, match=r"horizon T=0\.01 holds no step of dt=0\.02"):
        crit.critical_value(free_table, T_long=0.01)
    with pytest.raises(ValueError, match="share one grid and one velocity grid"):
        crit.longtime_slope([free_table, legendre(builtin("eikonal", {"V": 0}),
                                                  free_table.grid, 17, 17)], 4.0, 0.02)


def test_longtime_slope_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="empty batch of tables"):
        crit.longtime_slope([], 4.0, 0.02)


def test_critical_values_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="empty batch of tables"):
        crit.critical_values([])


def test_critical_values_are_the_per_table_critical_values(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    tables = [lt, lt.with_potential(constant_field(lt.grid, 0.35)), lt.with_potential(
        0.2 * np.sin(2 * np.pi * lt.grid.nodes))]
    for batched, table in zip(crit.critical_values(tables, cross_tol=1e-4), tables):
        alone = crit.critical_value(table, cross_tol=1e-4)
        assert (batched.c, batched.method, batched.diagnostics) == (
            alone.c, alone.method, alone.diagnostics)
        assert np.array_equal(batched.u_corrector.values, alone.u_corrector.values)


def test_longtime_slope_lies_in_the_corrector_bracket(eikonal_cos_128):
    # with h the discounted corrector the bracket is tight about c = max V = 1
    spec, lt = eikonal_cos_128
    res = crit.critical_value(lt)
    h = res.u_corrector.values
    lo, hi = _slope_bracket(lt, crit.DEFAULT_DT, h)
    assert lo <= 1.0 <= hi + 1e-12 and hi - lo <= 1e-2
    _assert_slope_in_bracket(lt, crit.DEFAULT_DT, crit.DEFAULT_T_LONG, h,
                             res.diagnostics["c_longtime"])


def test_critical_shifted_momentum():
    g = TorusGrid(128)
    spec = HamiltonianSpec(G=parse("(p+0.7)^2"), W=parse("0"), dWu=parse("0"),
                           lambda_bound=0.0)
    lt = legendre(spec, g, 49, 49)
    res = crit.critical_value(lt)
    assert res.c == pytest.approx(0.49, abs=2e-2)


def test_shift_equivariance(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    base = crit.critical_value(lt)
    shifted = crit.critical_value(lt.with_potential(
        constant_field(lt.grid, 0.35)))
    assert shifted.c - base.c == pytest.approx(0.35, abs=1e-3)


def test_monotone_in_hamiltonian(free_table):
    lo = crit.critical_value(free_table)
    hi = crit.critical_value(free_table.with_potential(
        constant_field(free_table.grid, 0.2)))
    assert lo.c <= hi.c + 2 * 2e-2


def test_estimators_agree_on_every_builtin(example_setup):
    g = TorusGrid(64)
    instances = []
    for name, params in [("eikonal", {"V": "cos(2*pi*x)"}),
                         ("linear_contact", {"a": 1.0, "V": 0}),
                         ("linear_contact", {"a": -1.0, "V": "cos(2*pi*x)"}),
                         ("corollary_a", {"a": "2+sin(2*pi*x)",
                                          "V": "cos(2*pi*x)", "c": 1.0})]:
        spec = builtin(name, params)
        lt = legendre(spec, g, 33, 33)
        um = constant_field(g, 0.0)
        pot = np.broadcast_to(np.asarray(
            spec.W.evaluate({"x": g.nodes, "u": um.values}), dtype=float), (g.n,))
        instances.append(lt.with_potential(pot))
    # the worked stability instance, frozen at its stationary solution
    ex = example_setup
    pot = np.asarray(ex["spec"].W.evaluate({"x": ex["grid"].nodes, "u": ex["u_minus"].values}))
    instances.append(ex["lt"].with_potential(pot))
    for table in instances:
        assert crit.critical_value(table).method == "agree"


def test_disagreement_is_diagnostic_not_fatal(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    # two kernel steps from the corrector leave a certified gap of about 3.9e-3
    res = crit.critical_value(lt, T_long=0.04, cross_tol=1e-4)
    assert res.method == "discount"
    assert res.diagnostics["gap"] > 1e-4


def test_large_shift_of_the_critical_value():
    # the discounted fixed point of a finite table is bounded: |u| <= max|L|/lam
    g = TorusGrid(64)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 33, 33)
    base = crit.critical_value(lt)
    shifted = crit.critical_value(lt.with_potential(constant_field(g, -2e5)))
    assert base.method == shifted.method == "agree"
    assert shifted.c == pytest.approx(base.c - 2e5, abs=1e-3)


def test_nan_cost_entry_raises_at_first_step(free_table):
    L = free_table.L.copy()
    L[5, 3] = np.nan
    bad = LagrangianTable(free_table.grid, free_table.vgrid, L)
    with pytest.raises(ValueError, match="nonfinite values at step 1 "):
        crit.longtime_slope([bad], T=4.0, dt=0.02)
    with pytest.raises(ValueError, match="nonfinite values at step 1 "):
        crit.discounted_solve(bad, lam=4e-2)


def test_parameter_validation(free_table):
    with pytest.raises(ValueError):
        crit.discounted_solve(free_table, lam=-1.0)
    with pytest.raises(CFLError):
        crit.discounted_solve(free_table, lam=60.0, dt=0.02)
    with pytest.raises(ValueError, match="decreasing"):
        crit.critical_value(free_table, schedule=(1e-2, 2e-2))


def test_one_sided_derivatives_synthetic():
    eps = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    assert crit.one_sided_derivatives(eps, 3 * eps) == pytest.approx((3.0, 3.0))
    assert crit.one_sided_derivatives(eps, np.abs(eps)) == pytest.approx((-1.0, 1.0))
    dm, dp = crit.one_sided_derivatives(eps, eps - eps ** 2)
    assert dm == pytest.approx(1.0, abs=1e-3)
    assert dp == pytest.approx(1.0, abs=1e-3)


def test_c_eps_curve_linear_contact():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    lt = legendre(spec, g, 33, 33)
    um = constant_field(g, 0.0)
    curve = crit.c_eps_curve(spec, um, [-0.04, -0.02, 0.0, 0.02, 0.04], lt=lt)
    # W = a*u makes the shift a constant added to the Hamiltonian: c(eps) = a*eps
    assert np.allclose(curve.c_values, curve.eps_samples, atol=2e-3)
    assert curve.D_minus == pytest.approx(1.0, abs=2e-2)
    assert curve.D_plus == pytest.approx(1.0, abs=2e-2)
    assert curve.lipschitz_slack(spec.lambda_bound) <= 4e-2


def test_c_eps_curve_is_the_per_sample_critical_value():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": "cos(2*pi*x)"})
    lt = legendre(spec, g, 33, 33)
    um = constant_field(g, 0.1)
    eps = [-0.04, -0.02, 0.0, 0.02, 0.04]
    curve = crit.c_eps_curve(spec, um, eps, lt=lt)
    alone = [crit.critical_value(lt.with_potential(
        frozen_values(spec.W, g.nodes, um.values + e))).c for e in eps]
    assert np.array_equal(curve.c_values, alone)


def test_c_eps_curve_sample_validation():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    um = constant_field(g, 0.0)
    lt = legendre(spec, g, 33, 33)
    with pytest.raises(ValueError, match="contain 0"):
        crit.c_eps_curve(spec, um, [-0.02, -0.01, 0.01, 0.02], lt=lt)
    with pytest.raises(ValueError, match="each sign"):
        crit.c_eps_curve(spec, um, [-0.01, 0.0, 0.01, 0.02], lt=lt)


def test_discount_certificate_miss_names_its_residual(free_table):
    # the policy settles with a residual at rounding, above a tol of 1e-20
    eik = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), free_table.grid, 33, 33)
    with pytest.raises(ConvergenceError,
                       match=r"^discounted solve at lam=0\.04 stopped at residual \S+ after 0 "
                             r"steps and \d+ Newton iterations, above tol 1e-20$") as err:
        crit.discounted_solve(eik, lam=4e-2, tol=1e-20)
    assert 1e-20 < err.value.residual < 1e-9


def test_discount_is_newton_alone_on_any_grid(free_table, monkeypatch):
    # NEWTON_MAX_N bounds the stationary solves' Newton stage; the discount has no march
    monkeypatch.setattr(semigroup, "NEWTON_MAX_N", 8)
    eik = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), free_table.grid, 33, 33)
    u = crit.discounted_solve(eik, lam=4e-2)
    ref = _howard_loop(eik, 4e-2, crit.DEFAULT_DT, np.zeros(eik.grid.n))
    assert np.abs(u.values - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))


def test_policy_iteration_cap_raises(free_table, monkeypatch):
    eik = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), free_table.grid, 33, 33)
    monkeypatch.setattr(semigroup, "MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError,
                       match=r"^discounted solve at lam=0\.04 stopped at residual \S+ after 0 "
                             r"steps and 1 Newton iterations, above tol 0\.0001$") as err:
        crit.discounted_solve(eik, lam=4e-2)
    assert err.value.residual > crit.DEFAULT_TOL
