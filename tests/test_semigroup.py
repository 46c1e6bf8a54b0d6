import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DPHI_SRC, PHI_SRC, random_field
from weakkam import TorusGrid, builtin, legendre
from weakkam.errors import ConvergenceError
from weakkam.expr import parse
from weakkam.grid import Field, constant_field, field_from_expr, sup_diff
from weakkam.hamiltonian import HamiltonianSpec, frozen_values
from weakkam import semigroup
from weakkam.semigroup import (CFLError, MinPlusStepper, Stepper, evolve, iterate,
                               stationary_solve)


@pytest.fixture(scope="module")
def free_64():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": 0})
    return g, spec, legendre(spec, g, 33, 33)


@pytest.fixture(scope="module")
def contact_64():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    return g, spec, legendre(spec, g, 33, 33)


def test_zero_is_fixed_point_free(free_64):
    g, spec, lt = free_64
    zero = constant_field(g, 0.0)
    st = Stepper(spec, lt, 1e-3)
    assert sup_diff(Field(g, st.backward_values(zero.values)), zero) == 0.0
    assert sup_diff(Field(g, st.forward_values(zero.values)), zero) == 0.0


def test_constant_data_one_step_exact(contact_64):
    g, spec, lt = contact_64
    delta, dt = 0.37, 1e-3
    u = constant_field(g, delta)
    fwd_euler = delta * (1 - 1.0 * dt)
    st = Stepper(spec, lt, dt)
    out = Field(g, st.backward_values(u.values))
    assert np.allclose(out.values, fwd_euler, atol=1e-15)
    out_f = Field(g, st.forward_values(u.values))
    assert np.allclose(out_f.values, delta * (1 + 1.0 * dt), atol=1e-15)


BUILTIN_PARAMS = {
    "eikonal": {"V": "cos(2*pi*x)"},
    "linear_contact": {"a": 1.0, "V": "0.3*cos(2*pi*x)"},
    "example_ex": {"phi": PHI_SRC, "dphi": DPHI_SRC, "theta": 0.5, "zeta": 1.0},
    "corollary_a": {"V": "cos(2*pi*x)", "a": "2 + sin(2*pi*x)", "c": 1.0},
}


def _unfolded(spec, lt, dt, mode, u, sign):
    """One contact step from a bare kernel and the whole of W, as before folding."""
    kernel = MinPlusStepper(lt.grid, -sign * lt.vgrid, dt, lt.L, spec.lambda_bound)
    base = kernel.step(u) if sign < 0 else -kernel.step(-u)

    def corrected(z):
        return base + sign * dt * frozen_values(spec.W, lt.grid.nodes, z)

    z = corrected(u)
    return iterate(corrected, z, 1.0, 50, tol=1e-13).values if mode == "picard" else z


@pytest.mark.parametrize("name", sorted(BUILTIN_PARAMS))
@pytest.mark.parametrize("mode", ["explicit", "picard"])
def test_folded_W_steps_bit_identically(name, mode):
    g = TorusGrid(64)
    spec = builtin(name, BUILTIN_PARAMS[name])
    lt = legendre(spec, g, 33, 33)
    dt = 1e-3
    st = Stepper(spec, lt, dt, mode)
    u = random_field(g, np.random.default_rng(7)).values
    assert np.array_equal(st.backward_values(u), _unfolded(spec, lt, dt, mode, u, -1.0))
    assert np.array_equal(st.forward_values(u), _unfolded(spec, lt, dt, mode, u, +1.0))


@pytest.mark.parametrize("name", ["example_ex", "corollary_a"])
def test_folded_W_equals_only_a_fold_at_the_same_nodes(name):
    spec = builtin(name, BUILTIN_PARAMS[name])
    lt = legendre(spec, TorusGrid(64), 33, 33)
    W = Stepper(spec, lt, 1e-3).W
    assert W.variables() == {"u"}
    assert W == spec.W.fold({"x": lt.grid.nodes.copy()})
    assert hash(W) == hash(spec.W.fold({"x": lt.grid.nodes.copy()}))
    assert W != spec.W
    assert W != spec.W.fold({"x": TorusGrid(32).nodes})
    assert W != spec.W.fold({"x": lt.grid.nodes + 1e-3})


def test_constant_data_exactness_with_x_dependent_W():
    # explicit step must equal the Euler update of du/dt = -G(x,0) - W(x,u)
    g = TorusGrid(64)
    spec = HamiltonianSpec(G=parse("p^2"), W=parse("cos(2*pi*x)*u"),
                           dWu=parse("cos(2*pi*x)"), lambda_bound=1.0)
    lt = legendre(spec, g, 33, 33)
    dt = 1e-2
    u = constant_field(g, 0.8)
    out = Field(g, Stepper(spec, lt, dt).backward_values(u.values))
    euler = 0.8 - dt * np.cos(2 * np.pi * g.nodes) * 0.8
    assert np.allclose(out.values, euler, atol=1e-15)


def test_one_step_against_velocity_refinement_oracle():
    # one explicit backward step at node x=0 for u = cos(2 pi x)
    g = TorusGrid(128)
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g, 257, 257)
    dt = 1e-3
    u = field_from_expr(g, parse("cos(2*pi*x)"))
    out = Field(g, Stepper(spec, lt, dt).backward_values(u.values))
    vs = np.linspace(-4, 4, 100_001)
    oracle = np.min(u.interp(0.0 - vs * dt) + dt * vs ** 2 / 4)  # L(v) = v^2/4
    assert out.values[0] == pytest.approx(oracle, abs=1e-6)


def test_evolve_contact_ode(contact_64):
    g, spec, lt = contact_64
    res = evolve(constant_field(g, 1.0), spec, lt, T=1.0, dt=1e-3)
    assert abs(res.values[0] - math.exp(-1)) <= abs(math.exp(-1)) * 1e-3
    assert res.steps == 1000


def test_evolve_growth_when_decreasing_in_u():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": -1.0, "V": 0})
    lt = legendre(spec, g, 33, 33)
    res = evolve(constant_field(g, -0.01), spec, lt, T=3.0, dt=1e-3)
    assert res.values[0] == pytest.approx(-0.01 * math.exp(3), rel=5e-3)


def test_evolve_forward_direction(contact_64):
    g, spec, lt = contact_64
    res = evolve(constant_field(g, 0.5), spec, lt, T=0.5, dt=1e-3,
                 direction="forward")
    assert res.values[0] == pytest.approx(0.5 * math.exp(0.5), rel=1e-3)


def test_u_independent_commutes_with_constants(free_64):
    g, spec, lt = free_64
    rng = np.random.default_rng(4)
    phi = random_field(g, rng)
    r1 = evolve(phi, spec, lt, T=0.1, dt=1e-3)
    r2 = evolve(Field(g, phi.values + 0.37), spec, lt, T=0.1, dt=1e-3)
    assert np.allclose(r2.values - r1.values, 0.37, atol=1e-13)


def test_evolve_observe_sees_every_step(free_64):
    g, spec, lt = free_64
    rng = np.random.default_rng(5)
    seen = []
    res = evolve(random_field(g, rng), spec, lt, T=0.05, dt=1e-3,
                 observe=lambda k, u: seen.append((k, u)))
    assert [k for k, _ in seen] == list(range(1, 51))
    assert res.steps == 50
    assert np.array_equal(seen[-1][1], res.values)


def test_nonexpansion_with_lambda_inflation():
    g = TorusGrid(64)
    rng = np.random.default_rng(6)
    for name, params in [("eikonal", {"V": "cos(2*pi*x)"}),
                         ("linear_contact", {"a": -1.0, "V": 0})]:
        spec = builtin(name, params)
        lt = legendre(spec, g, 33, 33)
        dt = 1e-2
        for mode in ("explicit", "picard"):
            st = Stepper(spec, lt, dt, mode)
            lamdt = spec.lambda_bound * dt
            # the implicit resolvent contracts by 1/(1 - lam dt), above
            # 1 + lam dt at second order
            factor = 1 + lamdt if mode == "explicit" else 1 + lamdt + 2 * lamdt ** 2
            for _ in range(10):
                u1, u2 = random_field(g, rng), random_field(g, rng)
                bound = factor * sup_diff(u1, u2)
                for vals in ((st.backward_values(u1.values), st.backward_values(u2.values)),
                             (st.forward_values(u1.values), st.forward_values(u2.values))):
                    assert float(np.max(np.abs(vals[0] - vals[1]))) <= bound + 1e-12


def test_monotone_when_dwu_nonpositive():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": -1.0, "V": "cos(2*pi*x)"})
    lt = legendre(spec, g, 33, 33)
    st = Stepper(spec, lt, 1e-2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo = random_field(g, rng)
        hi = Field(g, lo.values + rng.uniform(0, 1, g.n))
        assert np.all(st.backward_values(lo.values) <= st.backward_values(hi.values) + 1e-14)


def test_general_order_bound():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    lt = legendre(spec, g, 33, 33)
    dt = 1e-2
    st = Stepper(spec, lt, dt)
    rng = np.random.default_rng(8)
    for _ in range(10):
        u1, u2 = random_field(g, rng), random_field(g, rng)
        gap = (1 + spec.lambda_bound * dt) * sup_diff(u1, u2)
        assert np.all(st.backward_values(u1.values)
                      <= st.backward_values(u2.values) + gap + 1e-12)


def test_forward_backward_composition_bound():
    g = TorusGrid(64)
    rng = np.random.default_rng(9)
    dt = 1e-3
    for name, params in [("eikonal", {"V": "cos(2*pi*x)"}),
                         ("linear_contact", {"a": 1.0, "V": 0})]:
        spec = builtin(name, params)
        lt = legendre(spec, g, 33, 33)
        st = Stepper(spec, lt, dt)
        fields = [random_field(g, rng) for _ in range(5)]
        c_scheme = max(
            float(np.max(st.forward_values(st.backward_values(u.values)) - u.values))
            / (2 * dt) for u in fields)
        steps = 20
        slack = 2 * steps * dt * c_scheme + 1e-12
        for u in fields:
            z = u.values.copy()
            for _ in range(steps):
                z = st.backward_values(z)
            for _ in range(steps):
                z = st.forward_values(z)
            assert np.all(z <= u.values + slack)
            w = u.values.copy()
            for _ in range(steps):
                w = st.forward_values(w)
            for _ in range(steps):
                w = st.backward_values(w)
            assert np.all(u.values <= w + slack)


def test_picard_close_to_explicit():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": "cos(2*pi*x)"})
    lt = legendre(spec, g, 33, 33)
    rng = np.random.default_rng(10)
    u = random_field(g, rng)
    gaps = {}
    for dt in (1e-2, 5e-3):
        ex = Field(g, Stepper(spec, lt, dt, "explicit").backward_values(u.values))
        pi = Field(g, Stepper(spec, lt, dt, "picard").backward_values(u.values))
        gaps[dt] = sup_diff(ex, pi)
    # the two treatments differ by O(dt^2) per step
    assert gaps[1e-2] <= 50 * 1e-2 ** 2
    assert gaps[5e-3] <= gaps[1e-2] / 3  # second-order scaling


def test_picard_divergence_raises_convergence_error():
    # W = 30u declared with Lambda = 1: dt*Lambda passes, but the correction
    # z -> base - 3z expands, so the Picard loop must fail loudly
    g = TorusGrid(16)
    spec = HamiltonianSpec(G=parse("p^2"), W=parse("30*u"), dWu=parse("30"),
                           lambda_bound=1.0)
    stepper = Stepper(spec, legendre(spec, g, 17, 17), 0.1, "picard")
    with pytest.raises(ConvergenceError, match="picard iteration did not converge") as err:
        stepper.backward_values(np.sin(2 * np.pi * g.nodes))
    assert err.value.residual == pytest.approx(3.154e24, rel=1e-3)


def test_cfl_guards():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    lt = legendre(spec, g, 33, 33)
    with pytest.raises(CFLError, match="Lambda"):
        Stepper(spec, lt, 0.6)
    with pytest.raises(CFLError, match="vmax"):
        Stepper(spec, lt, 0.2)  # 0.2 * 4 > 0.5


def test_stationary_linear_contact(contact_64):
    g, spec, lt = contact_64
    res = stationary_solve(constant_field(g, 0.7), spec, lt, dt=1e-3, tol=1e-6,
                           T_max=40.0)
    assert res.converged
    assert np.max(np.abs(res.values)) <= 1e-6 / 1.0  # tol / a
    # residual contract
    after = Field(g, Stepper(spec, lt, 1e-3).backward_values(res.values))
    assert sup_diff(after, Field(g, res.values)) / 1e-3 <= 1e-6


def test_stationary_example_recovers_phi(example_setup):
    assert sup_diff(example_setup["u_minus"], example_setup["phi"]) <= 2e-2


def test_stationary_noncritical_stalls_reported():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})  # critical value 1, drifts
    lt = legendre(spec, g, 33, 33)
    res = stationary_solve(constant_field(g, 0.0), spec, lt, dt=1e-3, tol=1e-6,
                           T_max=2.0)
    assert not res.converged
    assert res.residual == pytest.approx(1.0, abs=0.1)


def test_stationary_critical_normalization_settles():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": "cos(2*pi*x) - 1"})  # critical value 0
    lt = legendre(spec, g, 33, 33)
    res = stationary_solve(constant_field(g, 0.0), spec, lt, dt=1e-3, tol=1e-10,
                           T_max=8.0)
    # the residual settles at (or below) the scheme consistency level and the
    # iterate is a nontrivial discrete weak KAM solution
    assert res.residual < 5e-2
    # analytic oscillation of the weak KAM solution: integral of
    # sqrt(2) sin(pi s) over half a period = sqrt(2)/pi ~ 0.45
    osc = float(res.values.max() - res.values.min())
    assert osc == pytest.approx(np.sqrt(2) / np.pi, abs=5e-2)


def _march(phi0, spec, lt, dt, tol, T_max):
    """The pure march of the explicit backward step: iterate to tol within T_max."""
    return iterate(Stepper(spec, lt, dt).backward_values, phi0.values, dt,
                   math.ceil(T_max / dt), tol)


@settings(max_examples=5, deadline=None)
@given(a=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 16))
def test_newton_matches_a_tight_march_on_linear_contact(a, seed):
    # W = a*u with a >= 1/2 makes the step a contraction by 1 - a*dt: the march stopped at
    # residual r lies within r/a of the fixed point, which Newton returns to rounding
    g = TorusGrid(32)
    rng = np.random.default_rng(seed)
    V = " + ".join(f"{rng.uniform(-0.5, 0.5):.6f}*cos({k}*2*pi*x)" for k in (1, 2, 3))
    spec = builtin("linear_contact", {"a": a, "V": V})
    lt = legendre(spec, g, 17, 17)
    phi0 = random_field(g, rng)
    rec = stationary_solve(phi0, spec, lt, dt=1e-2, tol=1e-6, T_max=100.0)
    assert rec.converged and rec.newton >= 1 and rec.residual <= 1e-6
    ref = _march(phi0, spec, lt, 1e-2, 1e-12, 200.0)
    assert ref.converged
    assert np.abs(rec.values - ref.values).max() <= 1e-6 / a


def test_hybrid_from_zero_matches_the_march():
    # example_ex at theta = 1/2 from 0: Newton from 0 does not settle, so the march runs
    # to residual MARCH_TO first; both stop within tol/theta of the same fixed point
    g = TorusGrid(64)
    spec = builtin("example_ex", BUILTIN_PARAMS["example_ex"])
    lt = legendre(spec, g, 33, 33)
    zero = constant_field(g, 0.0)
    rec = stationary_solve(zero, spec, lt, dt=1e-3, tol=1e-6, T_max=40.0)
    ref = _march(zero, spec, lt, 1e-3, 1e-6, 40.0)
    assert rec.converged and ref.converged
    assert 1 <= rec.newton <= semigroup.MAX_NEWTON
    assert rec.steps < 1000 < ref.steps
    assert np.abs(rec.values - ref.values).max() <= 1e-6 / 0.5


@pytest.mark.parametrize("V, T_max", [("cos(2*pi*x) - 1", 8.0), ("cos(2*pi*x)", 2.0)])
def test_eikonal_stationary_solve_is_the_march(V, T_max):
    # W-free: J = I - P_pi is singular (no Newton iteration completes), so the march
    # resumes where it handed over and the record is the pure march's, bit for bit (the
    # drifting V never hands over)
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": V})
    lt = legendre(spec, g, 33, 33)
    zero = constant_field(g, 0.0)
    rec = stationary_solve(zero, spec, lt, dt=1e-3, tol=1e-10, T_max=T_max)
    ref = _march(zero, spec, lt, 1e-3, 1e-10, T_max)
    assert np.array_equal(rec.values, ref.values)
    assert (rec.steps, rec.residual, rec.converged, rec.newton) == (
        ref.steps, ref.residual, ref.converged, 0)


def test_unsettled_newton_resumes_the_march():
    # example_ex at theta = -0.2: the policies cycle, Newton stops at its cap and the
    # march resumes from its last iterate, ending where the pure march ends
    g = TorusGrid(64)
    spec = builtin("example_ex", dict(BUILTIN_PARAMS["example_ex"], theta=-0.2))
    lt = legendre(spec, g, 33, 33)
    phi = field_from_expr(g, parse(PHI_SRC))
    rec = stationary_solve(phi, spec, lt, dt=1e-3, tol=1e-6, T_max=0.5)
    ref = _march(phi, spec, lt, 1e-3, 1e-6, 0.5)
    assert not rec.converged and rec.newton == semigroup.MAX_NEWTON
    assert np.array_equal(rec.values, ref.values) and rec.steps == ref.steps == 500


@pytest.mark.parametrize("a, newton, converged", [(1e-9, 1, False), (1e-6, 5, True)])
def test_numerically_singular_newton_matrix_resumes_the_march(monkeypatch, a, newton,
                                                             converged):
    # W = a*u on a drifting eikonal (critical value 1): the fixed point is u ~ -1/a, and
    # the Newton step toward it is sup|F|/(dt*a) long; beyond MAX_GAIN = 1e10 times
    # sup|F| (a = 1e-9) J counts as singular and the march resumes, at a = 1e-6 Newton
    # reaches it
    g = TorusGrid(32)
    spec = HamiltonianSpec(G=parse("p^2 + cos(2*pi*x)"), W=parse(f"{a}*u"),
                           dWu=parse(f"{a}"))
    stepper = Stepper(spec, legendre(spec, g, 17, 17), 1e-3)
    monkeypatch.setattr(semigroup, "MARCH_TO", math.inf)
    rec = semigroup.fixed_point(stepper.backward_values, stepper._back,
                                lambda u, policy: 1e-3 * a, np.zeros(g.n), 1e-3, 1e-6, 100)
    assert (rec.newton, rec.converged) == (newton, converged)
    if converged:
        assert rec.steps == 1 and rec.values.max() == pytest.approx(-1.0 / a, rel=1e-3)
    else:
        ref = iterate(stepper.backward_values, np.zeros(g.n), 1e-3, 100, 1e-6)
        assert rec.steps == 100 and np.array_equal(rec.values, ref.values)


def test_resumed_march_counts_on_from_the_handover():
    # theta = -0.2: Newton stops at its cap and the march resumes; the guard sees the
    # steps of both march stages numbered 1..500 in one sequence, Newton's in between
    g = TorusGrid(64)
    spec = builtin("example_ex", dict(BUILTIN_PARAMS["example_ex"], theta=-0.2))
    stepper = Stepper(spec, legendre(spec, g, 33, 33), 1e-3)
    dWu = spec.dWu.fold({"x": stepper.xs})
    seen = []
    rec = semigroup.fixed_point(stepper.backward_values, stepper._back,
                                lambda u, policy: 1e-3 * frozen_values(dWu, stepper.xs, u),
                                field_from_expr(g, parse(PHI_SRC)).values, 1e-3, 1e-6, 500,
                                guard=lambda u, at: seen.append(at))
    steps = [int(at.split()[1]) for at in seen if at.startswith("step ")]
    assert rec.newton == semigroup.MAX_NEWTON and rec.steps == 500
    assert steps == list(range(1, 501))
    assert sum(at.startswith("Newton iteration ") for at in seen) == semigroup.MAX_NEWTON


def test_iterate_start_names_the_resumed_step():
    with pytest.raises(ValueError, match=r"nonfinite values at step 8 \(t=0.08\)"):
        iterate(lambda u: u + 1.0 if u[0] < 2.0 else u * np.nan, np.zeros(4), 0.01, 20,
                start=5)
    rec = iterate(lambda u: 0.5 * u, np.ones(4), 0.01, 12, tol=0.0, start=10)
    assert rec.steps == 12 and rec.values[0] == 0.25


@pytest.mark.parametrize("cap, newton", [(31, False), (32, True)])
def test_newton_stage_only_on_small_grids(monkeypatch, cap, newton):
    # a grid of more than NEWTON_MAX_N nodes marches to tol, bit for bit the pure march
    monkeypatch.setattr(semigroup, "NEWTON_MAX_N", cap)
    g = TorusGrid(32)
    spec = builtin("linear_contact", {"a": 1.0, "V": "0.3*cos(2*pi*x)"})
    lt = legendre(spec, g, 17, 17)
    zero = constant_field(g, 0.0)
    rec = stationary_solve(zero, spec, lt, dt=1e-2, tol=1e-6, T_max=100.0)
    ref = _march(zero, spec, lt, 1e-2, 1e-6, 100.0)
    assert rec.converged and (rec.newton > 0) == newton
    if not newton:
        assert np.array_equal(rec.values, ref.values) and rec.steps == ref.steps


def test_fixed_point_guard_names_the_newton_iteration():
    # u' = u - dt (u + 1/2) marches toward -1/2; the guard refuses u < -0.45, which the
    # march does not reach before its residual is 0.1, but Newton's first iterate does
    g = TorusGrid(16)
    kernel = MinPlusStepper(g, np.linspace(-1.0, 1.0, 5), 1e-2, np.zeros((g.n, 5)))
    seen = []

    def guard(u, at):
        seen.append(at)
        if u.min() < -0.45:
            raise ConvergenceError(f"left at {at}")

    with pytest.raises(ConvergenceError, match="left at Newton iteration 1$"):
        semigroup.fixed_point(lambda u: kernel.step(u) - 1e-2 * (u + 0.5), kernel,
                              lambda u, policy: 1e-2, np.zeros(g.n), 1e-2, 1e-6, 10 ** 4,
                              guard=guard)
    assert seen[:2] == ["step 1", "step 2"] and seen[-2].startswith("step ")


def test_evolve_aborts_on_nonfinite():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": -1.0, "V": 0, "vmax": 1.0})
    lt = legendre(spec, g, 33, 33)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="nonfinite"):
        evolve(constant_field(g, 700.0), spec, lt, T=900.0, dt=0.4)


def test_iterate_stops_at_tol_and_reports_record():
    # halving from 8 with dt = 0.5: residuals 8, 4, 2, 1, ...
    rec = iterate(lambda u: u / 2, np.full(4, 8.0), dt=0.5, max_steps=50, tol=1.0)
    assert rec.converged and rec.steps == 4 and rec.residual == 1.0
    assert np.all(rec.values == 0.5)
    rec = iterate(lambda u: u / 2, np.full(4, 8.0), dt=0.5, max_steps=3, tol=1.0)
    assert not rec.converged and rec.steps == 3 and rec.residual == 2.0
    assert np.all(rec.values == 1.0)


def test_iterate_observer_stops_early():
    seen = []

    def observe(k, u):
        seen.append((k, float(u[0])))
        return k == 3

    rec = iterate(lambda u: u + 1.0, np.zeros(3), dt=1.0, max_steps=10, observe=observe)
    assert seen == [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert rec.steps == 3 and not rec.converged and rec.residual == 1.0


def test_iterate_nonfinite_names_the_step():
    def step(u):
        return u + 1.0 if u[0] < 2.0 else np.full_like(u, np.nan)

    with pytest.raises(ValueError, match="nonfinite values at step 3"):
        iterate(step, np.zeros(3), dt=1.0, max_steps=10)


@pytest.mark.parametrize("backward", [True, False])
def test_batch_step_equals_columnwise(backward):
    g = TorusGrid(32)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 17, 17)
    # the forward kernel is the backward one on the negated velocity grid
    stepper = MinPlusStepper(g, lt.vgrid if backward else -lt.vgrid, 0.02, lt.L)
    batch = np.random.default_rng(5).normal(size=(g.n, 7))
    out = stepper.step(batch)
    assert out.shape == batch.shape
    for b in range(batch.shape[1]):
        assert np.array_equal(out[:, b], stepper.step(np.ascontiguousarray(batch[:, b])))


def test_policy_matrix_reproduces_the_step():
    g = TorusGrid(32)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 17, 17)
    stepper = MinPlusStepper(g, lt.vgrid, 0.02, lt.L)
    u = np.random.default_rng(3).normal(size=g.n)
    policy = stepper.policy(u)
    P = stepper.plan.matrix(policy)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    step = P @ u + 0.02 * lt.L[np.arange(g.n), policy]
    assert np.allclose(step, stepper.step(u), rtol=0, atol=1e-14)
    # the argmin policy is kept; a worse current velocity is replaced
    assert np.array_equal(stepper.policy(u, policy), policy)
    assert np.array_equal(stepper.policy(u, (policy + 1) % lt.vgrid.size), policy)


def test_policy_keeps_current_velocity_on_ties():
    g = TorusGrid(16)
    vgrid = np.linspace(-2.0, 2.0, 9)
    stepper = MinPlusStepper(g, vgrid, 0.05, np.zeros((g.n, vgrid.size)))
    current = np.arange(g.n) % vgrid.size
    assert np.array_equal(stepper.policy(np.zeros(g.n), current), current)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 48), m=st.integers(1, 12), batch=st.sampled_from([None, 1, 5]),
       dt=st.floats(1e-3, 0.2), reach=st.floats(0.0, 0.5), c=st.floats(-50.0, 50.0),
       seed=st.integers(0, 2 ** 16))
def test_kernel_is_monotone_nonexpansive_and_commutes_with_constants(n, m, batch, dt, reach,
                                                                     c, seed):
    # a random cost table on a random velocity grid whose largest |v| gives dt*vmax = reach,
    # inside _check_step's 1/2; batch=None steps one function, else an (n, batch) batch
    rng = np.random.default_rng(seed)
    vgrid = rng.uniform(-1.0, 1.0, m)
    vgrid *= reach / dt / max(np.abs(vgrid).max(), 1e-300)
    cost = rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, m))
    kernel = MinPlusStepper(TorusGrid(n), vgrid, dt, cost)
    shape = (n,) if batch is None else (n, batch)
    u = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
    w = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
    Ku, Kw = kernel.step(u), kernel.step(w)
    assert Ku.shape == shape
    # a few roundings of the largest magnitude that enters a candidate
    rounding = 16 * np.finfo(float).eps * (np.abs(u).max() + np.abs(w).max() + abs(c)
                                           + dt * np.abs(cost).max())
    # monotone: products by weights >= 0, sums and the min preserve order in rounding too
    above = u + np.abs(w)
    assert np.all(Ku <= kernel.step(above))
    # sup-norm nonexpansive
    assert np.abs(Ku - Kw).max() <= np.abs(u - w).max() + rounding
    # K(u + c) = K(u) + c
    assert np.abs(kernel.step(u + c) - (Ku + c)).max() <= rounding
