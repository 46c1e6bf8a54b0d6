import functools
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
from weakkam.hamiltonian import HamiltonianSpec, frozen_values, spec_from_config
from weakkam import critical, hamiltonian, homogenize, semigroup
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
    # W = u: the split step moves a constant by the exact flow of u' = -+u
    g, spec, lt = contact_64
    delta, dt = 0.37, 1e-3
    u = constant_field(g, delta)
    st = Stepper(spec, lt, dt)
    out = Field(g, st.backward_values(u.values))
    assert np.allclose(out.values, delta * math.exp(-dt), rtol=0, atol=1e-15)
    out_f = Field(g, st.forward_values(u.values))
    assert np.allclose(out_f.values, delta * math.exp(dt), rtol=0, atol=1e-15)


BUILTIN_PARAMS = {
    "eikonal": {"V": "cos(2*pi*x)"},
    "linear_contact": {"a": 1.0, "V": "0.3*cos(2*pi*x)"},
    "example_ex": {"phi": PHI_SRC, "dphi": DPHI_SRC, "theta": 0.5, "zeta": 1.0},
    "corollary_a": {"V": "cos(2*pi*x)", "a": "2 + sin(2*pi*x)", "c": 1.0},
}


def _unfolded(spec, lt, dt, mode, u, sign):
    """One contact step from a bare kernel and the whole of W, as before folding: the
    explicit step of an affine W splits the kernel step between two half flows read off
    the unfolded formulas, a = dWu and b = W(x, 0)."""
    kernel = MinPlusStepper(lt.grid, -sign * lt.vgrid, dt, lt.L)

    def K(z):
        return kernel.step(z) if sign < 0 else -kernel.step(-z)

    parts = hamiltonian.affine_parts(spec.W, spec.dWu, lt.grid.nodes)
    if mode == "explicit" and parts is not None:
        alpha, beta = semigroup._affine_flow(*parts, -sign * dt / 2)
        return alpha * K(alpha * u + beta) + beta
    base = K(u)

    def corrected(z):
        return base + sign * dt * frozen_values(spec.W, lt.grid.nodes, z)

    z = corrected(u)
    return iterate(corrected, z, 1.0, 50, tol=1e-13).values if mode == "picard" else z


# W quadratic in u: its Stepper has no (a, b) pair and evaluates the folded formula
QUADRATIC_W = {"G": "p^2 + 0.3*cos(2*pi*x)", "W": "u + 0.3*u^2", "dWu": "1 + 0.6*u"}


def _spec(name):
    return spec_from_config(QUADRATIC_W) if name == "quadratic_W" else builtin(
        name, BUILTIN_PARAMS[name])


@pytest.mark.parametrize("name", sorted(BUILTIN_PARAMS) + ["quadratic_W"])
@pytest.mark.parametrize("mode", ["explicit", "picard"])
def test_folded_W_steps_bit_identically(name, mode):
    # pins the folded-formula path (quadratic_W); every builtin W is affine and steps by
    # its (a, b) arrays: explicitly by the half flows, in the Picard mode by a*u + b, equal
    # here to the whole of W only as W's roundings are absorbed
    g = TorusGrid(64)
    spec = _spec(name)
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


AFFINE_BUILTINS = ["example_ex", "linear_contact", "corollary_a"]
AFFINE_INLINE = {"G": "p^2 + cos(2*pi*x)", "W": "(2+sin(2*pi*x))*u", "dWu": "2+sin(2*pi*x)"}


@pytest.mark.parametrize("name", AFFINE_BUILTINS + ["inline"])
def test_affine_W_takes_the_array_path(name):
    spec = spec_from_config(AFFINE_INLINE) if name == "inline" else _spec(name)
    lt = legendre(spec, TorusGrid(64), 33, 33)
    st = Stepper(spec, lt, 1e-3, copies=2)
    a, b = st.affine
    zero = np.zeros(st.xs.size)
    assert np.array_equal(a, frozen_values(spec.dWu, st.xs, zero))
    assert np.array_equal(b, frozen_values(spec.W, st.xs, zero))


@pytest.mark.parametrize("W, dWu", [
    ("u + 0.3*u^2", "1 + 0.6*u"),
    # passes the load-time derivative check with dWu = 1; only the exact test catches it
    ("u + 1e-9*u^2", "1"),
    # affine, but dWu reads u
    ("u", "1 + 0*u"),
])
def test_other_W_takes_the_formula_path(W, dWu):
    spec = spec_from_config({"G": "p^2", "W": W, "dWu": dWu})
    assert Stepper(spec, legendre(spec, TorusGrid(64), 33, 33), 1e-3).affine is None


@pytest.mark.parametrize("name", AFFINE_BUILTINS)
@pytest.mark.parametrize("copies", [1, 2])
def test_affine_step_is_the_kernel_step_plus_a_multiply_add(name, copies):
    # the explicit step of an affine W is alpha*K(alpha*u + beta) + beta, a multiply-add
    # on each side of the kernel step, with (alpha, beta) the direction's half flow
    g = TorusGrid(64)
    spec = _spec(name)
    lt = legendre(spec, g, 33, 33)
    dt = 1e-3
    st = Stepper(spec, lt, dt, copies=copies)
    rng = np.random.default_rng(11)
    u = np.concatenate([random_field(g, rng).values for _ in range(copies)])
    L = np.tile(lt.L, (copies, 1))
    (ab, bb), (af, bf) = st._half[-1.0], st._half[+1.0]
    back = MinPlusStepper(g, lt.vgrid, dt, L).step(ab * u + bb)
    fwd = -MinPlusStepper(g, -lt.vgrid, dt, L).step(-(af * u + bf))
    assert np.array_equal(st.backward_values(u), ab * back + bb)
    assert np.array_equal(st.forward_values(u), af * fwd + bf)
    # each copy steps as if alone
    alone = Stepper(spec, lt, dt)
    for j in range(copies):
        rows = slice(j * g.n, (j + 1) * g.n)
        assert np.array_equal(st.backward_values(u)[rows], alone.backward_values(u[rows]))
        assert np.array_equal(st.forward_values(u)[rows], alone.forward_values(u[rows]))


# a(x) = sin(2 pi x) is exactly 0 at the node x = 0, where phi1 takes its limit 1
ZERO_A = {"G": "p^2", "W": "sin(2*pi*x)*u + cos(2*pi*x)", "dWu": "sin(2*pi*x)"}


@pytest.mark.parametrize("name", AFFINE_BUILTINS + ["zero_a"])
def test_half_flows_are_the_closed_form(name):
    # E(h) u = alpha*u + beta is the flow of u' = -+(a u + b) over h = dt/2:
    # alpha = exp(-+a h), beta = -+b h phi1(-+a h), phi1(z) = expm1(z)/z, phi1(0) = 1
    g = TorusGrid(64)
    spec = spec_from_config(ZERO_A) if name == "zero_a" else _spec(name)
    st = Stepper(spec, legendre(spec, g, 33, 33), 0.02)
    a, b = st.affine
    if name == "zero_a":
        assert a[0] == 0.0 and b[0] == 1.0
    for sign, (alpha, beta) in st._half.items():
        z = sign * a * 0.01
        phi1 = np.array([math.expm1(zi) / zi if zi else 1.0 for zi in z])
        assert np.allclose(alpha, np.exp(z), rtol=2e-16, atol=0)
        assert np.allclose(beta, sign * b * 0.01 * phi1, rtol=4e-16, atol=0)
        if name == "zero_a":
            assert (alpha[0], beta[0]) == (1.0, sign * 0.01)
        # the flow itself, against 200 RK4 steps of the ODE over h
        u0 = np.linspace(-1.0, 1.0, g.n)
        u, k = u0.copy(), 0.01 / 200
        for _ in range(200):
            k1 = sign * (a * u + b)
            k2 = sign * (a * (u + k / 2 * k1) + b)
            k3 = sign * (a * (u + k / 2 * k2) + b)
            k4 = sign * (a * (u + k * k3) + b)
            u = u + k / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.allclose(alpha * u0 + beta, u, rtol=0, atol=1e-13)


def test_affine_step_agrees_with_the_formula_step_to_rounding():
    # the Picard mode still reads an affine W as a*u + b; its step and the folded formula's
    # differ by W's own roundings, at most AFFINE_ULPS ulps of |W| + |a u| + |b| scaled by
    # dt, which the resolvent divides by at most 1 - dt*Lambda; the sum rounds once more
    g = TorusGrid(128)
    spec = _spec("example_ex")
    lt = legendre(spec, g, 49, 49)
    dt = 1e-3
    st = Stepper(spec, lt, dt, "picard")
    a, b = st.affine
    eps = np.finfo(float).eps
    for seed in range(5):
        u = random_field(g, np.random.default_rng(seed), scale=2.0).values
        for step, sign in ((st.backward_values, -1.0), (st.forward_values, +1.0)):
            out = step(u)
            formula = _unfolded(spec, lt, dt, "picard", u, sign)
            W = frozen_values(spec.W, g.nodes, out)
            terms = dt * hamiltonian.AFFINE_ULPS * eps * (np.abs(W) + np.abs(a * out) + np.abs(b))
            terms /= 1 - dt * spec.lambda_bound
            assert np.all(np.abs(out - formula) <= terms + 2 * eps * np.abs(formula) + 1e-16)


@pytest.mark.parametrize("name", ["example_ex", "quadratic_W"])
def test_newton_slope_is_dt_dWu_on_either_path(name):
    spec = _spec(name)
    lt = legendre(spec, TorusGrid(64), 33, 33)
    st = Stepper(spec, lt, 1e-3)
    assert (st.affine is None) == (name == "quadratic_W")
    u = random_field(lt.grid, np.random.default_rng(2)).values
    assert np.array_equal(st.newton_slope(u, None), 1e-3 * frozen_values(spec.dWu, st.xs, u))


def test_constant_data_exactness_with_x_dependent_W():
    # explicit step must equal the exact flow of du/dt = -G(x,0) - W(x,u), G(x,0) = 0
    g = TorusGrid(64)
    spec = HamiltonianSpec(G=parse("p^2"), W=parse("cos(2*pi*x)*u"),
                           dWu=parse("cos(2*pi*x)"), lambda_bound=1.0)
    lt = legendre(spec, g, 33, 33)
    dt = 1e-2
    u = constant_field(g, 0.8)
    out = Field(g, Stepper(spec, lt, dt).backward_values(u.values))
    exact = 0.8 * np.exp(-dt * np.cos(2 * np.pi * g.nodes))
    assert np.allclose(out.values, exact, rtol=0, atol=1e-15)


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
    assert np.allclose(r2.values - r1.values, 0.37, rtol=0, atol=1e-13)


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


def _split_march(phi0, spec, lt, dt, tol, T_max):
    """The pure march of an affine W's stationary solve: w -> E(dt) K(w) from
    E(dt/2) phi0 to tol within T_max, its record's values mapped back by E(-dt/2)."""
    st = Stepper(spec, lt, dt)
    alpha, beta = semigroup._affine_flow(*st.affine, dt)
    (a0, b0), (a1, b1) = st._half[-1.0], st._half[+1.0]
    rec = iterate(lambda w: alpha * st._back.step(w) + beta, a0 * phi0.values + b0, dt,
                  math.ceil(T_max / dt), tol)
    rec.values = a1 * rec.values + b1
    return rec


@pytest.mark.parametrize("theta, dt", [(0.5, 4e-3), (0.5, 1e-3), (1.0, 4e-3)])
def test_stationary_solve_is_a_fixed_point_of_the_split_step(theta, dt):
    # u_- = S(u_-) to tol for S = E(dt/2) K E(dt/2), measured by one more real step
    g, tol = TorusGrid(128), 1e-6
    spec = builtin("example_ex", dict(BUILTIN_PARAMS["example_ex"], theta=theta))
    lt = legendre(spec, g, 49, 49)
    rec = stationary_solve(field_from_expr(g, parse(PHI_SRC)), spec, lt, dt=dt, tol=tol,
                           T_max=40.0)
    after = Stepper(spec, lt, dt).backward_values(rec.values)
    assert rec.converged and rec.newton >= 1
    assert np.abs(after - rec.values).max() / dt == rec.residual <= tol


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
    # W-free: J = I - P_pi is singular (no Newton iteration completes), so the solve
    # falls back to the march, whose half flows are the identity: values and steps are
    # the pure march's, bit for bit (the drifting V never hands over), and the residual
    # and converged flag those of one more real step
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": V})
    lt = legendre(spec, g, 33, 33)
    zero = constant_field(g, 0.0)
    rec = stationary_solve(zero, spec, lt, dt=1e-3, tol=1e-10, T_max=T_max)
    ref = _march(zero, spec, lt, 1e-3, 1e-10, T_max)
    check = iterate(Stepper(spec, lt, 1e-3).backward_values, ref.values, 1e-3, 1, 1e-10)
    assert np.array_equal(rec.values, ref.values)
    assert (rec.steps, rec.residual, rec.converged, rec.newton) == (
        ref.steps, check.residual, check.converged, 0)


def test_unsettled_newton_resumes_the_march():
    # example_ex at theta = -0.2: the policies cycle, Newton stops at its cap and the
    # solve falls back to the pure march
    g = TorusGrid(64)
    spec = builtin("example_ex", dict(BUILTIN_PARAMS["example_ex"], theta=-0.2))
    lt = legendre(spec, g, 33, 33)
    phi = field_from_expr(g, parse(PHI_SRC))
    rec = stationary_solve(phi, spec, lt, dt=1e-3, tol=1e-6, T_max=0.5)
    ref = _split_march(phi, spec, lt, 1e-3, 1e-6, 0.5)
    assert not rec.converged and rec.newton == semigroup.MAX_NEWTON
    assert np.array_equal(rec.values, ref.values) and rec.steps == ref.steps == 500


@pytest.mark.parametrize("a, newton, converged", [(1e-9, 1, False), (1e-6, 5, True)])
def test_numerically_singular_newton_matrix_resumes_the_march(monkeypatch, a, newton,
                                                             converged):
    # W = a*u on a drifting eikonal (critical value 1): the fixed point is u ~ -1/a, and
    # the Newton step toward it is sup|F|/(dt*a) long; d = dt*a > 0, so Newton starts at
    # u0.  Beyond MAX_GAIN = 1e10 times sup|F| (a = 1e-9) J counts as singular, from u0
    # and again after the one-step march prefix (MARCH_TO = inf), and the solve falls
    # back to the march; at a = 1e-6 Newton from u0 reaches it with no march
    g = TorusGrid(32)
    spec = HamiltonianSpec(G=parse("p^2 + cos(2*pi*x)"), W=parse(f"{a}*u"),
                           dWu=parse(f"{a}"))
    stepper = Stepper(spec, legendre(spec, g, 17, 17), 1e-3)
    monkeypatch.setattr(semigroup, "MARCH_TO", math.inf)

    def correct(base, u):
        return stepper._resolve(base, u, -1.0)

    rec = semigroup.fixed_point(stepper._back, correct, lambda u, policy: (1.0, 1e-3 * a),
                                np.zeros(g.n), 1e-6, 100)
    assert (rec.newton, rec.converged) == (newton, converged)
    if converged:
        assert rec.steps == 0 and rec.values.max() == pytest.approx(-1.0 / a, rel=1e-3)
    else:
        ref = iterate(lambda u: correct(stepper._back.step(u), u), np.zeros(g.n), 1e-3, 100,
                      1e-6)
        assert rec.steps == 100 and np.array_equal(rec.values, ref.values)


@pytest.mark.parametrize("params, phi_src, T_max, newton", [
    # theta < 0: the policies cycle and Newton stops at its cap
    (("example_ex", dict(BUILTIN_PARAMS["example_ex"], theta=-0.2)), PHI_SRC, 0.5,
     semigroup.MAX_NEWTON),
    # W-free: J = I - P_pi is singular, so no Newton iteration completes
    (("eikonal", {"V": "cos(2*pi*x) - 1"}), "0", 8.0, 0),
], ids=["cycling-policy", "singular-J"])
def test_failed_newton_returns_the_pure_march(params, phi_src, T_max, newton):
    # the record is iterate's from u0 field for field, with Newton's count; the guard
    # sees the march prefix, Newton's iterates, then the march again from step 1
    g = TorusGrid(64)
    spec = builtin(*params)
    stepper = Stepper(spec, legendre(spec, g, 33, 33), 1e-3)
    dWu = spec.dWu.fold({"x": stepper.xs})
    u0 = field_from_expr(g, parse(phi_src)).values
    max_steps = math.ceil(T_max / 1e-3)
    seen = []

    def correct(base, u):
        return stepper._resolve(base, u, -1.0)

    def step(u):
        return correct(stepper._back.step(u), u)

    rec = semigroup.fixed_point(stepper._back, correct,
                                lambda u, policy: (1.0, 1e-3 * frozen_values(dWu, stepper.xs, u)),
                                u0, 1e-10, max_steps, guard=lambda u, at: seen.append(at))
    ref = iterate(step, u0, 1e-3, max_steps, 1e-10)
    assert np.array_equal(rec.values, ref.values)
    assert (rec.steps, rec.residual, rec.converged, rec.newton) == (
        ref.steps, ref.residual, ref.converged, newton)
    prefix = iterate(step, u0, 1e-3, max_steps, semigroup.MARCH_TO).steps
    assert 0 < prefix < ref.steps
    assert seen == ([f"step {k}" for k in range(1, prefix + 1)]
                    + [f"Newton iteration {k}" for k in range(1, newton + 1)]
                    + [f"step {k}" for k in range(1, ref.steps + 1)])


@pytest.mark.parametrize("cap, newton", [(31, False), (32, True)])
def test_newton_stage_only_on_small_grids(monkeypatch, cap, newton):
    # a grid of more than NEWTON_MAX_N nodes marches to tol, bit for bit the pure march
    monkeypatch.setattr(semigroup, "NEWTON_MAX_N", cap)
    g = TorusGrid(32)
    spec = builtin("linear_contact", {"a": 1.0, "V": "0.3*cos(2*pi*x)"})
    lt = legendre(spec, g, 17, 17)
    zero = constant_field(g, 0.0)
    rec = stationary_solve(zero, spec, lt, dt=1e-2, tol=1e-6, T_max=100.0)
    ref = _split_march(zero, spec, lt, 1e-2, 1e-6, 100.0)
    assert rec.converged and (rec.newton > 0) == newton
    if not newton:
        assert np.array_equal(rec.values, ref.values) and rec.steps == ref.steps


def test_affine_stationary_solve_marches_before_newton():
    # the split step's derivative is (alpha, 0): d = 0, so no Newton from u0, and the
    # solve is the march to MARCH_TO, then Newton from there (fixed_point with no march
    # of its own), bit for bit
    g, dt = TorusGrid(32), 1e-2
    spec = builtin("linear_contact", {"a": 1.0, "V": "0.3*cos(2*pi*x)"})
    lt = legendre(spec, g, 17, 17)
    st = Stepper(spec, lt, dt)
    alpha, beta = semigroup._affine_flow(*st.affine, dt)
    (a0, b0), (a1, b1) = st._half[-1.0], st._half[+1.0]

    def correct(base, w):
        return alpha * base + beta

    march = iterate(lambda w: correct(st._back.step(w), w), b0 + a0 * np.zeros(g.n), dt,
                    10 ** 4, semigroup.MARCH_TO)
    newton = semigroup.fixed_point(st._back, correct, lambda w, pi: (alpha, 0.0),
                                   march.values, 1e-6, 0)
    rec = stationary_solve(constant_field(g, 0.0), spec, lt, dt=dt, tol=1e-6, T_max=100.0)
    assert march.converged and march.steps > 0 and newton.converged and rec.converged
    assert np.array_equal(rec.values, a1 * newton.values + b1)
    assert (rec.steps, rec.newton) == (march.steps, newton.newton)


def test_discounted_solve_is_newton_from_its_start_with_no_fallback(monkeypatch):
    # d = lam*dt > 0: with a march to fall back on, fixed_point also starts Newton at u0
    # and returns the same record; with none (max_steps = 0) a failed Newton raises
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), TorusGrid(32), 17, 17)
    lam, dt = 1e-2, critical.DEFAULT_DT
    kernel = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    first = semigroup.fixed_point(kernel, lambda base, u: base - lam * dt * u,
                                  lambda u, pi: (1.0, lam * dt), np.zeros(lt.grid.n),
                                  critical.DEFAULT_TOL, 10 ** 4)
    u = critical.discounted_solve(lt, lam, dt)
    assert first.converged and first.steps == 0 and first.newton >= 1
    assert np.array_equal(u.values, first.values)
    monkeypatch.setattr(semigroup, "MAX_NEWTON", 0)
    with pytest.raises(ConvergenceError, match=r"after 0 steps and 0 Newton iterations"):
        critical.discounted_solve(lt, lam, dt)


def _stationary_contact():
    g = TorusGrid(32)
    spec = builtin("linear_contact", {"a": 1.0, "V": "0.3*cos(2*pi*x)"})
    stationary_solve(constant_field(g, 0.0), spec, legendre(spec, g, 17, 17), dt=1e-2,
                     tol=1e-6, T_max=100.0)


def _discounted_eikonal():
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), TorusGrid(32), 17, 17)
    critical.discounted_solve(lt, 1e-2)


def _effective_potential():
    x, p, c = np.linspace(0, 1, 16, endpoint=False), np.linspace(-2, 2, 17), np.linspace(-1, 1, 5)
    values = (c[None, None, :] + p[None, :, None] ** 2
              + 0.3 * np.cos(2 * np.pi * x)[:, None, None])
    homogenize.solve_effective(homogenize.EffectiveTable(x, p, c, values, 1.0), n_slow=64)


@pytest.mark.parametrize("module, solve", [
    (semigroup, _stationary_contact), (critical, _discounted_eikonal),
    (homogenize, _effective_potential)], ids=["stationary", "discounted", "effective"])
def test_a_newton_iteration_gathers_once(monkeypatch, module, solve):
    # F and the Howard policy are read from the one candidate table of a kernel step
    records, gathers = [], []
    fixed_point, apply = module.fixed_point, semigroup.GatherPlan.apply

    def spy(*args, **kwargs):
        records.append(fixed_point(*args, **kwargs))
        return records[-1]

    def counted(plan, u):
        gathers.append(u.size)
        return apply(plan, u)

    monkeypatch.setattr(module, "fixed_point", spy)
    monkeypatch.setattr(semigroup.GatherPlan, "apply", counted)
    solve()
    [rec] = records
    assert rec.converged and rec.newton > 0
    # the discounted and effective solves take Newton from u0 (d > 0); the stationary
    # solve of an affine W (d = 0) marches first
    assert (rec.steps == 0) == (module is not semigroup)
    # the march's steps, one per Newton iteration and the step that certifies; the
    # stationary solve also steps u0 once, reading d = 0 from it, and certifies u_- by
    # one more real split step
    assert len(gathers) == rec.steps + rec.newton + 1 + 2 * (module is semigroup)


def test_fixed_point_guard_names_the_newton_iteration():
    # u' = u - dt (u + 1/2) marches toward -1/2; the guard refuses u < -0.45, which the
    # march does not reach before its residual is 0.1, but Newton's first iterate does:
    # from u0 (d = dt > 0), which hands over to the march, and again after the march,
    # which raises
    g = TorusGrid(16)
    kernel = MinPlusStepper(g, np.linspace(-1.0, 1.0, 5), 1e-2, np.zeros((g.n, 5)))
    seen = []

    def guard(u, at):
        seen.append(at)
        if u.min() < -0.45:
            raise ConvergenceError(f"left at {at}")

    with pytest.raises(ConvergenceError, match="left at Newton iteration 1$"):
        semigroup.fixed_point(kernel, lambda base, u: base - 1e-2 * (u + 0.5),
                              lambda u, policy: (1.0, 1e-2), np.zeros(g.n), 1e-6, 10 ** 4,
                              guard=guard)
    assert seen[:3] == ["Newton iteration 1", "step 1", "step 2"]
    assert seen[-2].startswith("step ")


def test_evolve_aborts_on_nonfinite():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": -1.0, "V": 0, "vmax": 1.0})
    lt = legendre(spec, g, 33, 33)
    # the half flow overflows before the kernel, whose zero weights then meet inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError,
                                                                     match="nonfinite"):
        evolve(constant_field(g, 700.0), spec, lt, T=900.0, dt=0.4)


# a u-dependent, x-dependent contact term: W folded at the nodes leaves sin(u) and the
# product with u to every step
_COPIES_SPEC = HamiltonianSpec(G=parse("p^2 + 0.3*cos(2*pi*x)"),
                               W=parse("0.5*cos(2*pi*x)*u + 0.3*sin(u)"),
                               dWu=parse("0.5*cos(2*pi*x) + 0.3*cos(u)"), lambda_bound=0.8)
# W = -a(x) u with a of both signs: large data grows without bound in both directions
_GROWTH_SPEC = HamiltonianSpec(G=parse("p^2"), W=parse("-cos(2*pi*x)*u"),
                               dWu=parse("-cos(2*pi*x)"), lambda_bound=1.0)


@functools.lru_cache(maxsize=None)
def _copies_table(n: int, growth: bool):
    spec = _GROWTH_SPEC if growth else _COPIES_SPEC
    return spec, legendre(spec, TorusGrid(n), 17, 17)


def _evolve_seen(phi, spec, lt, T, dt, direction):
    """The record of phi's evolution and the iterates its observer saw."""
    seen = []
    rec = evolve(phi, spec, lt, T, dt, direction, lambda k, u: seen.append(u.copy()))
    return rec, seen


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([8, 24]), k=st.integers(1, 4),
       direction=st.sampled_from(["backward", "forward"]), steps=st.integers(1, 40),
       dt=st.sampled_from([1e-3, 0.02, 0.1]), seed=st.integers(0, 2 ** 16))
def test_evolve_steps_each_copy_as_if_alone(n, k, direction, steps, dt, seed):
    spec, lt = _copies_table(n, False)
    rng = np.random.default_rng(seed)
    starts = [random_field(lt.grid, rng, scale=rng.uniform(0.1, 5.0)) for _ in range(k)]
    rec, seen = _evolve_seen(starts, spec, lt, steps * dt, dt, direction)
    assert rec.steps == steps and rec.values.shape == (k * n,) and len(seen) == steps
    for j, phi in enumerate(starts):
        one, alone = _evolve_seen(phi, spec, lt, steps * dt, dt, direction)
        copy = slice(j * n, (j + 1) * n)
        assert np.array_equal(rec.values[copy], one.values)
        assert all(np.array_equal(u[copy], v) for u, v in zip(seen, alone))


def _nonfinite_step(phi, spec, lt, T, dt, direction):
    """The error of phi's evolution, or None if it stays finite over T."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            evolve(phi, spec, lt, T, dt, direction)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 4), direction=st.sampled_from(["backward", "forward"]),
       data=st.data())
def test_evolve_raises_at_the_first_copy_to_turn_nonfinite(k, direction, data):
    # copies of scale 1 stay finite; 1e305 .. 1e308 overflow after about 75 .. 1 steps,
    # toward -inf backward (the min picks the lowest foot point) and +inf forward
    spec, lt = _copies_table(16, True)
    x = lt.grid.nodes
    sign = -1.0 if direction == "backward" else 1.0
    scales = data.draw(st.lists(st.sampled_from([1.0, 1e305, 1e306, 1e307, 1e308]),
                                min_size=k, max_size=k))
    starts = [Field(lt.grid, sign * scale * (1 + 0.5 * np.sin(2 * np.pi * (x + j / 7))))
              for j, scale in enumerate(scales)]
    errors = [_nonfinite_step(phi, spec, lt, 10.0, 0.1, direction) for phi in starts]
    failed = [e for e in errors if e is not None]
    assert (len(failed) == 0) == all(scale == 1.0 for scale in scales)
    first = min(failed, key=lambda e: int(e.split("step ")[1].split()[0]), default=None)
    assert _nonfinite_step(starts, spec, lt, 10.0, 0.1, direction) == first


def test_picard_mode_refuses_copies():
    spec, lt = _copies_table(8, False)
    Stepper(spec, lt, 0.02, "picard")
    Stepper(spec, lt, 0.02, copies=3)
    with pytest.raises(ValueError, match="picard"):
        Stepper(spec, lt, 0.02, "picard", copies=2)


def test_stepper_builds_only_the_kernel_that_steps():
    spec, lt = _copies_table(8, False)
    stepper = Stepper(spec, lt, 0.02)
    stepper.backward_values(np.zeros(8))
    assert "_back" in vars(stepper) and "_fwd" not in vars(stepper)


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


def test_batch_step_of_copies_is_the_gather_of_each_velocity():
    # an (N, B) batch over k = 3 copies is u[idx0[j]]*w0 + u[idx1[j]]*w1 + dt*L at each
    # velocity j, minimized over j, bit for bit: each copy's foot rows are its own slices
    copies = 3
    g = TorusGrid(24)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 17, 17)
    cost = np.tile(lt.L, (copies, 1))
    kernel = MinPlusStepper(g, lt.vgrid, 0.03, cost)
    u = np.random.default_rng(7).normal(size=(copies * g.n, 5))
    p = kernel.plan
    ref = np.min([u[p.idx0[j]] * p.w0[j, :1] + u[p.idx1[j]] * p.w1[j, :1]
                  + 0.03 * cost[:, j, None] for j in range(lt.vgrid.size)], axis=0)
    assert np.array_equal(kernel.step(u), ref)


def test_policy_matrix_reproduces_the_step():
    g = TorusGrid(32)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 17, 17)
    stepper = MinPlusStepper(g, lt.vgrid, 0.02, lt.L)
    u = np.random.default_rng(3).normal(size=g.n)
    stepped = stepper.step(u)
    policy = stepper.policy()
    P = stepper.plan.matrix(policy)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    step = P @ u + 0.02 * lt.L[np.arange(g.n), policy]
    assert np.allclose(step, stepped, rtol=0, atol=1e-14)
    # the argmin policy is kept; a worse current velocity is replaced
    assert np.array_equal(stepper.policy(policy), policy)
    assert np.array_equal(stepper.policy((policy + 1) % lt.vgrid.size), policy)


@pytest.mark.parametrize("copies", [1, 2])
def test_gather_matrix_reproduces_apply(copies):
    g = TorusGrid(32)
    vgrid = np.linspace(-3.0, 3.0, 17)
    plan = semigroup.GatherPlan(g, vgrid, 0.03, copies)
    # full (m, N) weights, one value per velocity
    assert plan.w0.shape == plan.w1.shape == plan.idx0.shape == (vgrid.size, copies * g.n)
    assert plan.w0.flags.c_contiguous and plan.w1.flags.c_contiguous
    assert np.all(plan.w0 == plan.w0[:, :1]) and np.all(plan.w1 == plan.w1[:, :1])
    rng = np.random.default_rng(copies)
    policy = rng.integers(0, vgrid.size, copies * g.n)
    u = rng.normal(size=copies * g.n)
    rows = np.arange(u.size)
    gathered = plan.apply(u)[policy, rows]
    assert np.allclose(plan.matrix(policy) @ u, gathered, rtol=0,
                       atol=4 * np.finfo(float).eps * np.abs(u).max())


def test_policy_keeps_current_velocity_on_ties():
    g = TorusGrid(16)
    vgrid = np.linspace(-2.0, 2.0, 9)
    stepper = MinPlusStepper(g, vgrid, 0.05, np.zeros((g.n, vgrid.size)))
    current = np.arange(g.n) % vgrid.size
    stepper.step(np.zeros(g.n))
    assert np.array_equal(stepper.policy(current), current)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 48), m=st.integers(1, 12), batch=st.sampled_from([None, 1, 5]),
       copies=st.integers(1, 4), dt=st.floats(1e-3, 0.2), reach=st.floats(0.0, 0.5),
       c=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 16))
def test_kernel_is_monotone_nonexpansive_and_commutes_with_constants(n, m, batch, copies, dt,
                                                                     reach, c, seed):
    # a random cost table on a random velocity grid whose largest |v| gives dt*vmax = reach,
    # inside _check_step's 1/2; batch=None steps one function, else an (N, batch) batch;
    # a table of copies*n rows steps that many disjoint copies of the torus, N = copies*n
    rng = np.random.default_rng(seed)
    vgrid = rng.uniform(-1.0, 1.0, m)
    vgrid *= reach / dt / max(np.abs(vgrid).max(), 1e-300)
    cost = rng.normal(scale=rng.uniform(0.1, 100.0), size=(copies * n, m))
    kernel = MinPlusStepper(TorusGrid(n), vgrid, dt, cost)
    shape = (copies * n,) if batch is None else (copies * n, batch)
    u = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
    w = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
    Ku, Kw = kernel.step(u), kernel.step(w)
    assert Ku.shape == shape
    # the buffered step is the min of a freshly built candidate table, bit for bit;
    # each copy steps as if alone
    if batch is None:
        p = kernel.plan
        fresh = u[p.idx0] * p.w0 + u[p.idx1] * p.w1 + dt * cost.T
        assert np.array_equal(Ku, fresh.min(axis=0))
    for j in range(copies):
        rows = slice(j * n, (j + 1) * n)
        alone = MinPlusStepper(TorusGrid(n), vgrid, dt, cost[rows])
        assert np.array_equal(Ku[rows], alone.step(np.ascontiguousarray(u[rows])))
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
