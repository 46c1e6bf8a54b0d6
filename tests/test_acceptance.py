"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; timing budgets are asserted
after the numerical checks so a slow-but-correct run fails visibly as a
budget violation, not silently.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import DPHI_SRC, PHI_SRC, random_field
from weakkam import TorusGrid, builtin, legendre
from weakkam import critical as crit
from weakkam import homogenize as hz
from weakkam import mather
from weakkam import stability as st
from weakkam.expr import parse
from weakkam.grid import Field, constant_field, field_from_expr, sup_diff
from weakkam.hamiltonian import HamiltonianSpec, spec_from_config
from weakkam.semigroup import Stepper, evolve, stationary_solve
from weakkam.hamiltonian import frozen_values


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL "
              f"({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s / budget {budget_s}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"


def test_criterion_01_contact_ode_exactness():
    with criterion(1, "contact-ode-exactness", 5.0):
        g = TorusGrid(256)
        spec = builtin("linear_contact", {"a": 1.0, "V": 0})
        lt = legendre(spec, g, 65, 65)
        res = evolve(constant_field(g, 1.0), spec, lt, T=1.0, dt=1e-3)
        err = float(np.max(np.abs(res.values - math.exp(-1))))
        # the split step moves constant data by the exact flow of u' = -u: only
        # rounding is left over 1,000 steps (was 2e-3 for the Euler contact term)
        assert err <= 1e-12


def test_criterion_02_eikonal_critical_value(eikonal_cos_256):
    with criterion(2, "eikonal-critical-value", 30.0):
        spec, lt = eikonal_cos_256
        res = crit.critical_value(lt, cross_tol=2e-2)
        assert res.c == pytest.approx(1.0, abs=2e-2)
        assert res.method == "agree"
        assert res.diagnostics["gap"] <= 2e-2


def test_criterion_03_lp_critical_cross_check(example_setup):
    with criterion(3, "lp-critical-cross-check", 60.0):
        g = TorusGrid(128)
        cases = []
        eik = builtin("eikonal", {"V": "cos(2*pi*x)"})
        cases.append((legendre(eik, g, 48, 48), None))
        shifted = HamiltonianSpec(G=parse("(p+0.7)^2"), W=parse("0"),
                                  dWu=parse("0"), lambda_bound=0.0)
        cases.append((legendre(shifted, g, 48, 48), None))
        cases.append((example_setup["lt"],
                      frozen_values(example_setup["spec"].W, example_setup["grid"].nodes,
                                    example_setup["u_minus"].values)))
        for lt, pot in cases:
            table = lt if pot is None else lt.with_potential(pot)
            measure = mather.solve_occupational(table)
            cres = crit.critical_value(table)
            assert abs(measure.value + cres.c) <= 1e-2


def test_criterion_04_derivative_formula_consistency(example_setup):
    with criterion(4, "one-sided-derivative-formula", 120.0):
        eps_list = [-0.04, -0.02, 0.0, 0.02, 0.04]
        g = TorusGrid(128)
        for a in (1.0, -1.0):
            spec = builtin("linear_contact", {"a": a, "V": 0})
            lt = legendre(spec, g, 49, 49)
            um = constant_field(g, 0.0)
            curve = crit.c_eps_curve(spec, um, eps_list, lt=lt)
            measure = mather.solve_occupational(
                lt.with_potential(frozen_values(spec.W, um.grid.nodes, um.values)))
            dwu = Field(g, np.broadcast_to(
                np.asarray(spec.dWu.evaluate({"x": g.nodes, "u": um.values}), dtype=float),
                (g.n,)))
            lo = mather.extremal_integral(measure, dwu, "min")
            hi = mather.extremal_integral(measure, dwu, "max")
            assert abs(curve.D_minus - lo) <= 5e-2
            assert abs(curve.D_plus - hi) <= 5e-2
            assert lo == pytest.approx(a, abs=1e-6)   # exact constant integrand

        spec = example_setup["spec"]
        um = example_setup["u_minus"]
        lt = example_setup["lt"]
        curve = crit.c_eps_curve(spec, um, eps_list, lt=lt)
        measure = mather.solve_occupational(
            lt.with_potential(frozen_values(spec.W, um.grid.nodes, um.values)))
        dwu = Field(um.grid, np.asarray(spec.dWu.evaluate({"x": um.grid.nodes, "u": um.values})))
        lo = mather.extremal_integral(measure, dwu, "min")
        hi = mather.extremal_integral(measure, dwu, "max")
        assert abs(curve.D_minus - lo) <= 5e-2
        assert abs(curve.D_plus - hi) <= 5e-2
        assert lo == pytest.approx(0.5, abs=1e-2)     # the worked value theta


def test_criterion_05_decay_rate_example():
    with criterion(5, "asymptotic-decay-rate", 60.0):
        g = TorusGrid(128)
        spec = builtin("example_ex", {"phi": PHI_SRC, "dphi": DPHI_SRC,
                                      "theta": 0.5, "zeta": 1.0})
        lt = legendre(spec, g, 49, 49)
        phi = field_from_expr(g, parse(PHI_SRC))
        um = Field(g, stationary_solve(phi, spec, lt, dt=1e-3, tol=1e-6, T_max=40.0).values)
        rep = st.check_condition(spec, um, "A3", lt=lt)
        assert rep.verdict == "holds"
        assert rep.A_estimate == pytest.approx(0.5, abs=1e-2)
        slope = st.decay_exponent(spec, um, delta=0.05, T=8.0, dt=1e-3, lt=lt).slope
        assert slope <= -rep.A_estimate / 2


def test_criterion_06_instability_escape_times():
    with criterion(6, "instability-escape-times", 30.0):
        g = TorusGrid(256)
        spec = builtin("linear_contact", {"a": -1.0, "V": 0})
        lt = legendre(spec, g, 65, 65)
        um = constant_field(g, 0.0)
        p1 = st.instability_probe(spec, um, eps=0.01, Delta_target=0.5,
                                  T=8.0, dt=1e-3, lt=lt)
        assert p1.t_escape is not None and p1.t_escape == pytest.approx(math.log(50), abs=0.1)
        p2 = st.instability_probe(spec, um, eps=0.001, Delta_target=0.5,
                                  T=8.0, dt=1e-3, lt=lt)
        assert p2.t_escape is not None and p2.t_escape == pytest.approx(math.log(500), abs=0.1)


def test_criterion_07_global_stability_corollary():
    with criterion(7, "global-stability-corollary", 60.0):
        spec = builtin("corollary_a", {"a": "2 + sin(2*pi*x)",
                                       "V": "cos(2*pi*x)", "c": 1.0})
        rep = st.check_corollary_a(spec, lt=legendre(spec, TorusGrid(128), 49, 49))
        assert rep.verdict == "holds"

        g2 = TorusGrid(256)
        lt = legendre(spec, g2, 65, 65)
        up = evolve(constant_field(g2, 2.0), spec, lt, T=40.0, dt=2e-3)
        dn = evolve(constant_field(g2, -2.0), spec, lt, T=40.0, dt=2e-3)
        assert sup_diff(Field(g2, up.values), Field(g2, dn.values)) <= 1e-2


def test_criterion_08_homogenization_rate():
    with criterion(8, "homogenization-rate", 300.0):
        hp = hz.HomogProblem(H=parse("u + p^2 + 0.5*cos(2*pi*y)"),
                             dHu=parse("1"), Lambda1=1.0, Lambda2=1.0)
        res32 = hz.rate_experiment(hp, n_per_period=32)
        eps_sorted = sorted(res32.errors)
        errs = [res32.errors[e] for e in eps_sorted]
        assert errs == sorted(errs)              # monotone along the ladder
        assert res32.slope is not None and res32.slope >= 0.4
        res64 = hz.rate_experiment(hp, n_per_period=64, table=res32.table)
        ratio = res64.C_fit / res32.C_fit
        assert 0.8 <= ratio <= 1.2


def test_criterion_09_semigroup_property_suite():
    with criterion(9, "semigroup-property-suite", 60.0):
        g = TorusGrid(64)
        rng = np.random.default_rng(2024)
        dt = 1e-3
        suite = [
            builtin("eikonal", {"V": "cos(2*pi*x)"}),
            builtin("linear_contact", {"a": 1.0, "V": 0}),
            builtin("linear_contact", {"a": -1.0, "V": 0}),
            builtin("example_ex", {"phi": PHI_SRC, "dphi": DPHI_SRC,
                                   "theta": 0.5, "zeta": 1.0}),
            # W quadratic in u: Heun half flows
            spec_from_config({"G": "p^2 + 0.3*cos(2*pi*x)", "W": "u + 0.3*u^2",
                              "dWu": "1 + 0.6*u"}),
        ]
        for spec in suite:
            lt = legendre(spec, g, 33, 33)
            stepper = Stepper(spec, lt, dt)
            lam = spec.lambda_bound
            dwu_nonpos = bool(np.all(np.asarray(
                spec.dWu.evaluate({"x": g.nodes, "u": np.zeros(g.n)})) <= 1e-12))

            pairs = [(random_field(g, rng), random_field(g, rng))
                     for _ in range(50)]
            for u1, u2 in pairs:
                d0 = sup_diff(u1, u2)
                # the split step E(dt/2) K E(dt/2): each half flow is Lipschitz with
                # constant at most exp(lam dt/2) (max exp(-+a dt/2) for an affine W; the
                # Heun step's 1 + s + s^2/2 <= exp(s), s = -+dt/2 dWu, for a quadratic
                # one) and K is nonexpansive
                bound = math.exp(lam * dt) * d0 + 1e-12
                b1 = stepper.backward_values(u1.values)
                b2 = stepper.backward_values(u2.values)
                assert float(np.max(np.abs(b1 - b2))) <= bound
                f1 = stepper.forward_values(u1.values)
                f2 = stepper.forward_values(u2.values)
                assert float(np.max(np.abs(f1 - f2))) <= bound
                if dwu_nonpos:
                    lo = Field(g, np.minimum(u1.values, u2.values))
                    hi = Field(g, np.maximum(u1.values, u2.values))
                    assert np.all(stepper.backward_values(lo.values)
                                  <= stepper.backward_values(hi.values) + 1e-14)

            fields = [u for u, _ in pairs]
            c_scheme = max(
                float(np.max(stepper.forward_values(
                    stepper.backward_values(u.values)) - u.values)) / (2 * dt)
                for u in fields)
            steps = 20
            slack = 2 * steps * dt * c_scheme + 1e-12
            for u in fields:
                z = u.values.copy()
                for _ in range(steps):
                    z = stepper.backward_values(z)
                for _ in range(steps):
                    z = stepper.forward_values(z)
                assert np.all(z <= u.values + slack)
                w = u.values.copy()
                for _ in range(steps):
                    w = stepper.forward_values(w)
                for _ in range(steps):
                    w = stepper.backward_values(w)
                assert np.all(u.values <= w + slack)


def test_criterion_10_c_eps_lipschitz(example_setup):
    with criterion(10, "c-eps-lipschitz", 120.0):
        eps_list = [-0.04, -0.02, 0.0, 0.02, 0.04]
        g = TorusGrid(64)
        spec1 = builtin("linear_contact", {"a": 1.0, "V": 0})
        lt1 = legendre(spec1, g, 33, 33)
        curve1 = crit.c_eps_curve(spec1, constant_field(g, 0.0), eps_list, lt=lt1)
        assert curve1.lipschitz_slack(spec1.lambda_bound) <= 4e-2

        curve2 = crit.c_eps_curve(example_setup["spec"], example_setup["u_minus"],
                                  eps_list, lt=example_setup["lt"])
        assert curve2.lipschitz_slack(example_setup["spec"].lambda_bound) <= 4e-2


def test_criterion_11_mather_support_in_aubry_set(example_setup, eikonal_cos_128):
    with criterion(11, "mather-support-in-aubry-set", 120.0):
        cases = []
        spec_e, lt_e = eikonal_cos_128
        cases.append((lt_e, None))
        cases.append((example_setup["lt"],
                      frozen_values(example_setup["spec"].W, example_setup["grid"].nodes,
                                    example_setup["u_minus"].values)))
        for lt, pot in cases:
            n = lt.grid.n
            table = lt if pot is None else lt.with_potential(pot)
            measure = mather.solve_occupational(table)
            bt = mather.peierls_barrier(table)
            nodes = bt.aubry_indices
            support = np.nonzero(measure.node_mass() > 1e-6)[0]
            assert support.size > 0
            for i in support:
                dist = np.min(np.minimum(np.abs(nodes - i), n - np.abs(nodes - i)))
                assert dist <= 1
