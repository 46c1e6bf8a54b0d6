import numpy as np
import pytest

from weakkam.errors import ConfigError
from weakkam.expr import parse
from weakkam.grid import TorusGrid, constant_field
from weakkam.hamiltonian import (HamiltonianSpec, builtin, legendre,
                                 spec_from_config, validate_spec)


@pytest.fixture(scope="module")
def g32():
    return TorusGrid(32)


def test_legendre_quadratic_zero_velocity(g32):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g32, 33, 33)
    j0 = int(np.argmin(np.abs(lt.vgrid)))
    assert lt.vgrid[j0] == 0.0
    assert np.allclose(lt.L[:, j0], 0.0, atol=1e-12)


def test_legendre_quadratic_self_duality(g32):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g32, 33, 33)
    j2 = int(np.argmin(np.abs(lt.vgrid - 2.0)))
    assert lt.vgrid[j2] == pytest.approx(2.0)
    assert np.allclose(lt.L[:, j2], 1.0, rtol=0, atol=1e-10)  # L(v) = v^2/4


def test_legendre_with_potential_brute_force(g32):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g32, 33, 33)
    ps = np.linspace(-4, 4, 100_000)
    rng = np.random.default_rng(5)
    for _ in range(5):
        i = rng.integers(0, g32.n)
        j = rng.integers(0, lt.m)
        x, v = g32.nodes[i], lt.vgrid[j]
        oracle = np.max(ps * v - (ps ** 2 + np.cos(2 * np.pi * x)))
        assert lt.L[i, j] == pytest.approx(oracle, abs=1e-8)
    # the worked value: x=0, v=2 gives L = 1 - 1 = 0
    i0, j2 = 0, int(np.argmin(np.abs(lt.vgrid - 2.0)))
    assert lt.L[i0, j2] == pytest.approx(0.0, abs=1e-10)


def test_sampled_supremum_lower_bound(g32):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g32, 33, 33)
    ps = np.linspace(-4, 4, 57)
    X = g32.nodes[:, None, None]
    V = lt.vgrid[None, :, None]
    P = ps[None, None, :]
    scores = P * V - (P ** 2 + np.cos(2 * np.pi * X))
    assert np.all(lt.L[:, :, None] >= scores - 1e-9)


def test_lagrangian_convex_in_velocity(g32):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    lt = legendre(spec, g32, 33, 33)
    mid = lt.L[:, 1:-1]
    avg = (lt.L[:, :-2] + lt.L[:, 2:]) / 2
    assert np.all(mid <= avg + 1e-9)


def test_biconjugacy_at_zero_momentum(g32):
    for name, params in [("eikonal", {"V": "cos(2*pi*x)"}),
                         ("linear_contact", {"a": 1.0, "V": 0}),
                         ("example_ex", {"phi": "sin(2*pi*x)/(2*pi)",
                                         "dphi": "cos(2*pi*x)",
                                         "theta": 0.5, "zeta": 1.0}),
                         ("corollary_a", {"a": "2+sin(2*pi*x)",
                                          "V": "cos(2*pi*x)", "c": 1.0})]:
        spec = builtin(name, params)
        lt = legendre(spec, g32, 33, 33)
        g0 = np.asarray(spec.G.evaluate({"x": g32.nodes, "p": 0.0 * g32.nodes}))
        assert np.max(np.abs(lt.L.min(axis=1) + g0)) < 1e-6


def test_legendre_monotone_in_G(g32):
    lo = builtin("eikonal", {"V": 0})
    hi = builtin("eikonal", {"V": 1.0})  # pointwise larger G
    lt_lo = legendre(lo, g32, 33, 33)
    lt_hi = legendre(hi, g32, 33, 33)
    assert np.all(lt_hi.L <= lt_lo.L + 1e-12)


def test_builtin_linear_contact():
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    assert spec.lambda_bound == pytest.approx(1.0)
    xs = np.linspace(0, 1, 7)
    assert np.allclose(np.asarray(spec.dWu.evaluate({"x": xs, "u": xs})), 1.0)


def test_builtin_example_derivative():
    # substitute dphi = cos(2 pi x): dWu = 0.5 - cos^2
    spec = builtin("example_ex", {"phi": "sin(2*pi*x)/(2*pi)",
                                  "dphi": "cos(2*pi*x)", "theta": 0.5, "zeta": 1.0})
    xs = np.linspace(0, 1, 33)
    expected = 0.5 - np.cos(2 * np.pi * xs) ** 2
    assert np.allclose(np.asarray(spec.dWu.evaluate({"x": xs, "u": 0 * xs})), expected, atol=1e-12)
    assert spec.lambda_bound == pytest.approx(0.5)


def test_builtin_example_stationary_identity():
    # W(x, phi(x)) must cancel G(x, phi'(x)) at the stationary solution
    spec = builtin("example_ex", {"phi": "sin(2*pi*x)/(2*pi)",
                                  "dphi": "cos(2*pi*x)", "theta": 0.5, "zeta": 1.0})
    xs = np.linspace(0, 1, 65)
    phi = np.sin(2 * np.pi * xs) / (2 * np.pi)
    dphi = np.cos(2 * np.pi * xs)
    total = (np.asarray(spec.G.evaluate({"x": xs, "p": dphi}))
             + np.asarray(spec.W.evaluate({"x": xs, "u": phi})))
    assert np.allclose(total, 0.0, atol=1e-12)


def test_builtin_corollary_lambda():
    spec = builtin("corollary_a", {"a": "2+sin(2*pi*x)", "V": "cos(2*pi*x)", "c": 1.0})
    assert spec.lambda_bound == pytest.approx(3.0)
    xs = np.linspace(0, 1, 9)
    assert np.allclose(np.asarray(spec.dWu.evaluate({"x": xs, "u": 0 * xs})),
                       2 + np.sin(2 * np.pi * xs))


def test_builtin_unknown_name_and_missing_param():
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin("nope", {})
    with pytest.raises(ConfigError, match="requires parameter"):
        builtin("eikonal", {})


def test_validate_rejects_bad_lambda():
    spec = HamiltonianSpec(G=parse("p^2"), W=parse("2*u"), dWu=parse("2"),
                           lambda_bound=1.0)
    with pytest.raises(ConfigError, match="Lambda"):
        validate_spec(spec)


def test_validate_rejects_dWu_that_is_not_dW_du():
    with pytest.raises(ConfigError, match=r"dWu = 2\*u\+1 is not dW/du.*at \(x=0, u=-5\)"):
        spec_from_config({"G": "p^2", "W": "u^2", "dWu": "2*u+1", "Lambda": 11.0})
    # nonlinear in u: the central difference agrees to its truncation error
    spec = spec_from_config({"G": "p^2", "W": "0.1*sin(u)*cos(2*pi*x)",
                             "dWu": "0.1*cos(u)*cos(2*pi*x)"})
    assert spec.lambda_bound == pytest.approx(0.1)


def test_validate_rejects_concave_G():
    with pytest.raises(ConfigError, match="convexity"):
        spec_from_config({"G": "-(p^2)", "W": "0", "dWu": "0"})


def test_truncation_warning():
    # argmax momentum v/(2*0.05) = 10 v leaves [-4, 4] for most velocities
    spec = HamiltonianSpec(G=parse("0.05*p^2"), W=parse("0"), dWu=parse("0"),
                           lambda_bound=0.0)
    g = TorusGrid(8)
    with pytest.warns(UserWarning, match="truncation"):
        legendre(spec, g, 17, 17)


def test_with_potential(g32):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g32, 33, 33)
    pot = constant_field(g32, 0.7)
    shifted = lt.with_potential(pot)
    assert np.allclose(shifted.L, lt.L - 0.7)


def test_velocity_grid_forced_odd(g32):
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g32, 48, 48)
    assert lt.m == 49
    assert 0.0 in lt.vgrid
