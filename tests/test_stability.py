import math

import numpy as np
import pytest

from conftest import DPHI_SRC, PHI_SRC
from weakkam import TorusGrid, builtin, legendre
from weakkam.cli import NUMERIC_KEYS
from weakkam.errors import ConfigError
from weakkam.expr import parse
from weakkam.grid import Field, constant_field, field_from_expr
from weakkam.hamiltonian import spec_from_config
from weakkam.semigroup import evolve, stationary_solve
from weakkam import critical as crit
from weakkam import stability as st


@pytest.fixture(scope="module")
def contact_pos():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    return g, spec, legendre(spec, g, 33, 33)


@pytest.fixture(scope="module")
def contact_neg():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": -1.0, "V": 0})
    return g, spec, legendre(spec, g, 33, 33)


def test_check_condition_constant_shift_stable(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    rep = st.check_condition(spec, um, "A3", lt=lt)
    assert rep.verdict == "holds"
    assert rep.zeta_found == 0.25
    # constant shift of a Hamiltonian shifts its critical value by the same amount
    assert rep.c_values[0.25] == pytest.approx(-0.25, abs=5e-3)
    assert rep.A_estimate == pytest.approx(1.0, abs=1e-6)


def test_check_condition_constant_shift_unstable(contact_neg):
    g, spec, lt = contact_neg
    um = constant_field(g, 0.0)
    rep = st.check_condition(spec, um, "A4", lt=lt)
    assert rep.verdict == "holds"
    assert rep.c_values[0.25] == pytest.approx(-0.25, abs=5e-3)
    assert rep.A_estimate == pytest.approx(-1.0, abs=1e-6)


def test_stability_and_instability_never_both_hold(contact_pos, contact_neg):
    for g, spec, lt in (contact_pos, contact_neg):
        um = constant_field(g, 0.0)
        r3 = st.check_condition(spec, um, "A3", lt=lt)
        r4 = st.check_condition(spec, um, "A4", lt=lt)
        assert not (r3.verdict == "holds" and r4.verdict == "holds")


def test_check_condition_rejects_negative_zeta_before_solving(contact_pos, monkeypatch):
    g, spec, lt = contact_pos

    def no_solve(*args, **kwargs):
        raise AssertionError("critical_value ran before the zeta grid was checked")

    monkeypatch.setattr(crit, "critical_value", no_solve)
    with pytest.raises(ValueError, match="positive"):
        st.check_condition(spec, constant_field(g, 0.0), "A3", zeta_grid=(0.25, -1.0), lt=lt)


def test_check_condition_rejects_empty_zeta_grid_before_solving(contact_pos, monkeypatch):
    # all() over no critical values would read as verdict "fails"
    g, spec, lt = contact_pos

    def no_solve(*args, **kwargs):
        raise AssertionError("critical_value ran on an empty zeta grid")

    monkeypatch.setattr(crit, "critical_value", no_solve)
    with pytest.raises(ValueError, match="empty"):
        st.check_condition(spec, constant_field(g, 0.0), "A3", zeta_grid=(), lt=lt)


def _critical_values_in_turn(results):
    """A critical_value stand-in returning the given (c, method) pairs in turn."""
    pending = iter(results)

    def fake(lt, **kwargs):
        c, method = next(pending)
        return crit.CriticalValueResult(c, method, None, {})

    return fake


@pytest.mark.parametrize("c", [-1.0, 1.0])
def test_check_condition_disagreement_is_inconclusive(contact_pos, monkeypatch, c):
    # a c whose discount and long-time estimates disagree supports neither "holds" nor "fails"
    g, spec, lt = contact_pos
    monkeypatch.setattr(st.crit, "critical_value", _critical_values_in_turn([(c, "discount")] * 5))
    rep = st.check_condition(spec, constant_field(g, 0.0), "A3", lt=lt)
    assert rep.verdict == "inconclusive"
    assert rep.zeta_found is None
    assert list(rep.c_values) == list(st.DEFAULT_ZETA_GRID)


def test_check_condition_holds_at_first_agreeing_zeta(contact_pos, monkeypatch):
    g, spec, lt = contact_pos
    monkeypatch.setattr(st.crit, "critical_value",
                        _critical_values_in_turn([(-1.0, "discount"), (-1.0, "agree")]))
    rep = st.check_condition(spec, constant_field(g, 0.0), "A3", lt=lt)
    assert rep.verdict == "holds"
    assert rep.zeta_found == 0.5


def test_example_instance_condition_value(example_setup):
    # the worked computation gives the shifted critical value -zeta*theta
    rep = st.check_condition(example_setup["spec"], example_setup["u_minus"],
                             "A3", lt=example_setup["lt"])
    assert rep.verdict == "holds"
    zeta = rep.zeta_found
    assert rep.c_values[zeta] == pytest.approx(-zeta * 0.5, abs=5e-3)
    assert rep.A_estimate == pytest.approx(0.5, abs=5e-3)


def test_decay_exponent_closed_form(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    slope = st.decay_exponent(spec, um, delta=0.1, T=6.0, dt=1e-3, lt=lt).slope
    assert slope == pytest.approx(-1.0, abs=5e-2)


def test_decay_window_shrinks_at_noise_floor(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    with pytest.warns(UserWarning, match="noise floor"):
        slope = st.decay_exponent(spec, um, delta=1e-13, T=16.0, dt=2e-3, lt=lt).slope
    assert slope <= 0.0


def test_decay_exponent_neutral_for_u_independent():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": 0})
    lt = legendre(spec, g, 33, 33)
    um = constant_field(g, 0.0)
    slope = st.decay_exponent(spec, um, delta=0.1, T=4.0, dt=1e-3, lt=lt).slope
    assert slope == pytest.approx(0.0, abs=5e-2)


def test_instability_probe_escape_times(contact_neg):
    g, spec, lt = contact_neg
    um = constant_field(g, 0.0)
    pr = st.instability_probe(spec, um, eps=0.01, Delta_target=0.5, T=8.0,
                              dt=1e-3, lt=lt)
    assert pr.t_escape is not None
    assert pr.t_escape == pytest.approx(math.log(50), abs=0.1)


def test_instability_probe_negative_result(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    pr = st.instability_probe(spec, um, eps=0.01, Delta_target=0.5, T=4.0,
                              dt=1e-3, lt=lt)
    assert pr.t_escape is None
    assert pr.devs[-1] < 0.01  # deviation decays


def test_instability_probe_stable_example(example_setup):
    pr = st.instability_probe(example_setup["spec"], example_setup["u_minus"],
                              eps=0.01, Delta_target=0.1, T=6.0, dt=1e-3,
                              lt=example_setup["lt"])
    assert pr.t_escape is None


def test_probe_validation(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    with pytest.raises(ValueError):
        st.instability_probe(spec, um, eps=1.5, Delta_target=2.0, T=1.0, dt=1e-3, lt=lt)
    with pytest.raises(ValueError):
        st.instability_probe(spec, um, eps=0.1, Delta_target=0.05, T=1.0, dt=1e-3, lt=lt)


def test_basin_global_contraction(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    assert st.basin_estimate(spec, um, T=12.0, dt=2e-3, delta_hi=1.0, lt=lt) == 1.0


def test_basin_zero_for_unstable(contact_neg):
    g, spec, lt = contact_neg
    um = constant_field(g, 0.0)
    assert st.basin_estimate(spec, um, T=12.0, dt=2e-3, delta_hi=1.0, lt=lt) == 0.0


def test_basin_positive_for_example(example_setup):
    basin = st.basin_estimate(example_setup["spec"], example_setup["u_minus"],
                              T=16.0, dt=2e-3, delta_hi=0.4,
                              lt=example_setup["lt"])
    assert basin > 0.0  # recorded for regression; no reference value asserted


def test_a3_implies_half_rate_decay(contact_pos):
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)
    rep = st.check_condition(spec, um, "A3", lt=lt)
    assert rep.verdict == "holds"
    basin = st.basin_estimate(spec, um, T=12.0, dt=2e-3, delta_hi=1.0, lt=lt)
    slope = st.decay_exponent(spec, um, delta=basin / 2, T=6.0, dt=1e-3, lt=lt).slope
    assert slope <= -rep.A_estimate / 2 + 5e-2


def _corollary(a, V, c):
    spec = builtin("corollary_a", {"a": a, "V": V, "c": c})
    return spec, legendre(spec, TorusGrid(64), 33, 33)


def test_corollary_holds():
    spec, lt = _corollary("2 + sin(2*pi*x)", "cos(2*pi*x)", 1.0)
    rep = st.check_corollary_a(spec, lt=lt)
    assert rep.verdict == "holds"
    assert rep.A_estimate == pytest.approx(2.0, abs=0.3)  # a near the contact point


def test_corollary_fails_when_a_vanishes_on_aubry():
    spec, lt = _corollary("sin(pi*x)^2", 0, 0)   # a vanishes at x = 0
    rep = st.check_corollary_a(spec, lt=lt)
    assert rep.verdict == "fails"


def test_corollary_fails_for_zero_a():
    spec, lt = _corollary(0, "cos(2*pi*x)", 1.0)
    rep = st.check_corollary_a(spec, lt=lt)
    assert rep.verdict == "fails"


def test_corollary_rejects_negative_a():
    spec, lt = _corollary(-0.1, 0, 0)
    with pytest.raises(ConfigError):
        st.check_corollary_a(spec, lt=lt)


@pytest.mark.parametrize("W, dWu", [
    # passes the load-time derivative check, yet is not a(x)*u: the steppers' exact test
    ("(2 + sin(2*pi*x))*u + 1e-9*u^2", "2 + sin(2*pi*x)"),
    ("(2 + sin(2*pi*x))*u + 0.1", "2 + sin(2*pi*x)"),
    ("2*u + 0.1*u^2", "2 + 0.2*u"),
])
def test_corollary_rejects_a_W_that_is_not_a_times_u(W, dWu):
    spec = spec_from_config({"G": "p^2 + cos(2*pi*x) - 1", "W": W, "dWu": dWu})
    with pytest.raises(ConfigError, match="W = a\\(x\\)\\*u"):
        st.check_corollary_a(spec, lt=legendre(spec, TorusGrid(64), 33, 33))


def test_corollary_disagreement_is_inconclusive(monkeypatch):
    spec, lt = _corollary("2 + sin(2*pi*x)", "cos(2*pi*x)", 1.0)
    monkeypatch.setattr(st.crit, "critical_value", _critical_values_in_turn([(0.0, "discount")]))
    rep = st.check_corollary_a(spec, lt=lt)
    assert rep.verdict == "inconclusive"
    assert rep.extra["critical_method"] == "discount"


def test_report_serializes(contact_pos):
    g, spec, lt = contact_pos
    rep = st.check_condition(spec, constant_field(g, 0.0), "A3", lt=lt)
    doc = rep.to_dict()
    assert doc["verdict"] == "holds"
    assert isinstance(doc["c_values"], dict)


def test_basin_bisection_keeps_recovering_midpoints(contact_pos, monkeypatch):
    # a stand-in deviation series that recovers exactly when delta <= 0.3
    g, spec, lt = contact_pos
    um = constant_field(g, 0.0)

    def series(spec, u_minus, offsets, T, dt, *, lt, every=st.SAMPLE_EVERY, stop=None):
        return [(np.array([T]), np.array([0.0 if abs(offset) <= 0.3 else abs(offset)]))
                for offset in offsets]

    monkeypatch.setattr(st, "deviation_series", series)
    # delta_hi = 1 fails; the six rounds test 1/2, 1/4, 3/8, 5/16, 9/32 and 19/64
    assert st.basin_estimate(spec, um, T=1.0, dt=1e-3, delta_hi=1.0, lt=lt) == 0.296875


def _basin_and_steps(monkeypatch, setup, honour_stop):
    """basin_estimate of setup with the total steps of its orbits; the probe
    either honours the stop rule or evolves every orbit over the whole horizon."""
    spec, um, lt, T, dt, delta_hi = setup
    series = st.deviation_series
    steps = []

    def probe(*args, stop=None, **kwargs):
        out = series(*args, stop=stop if honour_stop else None, **kwargs)
        steps.extend(round(times[-1] / dt) for times, _ in out)
        return out

    monkeypatch.setattr(st, "deviation_series", probe)
    basin = st.basin_estimate(spec, um, T=T, dt=dt, delta_hi=delta_hi, lt=lt)
    monkeypatch.undo()
    return basin, sum(steps)


# the horizons of the basin tests above, but 4 for contact_neg: its orbits never recover
@pytest.mark.parametrize("which, T", [("contact_pos", 12.0), ("contact_neg", 4.0),
                                      ("example_setup", 16.0)])
def test_basin_orbits_stop_at_the_deciding_sample(request, monkeypatch, which, T):
    # the first sample within delta/2 decides an orbit: stopping there changes no answer
    fix = request.getfixturevalue(which)
    if which == "example_setup":
        setup = (fix["spec"], fix["u_minus"], fix["lt"], T, 2e-3, 0.4)
    else:
        g, spec, lt = fix
        setup = (spec, constant_field(g, 0.0), lt, T, 2e-3, 1.0)
    basin, steps = _basin_and_steps(monkeypatch, setup, honour_stop=True)
    full_basin, full_steps = _basin_and_steps(monkeypatch, setup, honour_stop=False)
    assert basin == full_basin
    if basin > 0:
        assert steps < full_steps
    else:
        # an orbit that never recovers runs the whole horizon either way
        assert steps == full_steps


@pytest.mark.parametrize("every", [1, 7])
def test_deviation_series_of_several_offsets_is_each_orbit_alone(contact_pos, every):
    # one evolution over three copies: 0.05 stops at its first sample, 0.3 near
    # t = ln 1.5, and -0.6 runs to the horizon (with every = 7, 1000 steps end off a sample)
    g, spec, lt = contact_pos
    um = Field(g, 0.1 * np.sin(2 * np.pi * g.nodes))
    offsets = (0.3, -0.6, 0.05)

    def series(offs):
        return st.deviation_series(spec, um, offs, 1.0, 1e-3, lt=lt, every=every,
                                   stop=lambda d: d <= 0.2)

    together = series(offsets)
    assert len(together) == 3 and together[2][0].size == 1 and together[1][0][-1] == 1.0
    for offset, (times, devs) in zip(offsets, together):
        [(alone_t, alone_d)] = series([offset])
        assert np.array_equal(times, alone_t) and np.array_equal(devs, alone_d)


@pytest.mark.parametrize("which, T", [("contact_neg", 8.0), ("contact_pos", 2.0)])
def test_instability_probe_matches_a_per_step_evolution(request, which, T):
    g, spec, lt = request.getfixturevalue(which)
    um = constant_field(g, 0.0)
    eps, target, dt = 0.01, 0.5, 1e-3
    times, devs = [0.0], [eps]

    def watch(k, u):
        times.append(k * dt)
        devs.append(float(np.abs(u - um.values).max()))
        return devs[-1] >= target

    evolve(Field(g, um.values - eps), spec, lt, T, dt, observe=watch)
    pr = st.instability_probe(spec, um, eps=eps, Delta_target=target, T=T, dt=dt, lt=lt)
    assert np.array_equal(pr.times, times)
    assert np.array_equal(pr.devs, devs)
    escaped = devs[-1] >= target
    assert escaped == (which == "contact_neg")
    assert pr.t_escape == (times[-1] if escaped else None)


def test_decay_slope_at_the_default_dt_is_minus_theta():
    # example_ex at theta = 1/2 (n = 128, m = 49) at the CLI's default dt: the split
    # step's orbits decay at -theta to 1e-5 (the Euler contact term at dt = 1e-3 was
    # 1.2e-4 off, biased by about a^2 dt/2)
    dt = NUMERIC_KEYS["dt"][1]
    g = TorusGrid(128)
    spec = builtin("example_ex", {"phi": PHI_SRC, "dphi": DPHI_SRC, "theta": 0.5, "zeta": 1.0})
    lt = legendre(spec, g, 49, 49)
    rec = stationary_solve(field_from_expr(g, parse(PHI_SRC)), spec, lt, dt=dt, tol=1e-6,
                           T_max=40.0)
    um = Field(g, rec.require("u_-", 1e-6))
    assert abs(st.decay_exponent(spec, um, delta=0.05, T=8.0, dt=dt, lt=lt).slope + 0.5) <= 1e-5
