import numpy as np
import pytest

from weakkam.expr import EvalError, ParseError, parse


def test_precedence_literal():
    assert parse("1+2*3").evaluate() == 7.0


def test_cos_identity():
    assert parse("cos(2*pi*x)").evaluate({"x": 0.0}) == pytest.approx(1.0, abs=1e-15)


def test_negated_square_hand_oracle():
    # oracle by hand-expanded arithmetic
    x = 1.0
    inner = x ** 2 - 0.5
    expected = -inner
    assert parse("-(x^2-0.5)").evaluate({"x": 1.0}) == pytest.approx(expected)
    assert expected == -0.5


def test_eval_trivials():
    assert parse("p^2").evaluate({"p": 3.0}) == 9.0
    assert parse("u*0").evaluate({"u": 1e9}) == 0.0


def test_min_compares_both_branches():
    x = 0.25
    left = x
    right = 1 - x
    expected = left if left < right else right
    assert parse("min(x,1-x)").evaluate({"x": x}) == expected


def test_subtraction_left_associative():
    rng = np.random.default_rng(3)
    e = parse("x-y-p")
    for _ in range(50):
        a, b, c = rng.normal(size=3)
        assert e.evaluate({"x": a, "y": b, "p": c}) == pytest.approx((a - b) - c)


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2").evaluate({"x": 2.0}) == -4.0
    assert parse("2^-2").evaluate() == 0.25
    assert parse("2^3^2").evaluate() == 512.0  # right associative


def test_numeric_literal_forms():
    assert parse(".5").evaluate() == 0.5
    assert parse("2.").evaluate() == 2.0
    assert parse("1e2").evaluate() == 100.0
    assert parse("1.5E-2").evaluate() == 0.015


@pytest.mark.parametrize("src", [
    "1+2*3",
    "-(x^2-0.5)",
    "cos(2*pi*x) + sin(x)*exp(-u)",
    "min(x, 1-x) * max(p, u)",
    "x/(1+y^2) - 2^-x",
    "sqrt(abs(p)) + log(2+u^2)",
    "-x^2 + y*u",
    "((x))",
    "1e-3*x + 2.5E2",
])
def test_pretty_print_round_trip(src):
    tree = parse(src)
    back = parse(str(tree))
    rng = np.random.default_rng(11)
    for _ in range(100):
        env = {name: rng.uniform(0.1, 2.0) for name in tree.variables()}
        assert back.evaluate(env) == pytest.approx(tree.evaluate(env), rel=1e-14)


def test_vectorized_matches_scalar():
    e = parse("cos(2*pi*x)*p + x^2")
    xs = np.linspace(0, 1, 17)
    vec = e.evaluate({"x": xs, "p": 0.7})
    for xi, vi in zip(xs, vec):
        assert vi == pytest.approx(e.evaluate({"x": xi, "p": 0.7}))


def test_broadcasting():
    e = parse("x*p")
    xs = np.arange(3.0)[:, None]
    ps = np.arange(4.0)[None, :]
    out = e.evaluate({"x": xs, "p": ps})
    assert out.shape == (3, 4)
    assert out[2, 3] == 6.0


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("1 + $")
    assert err.value.offset == 4


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(1+2")


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("q + 1")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("foo(2)")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="argument"):
        parse("sin(1,2)")
    with pytest.raises(ParseError, match="argument"):
        parse("min(1)")


def test_missing_binding():
    with pytest.raises(EvalError, match="missing binding"):
        parse("x+u").evaluate({"x": 1.0})


def test_domain_errors_are_reported():
    with pytest.raises(EvalError, match="division"):
        parse("1/x").evaluate({"x": 0.0})
    with pytest.raises(EvalError, match="log"):
        parse("log(x)").evaluate({"x": -1.0})
    with pytest.raises(EvalError, match="sqrt"):
        parse("sqrt(x)").evaluate({"x": -2.0})
    with pytest.raises(EvalError, match="nonfinite"):
        parse("exp(x)").evaluate({"x": 1e6})


def test_domain_error_on_array_binding():
    with pytest.raises(EvalError):
        parse("log(x)").evaluate({"x": np.array([1.0, 0.5, -0.1])})


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1+2 3")


def test_nodes_immutable():
    e = parse("x+1")
    with pytest.raises(Exception):
        e.op = "*"
