"""The formula grammar, checked against random trees, random text and fixed cases."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakkam.expr import ALLOWED_VARIABLES, EvalError, Expr, ParseError, parse

PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40}
ATOM = 100
ARITY = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}
ENV = {"x": np.array([-1.5, -0.25, 0.0, 0.75, 2.0]), "y": 0.5, "p": -1.25, "u": 3.0,
       "v": 0.0, "eps": 1e-3}

literals = st.from_regex(r"([0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})([eE][+-]?[0-9]{1,3})?",
                         fullmatch=True)
leaves = st.one_of(literals.map(lambda s: ("num", s)),
                   st.sampled_from(ALLOWED_VARIABLES + ("pi",)).map(lambda s: ("name", s)))


def _extend(children):
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.tuples(st.just("bin"), st.sampled_from("+-*/^"), children, children),
        st.sampled_from(sorted(ARITY)).flatmap(
            lambda f: st.tuples(st.just("call"), st.just(f),
                                st.lists(children, min_size=ARITY[f], max_size=ARITY[f]))))


trees = st.recursive(leaves, _extend, max_leaves=24)
spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


class OracleError(Exception):
    pass


def _finite(val):
    if not np.all(np.isfinite(val)):
        raise OracleError
    return val


def oracle(tree):
    """The tree's value by the documented semantics, with the same numpy ops."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "name":
        return math.pi if tree[1] == "pi" else ENV[tree[1]]
    if kind == "neg":
        return -oracle(tree[1])
    if kind == "bin":
        a, b = oracle(tree[2]), oracle(tree[3])
        op = tree[1]
        if op == "/" and np.any(b == 0):
            raise OracleError
        return _finite({"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                        "/": lambda: a / b, "^": lambda: np.power(a, b)}[op]())
    name, args = tree[1], [oracle(t) for t in tree[2]]
    if name == "log" and np.any(args[0] <= 0) or name == "sqrt" and np.any(args[0] < 0):
        raise OracleError
    fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs,
          "sqrt": np.sqrt, "min": np.minimum, "max": np.maximum}[name]
    out = fn(*args)
    return _finite(out) if name == "exp" else out


def precedence(tree):
    if tree[0] == "neg":
        return PREC["neg"]
    return PREC[tree[1]] if tree[0] == "bin" else ATOM


def render(tree, draw):
    """Source text with the fewest parentheses the documented precedence needs."""
    def sub(child, need_parens):
        text = render(child, draw)
        if need_parens or draw(st.integers(0, 9)) == 0:
            return f"({draw(spaces)}{text}{draw(spaces)})"
        return text

    kind = tree[0]
    if kind in ("num", "name"):
        return tree[1]
    if kind == "neg":
        # the operand of unary minus extends over ^ and further minus signs only
        return f"-{draw(spaces)}{sub(tree[1], precedence(tree[1]) < PREC['neg'])}"
    if kind == "call":
        args = f"{draw(spaces)},{draw(spaces)}".join(sub(a, False) for a in tree[2])
        return f"{tree[1]}{draw(spaces)}({draw(spaces)}{args}{draw(spaces)})"
    op, prec = tree[1], PREC[tree[1]]
    if op == "^":   # right associative; -y may follow ^ unparenthesised
        left = sub(tree[2], precedence(tree[2]) <= prec)
        right = sub(tree[3], precedence(tree[3]) < PREC["neg"])
    else:
        left = sub(tree[2], precedence(tree[2]) < prec)
        right = sub(tree[3], precedence(tree[3]) <= prec)
    return f"{left}{draw(spaces)}{op}{draw(spaces)}{right}"


def outcome(fn):
    try:
        return fn()
    except (EvalError, OracleError):
        return "domain error"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_trees_parse_evaluate_and_print_back(data):
    tree = data.draw(trees)
    text = data.draw(spaces) + render(tree, data.draw) + data.draw(spaces)
    e = parse(text)
    with np.errstate(all="ignore"):
        want = outcome(lambda: oracle(tree))
    got = outcome(lambda: e.evaluate(ENV))
    if isinstance(want, str):
        assert got == want, text
    else:
        np.testing.assert_array_equal(got, want, err_msg=text)
        assert np.shape(got) == np.shape(want)
    back = parse(str(e))
    again = outcome(lambda: back.evaluate(ENV))
    if isinstance(got, str):
        assert again == got
    else:
        np.testing.assert_array_equal(again, got, err_msg=str(e))
    assert back.variables() == e.variables()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([(), ("x",), ("x", "u"), ("x", "y", "u"),
                                   ("p", "v", "eps"), tuple(ENV)]))
def test_fold_evaluates_bit_identically(data, fixed):
    e = parse(render(data.draw(trees), data.draw))
    want = outcome(lambda: e.evaluate(ENV))
    folded = outcome(lambda: e.fold({name: ENV[name] for name in fixed}))
    if isinstance(folded, str):    # a fixed-only subtree's domain error surfaces at fold
        assert want == folded, str(e)
        return
    assert folded.variables() == e.variables() - set(fixed)
    got = outcome(lambda: folded.evaluate(ENV))
    if isinstance(want, str):
        assert got == want, str(e)
    else:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), str(e)
    # equal exactly when no fixed value is read: then every evaluation is the same
    assert (folded == e) == e.variables().isdisjoint(fixed)


def test_fold_reads_only_the_remaining_names():
    e = parse("sin(2*pi*x)*u + log(y)")
    folded = e.fold({"x": np.array([0.0, 0.25]), "y": 2.0})
    assert folded.variables() == {"u"}
    assert np.array_equal(folded.evaluate({"u": 3.0}),
                          e.evaluate({"x": np.array([0.0, 0.25]), "y": 2.0, "u": 3.0}))
    with pytest.raises(EvalError, match="missing"):
        folded.evaluate({"x": 1.0})
    with pytest.raises(EvalError, match="log"):
        e.fold({"y": 0.0})
    assert e.fold({"y": 2.0}) == e.fold({"y": 2.0, "v": 5.0})   # v is not read
    assert e.fold({"y": 2.0}) != e.fold({"y": 3.0})


def test_fold_holds_its_values_read_only():
    xs = np.array([0.0, 0.5])
    folded = parse("x + 1").fold({"x": xs})
    xs[0] = 9.0                                             # the binding is copied
    out = folded.evaluate()
    assert np.array_equal(out, [1.0, 1.5])
    with pytest.raises(ValueError):
        out[0] = 0.0


def test_fold_too_deep_is_an_eval_error():
    e = parse("+".join(["x"] * 800))
    assert e.fold({"x": 1.0}).evaluate() == 800.0
    assert e.fold({}).evaluate({"x": 1.0}) == 800.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        with pytest.raises(EvalError, match="deep"):
            e.fold({"x": 1.0})
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="xupie0123456789._+-*/^(), \n\tsncolgabqrtm")))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        e = parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert isinstance(e, Expr)


@pytest.mark.parametrize("src, offset", [
    ("+x", 0),                  # unary plus
    ("x < 1", 2),               # comparison
    ("x % 2", 2),
    ("x // 2", 2),
    ("x.real", 1),              # attribute
    ("x[0]", 1),                # subscript
    ("x, 1", 1),                # tuple
    ("(x, 1)", 0),
    ("True", 0),
    ("1_0", 0),
    ("0x10", 0),
    ("1j", 0),
    ("lambda x: x", 8),         # ':' is not in the grammar
    ("1 if x else 2", 2),       # conditional
    ("not x", 0),
    ("sin + 1", 0),             # a function name used as a value
    ("x(2)", 1),
    ("min(x, *u)", 7),
    ("min(x, ^u)", 7),          # Python would read **u as a keyword argument
    ("min(x, u,)", 9),
    ("x**2", 1),                # the power operator is ^
    ("x # comment", 2),
    ("'x'", 0),
    ("x \\\n + 1", 2),
    ("x^2 + q", 6),             # offsets after a ^ point into the original text
    # Python's own syntax errors; their offsets vary with the Python version
    ("x^^2", None),
    ("1)+(2", None),
    ("lambda", None),
    ("", None),
])
def test_rejected(src, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    if offset is None:
        assert 0 <= err.value.offset <= len(src)
    else:
        assert err.value.offset == offset


@pytest.mark.parametrize("depth", [3000, 20000])   # Python's own parser gives up on 20000
def test_unary_minus_chain_too_deep_is_a_parse_error(depth):
    with pytest.raises(ParseError, match="deep"):
        parse("-" * depth + "x")


def test_parenthesis_nesting_limit():
    assert parse("(" * 150 + "x" + ")" * 150).evaluate({"x": 2.0}) == 2.0
    with pytest.raises(ParseError):
        parse("(" * 300 + "x" + ")" * 300)


def test_long_sum_parses_evaluates_and_prints():
    e = parse("+".join(["x"] * 800))
    assert e.evaluate({"x": 1.0}) == 800.0
    assert parse(str(e)) == e


@pytest.mark.parametrize("op, x, y", [
    ("+", 1e308, 1e308), ("-", 1e308, -1e308), ("*", 1e200, 1e200),
    ("/", 1e300, 1e-300), ("^", 10.0, 400.0),
])
def test_every_operation_checks_finiteness(op, x, y):
    with pytest.raises(EvalError, match="nonfinite"):
        parse(f"sin(x {op} y)").evaluate({"x": x, "y": y})


def test_whitespace_is_insignificant():
    assert parse(" x +\n 1").evaluate({"x": 1.0}) == 2.0
    assert parse("\tmin (x ,\r\n 2 ) ^ 2").evaluate({"x": 3.0}) == 4.0


def test_leading_zeros_and_exponent_forms():
    assert parse("007 + 1e-007").evaluate() == 7.0 + 1e-7
    assert parse("1e999").evaluate() == math.inf


def test_equality_and_hash_by_value():
    assert parse("x+1") == parse("x+1")
    assert hash(parse("x+1")) == hash(parse("x+1"))
    assert parse("(x) + 1") == parse("x+1")
    assert parse("x+1") != parse("x+2")
    assert parse("1") == parse("1.0")


def test_expressions_are_immutable():
    e = parse("x+1")
    with pytest.raises(AttributeError):
        e.anything = 1
