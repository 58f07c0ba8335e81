import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arrfrob.linforms import FormTable, LinExpr, form_value, linear_form


def _sym_of_form(form, zs):
    return sum(sympy.Rational(c.numerator, c.denominator) * z for c, z in zip(form, zs))


def _sym_of_expr(expr, zs):
    # term keys hold interned form ids; expr.forms gives their coefficients
    total = sympy.Integer(0)
    for (powers, logf), coef in expr.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for form, exp in powers:
            term *= _sym_of_form(expr.forms[form], zs) ** exp
        if logf is not None:
            term *= sympy.log(_sym_of_form(expr.forms[logf], zs))
        total += term
    return total


def _random_coefficient(rng, lo, hi, rational):
    return F(rng.randint(lo, hi), rng.randint(1, 5) if rational else 1)


def _random_expr(rng, nvars, with_log=False, rational=False):
    # rational: the forms' coefficients are not all integers
    expr = LinExpr.zero()
    for _ in range(rng.randint(1, 3)):
        powers = {}
        for _ in range(rng.randint(0, 2)):
            form = linear_form(
                [_random_coefficient(rng, -3, 3, rational) for _ in range(nvars)]
            )
            if any(form):
                powers[form] = powers.get(form, 0) + rng.randint(1, 2)
        logf = None
        if with_log and rng.random() < 0.5:
            cand = linear_form([_random_coefficient(rng, -2, 2, rational) for _ in range(nvars)])
            if any(cand):
                logf = cand
        coef = F(rng.randint(-4, 4), rng.randint(1, 3))
        if coef:
            expr = expr + LinExpr.monomial(coef, powers, log_form=logf)
    return expr


def test_form_value():
    form = linear_form([F(1), F(-2), F(3)])
    assert form_value(form, (F(1), F(1), F(1))) == F(2)


def test_diff_matches_sympy():
    rng = random.Random(17)
    zs = sympy.symbols("z1 z2 z3")
    for _ in range(30):
        expr = _random_expr(rng, 3, with_log=True)
        j = rng.randint(1, 3)
        ours = _sym_of_expr(expr.diff(j), zs)
        theirs = sympy.diff(_sym_of_expr(expr, zs), zs[j - 1])
        assert sympy.simplify(ours - theirs) == 0


def test_product_matches_sympy():
    rng = random.Random(23)
    zs = sympy.symbols("z1 z2")
    for _ in range(20):
        a = _random_expr(rng, 2)
        b = _random_expr(rng, 2)
        ours = _sym_of_expr(a * b, zs)
        theirs = _sym_of_expr(a, zs) * _sym_of_expr(b, zs)
        assert sympy.simplify(ours - theirs) == 0


def test_product_of_two_logs_rejected():
    form = linear_form([F(1), F(0)])
    a = LinExpr.monomial(F(1), {}, log_form=form)
    with pytest.raises(ValueError):
        a * a


def test_evaluate_exact_requires_log_free():
    form = linear_form([F(1), F(1)])
    expr = LinExpr.monomial(F(1), {form: 1}, log_form=form)
    with pytest.raises(ValueError):
        expr.evaluate_exact((F(1), F(1)))
    # after enough derivatives the log disappears: d^2/dz1^2 (f log f) = 1/f
    d = expr.diff(1).diff(1)
    assert not d.has_log()
    assert d.evaluate_exact((F(1), F(1))) == F(1, 2)


def test_evaluate_with_log_is_complex():
    import cmath

    form = linear_form([F(1), F(0)])
    expr = LinExpr.monomial(F(2), {}, log_form=form)
    val = expr.evaluate((F(3), F(0)))
    assert abs(val - 2 * cmath.log(3)) < 1e-14


def test_diff_path_commutes():
    rng = random.Random(31)
    for _ in range(10):
        expr = _random_expr(rng, 3, with_log=True)
        assert expr.diff(1).diff(2).terms == expr.diff(2).diff(1).terms


def test_same_expression_built_in_two_orders_has_equal_terms():
    rng = random.Random(41)
    forms = FormTable()
    coeffs = [
        (F(rng.randint(1, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(4)
    ]
    m = [
        LinExpr.monomial(F(i + 1, 3), {c: i - 1}, forms=forms)
        for i, c in enumerate(coeffs)
    ]
    logged = LinExpr.monomial(F(2), {coeffs[0]: 2}, log_form=coeffs[1], forms=forms)
    left = ((m[0] * m[1]) + m[2]) * m[3] + logged
    right = logged + m[3] * (m[2] + m[1] * m[0])
    assert left.terms == right.terms
    assert left.diff(2).diff(3).terms == right.diff(3).diff(2).terms
    # term keys hold interned ids, never the forms' rationals
    for (powers, logform), _ in left.terms.items():
        assert all(type(fid) is int and type(exp) is int for fid, exp in powers)
        assert logform is None or type(logform) is int


def test_expressions_of_two_families_do_not_mix():
    from fiber_oracles import potential_quadratic_derivative_expr

    from arrfrob.core import load_family

    weights = ["2", "3", "5", "7"]
    a = load_family({"k": 2, "n": 4, "b": [[1, 0], [0, 1], [1, 1], [1, 2]], "weights": weights})
    b = load_family({"k": 2, "n": 4, "b": [[1, 0], [0, 1], [1, 3], [2, 1]], "weights": weights})
    pa = potential_quadratic_derivative_expr(a, ())
    pb = potential_quadratic_derivative_expr(b, ())
    assert pa.forms is a.forms and pb.forms is b.forms
    # the same ids name different forms in the two tables
    assert a.forms[0] != b.forms[0]
    z = (F(1), F(-2, 3), F(5), F(7, 2))
    va, vb = pa.evaluate_exact(z), pb.evaluate_exact(z)
    assert va != vb
    size_b = len(b.forms)
    assert (pa + pb).evaluate_exact(z) == va + vb
    assert (pa - pb).evaluate_exact(z) == va - vb
    assert (pa * pb).evaluate_exact(z) == va * vb
    # combining re-interns into the left side's table; the other is untouched
    assert len(b.forms) == size_b
    assert pb.evaluate_exact(z) == vb
    # each family keeps its form values in its own fiber entry
    assert a.fiber_entry(z)[FormTable] != b.fiber_entry(z)[FormTable]


def test_form_values_are_computed_once_per_fiber(monkeypatch):
    import arrfrob.linforms as linforms

    calls = []
    real = linforms._integer_value

    def spy(form, fiber):
        calls.append((form, fiber))
        return real(form, fiber)

    monkeypatch.setattr(linforms, "_integer_value", spy)
    forms = FormTable()
    # the forms and fibers below as integer numerators over one denominator
    f, g = ((1, 2), 1), ((-1, 3), 1)
    expr = LinExpr.monomial(F(1, 2), {(F(1), F(2)): 2, (F(-1), F(3)): -1}, forms=forms)
    expr = expr + LinExpr.monomial(3, {(F(-1), F(3)): 1}, forms=forms)
    z, w = (F(1), F(1)), (F(2), F(-1, 3))
    zi, wi = ((1, 1), 1), ((6, -1), 3)
    value = expr.evaluate_exact(z)
    assert expr.evaluate_exact(z) == value == F(9, 2) / 2 + 6
    assert sorted(calls) == sorted([(f, zi), (g, zi)])
    # a form interned later is evaluated once, on first use at the fiber
    h = ((0, 1), 1)
    later = LinExpr.monomial(1, {(F(0), F(1)): 3}, forms=forms)
    assert later.evaluate_exact(z) == 1
    assert expr.evaluate_exact(w) == expr.evaluate_exact(w)
    assert sorted(calls) == sorted([(f, zi), (g, zi), (h, zi), (f, wi), (g, wi), (h, wi)])


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_form_values_are_the_rational_values(data):
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 8))
    forms = FormTable()
    ids = [
        forms.intern(data.draw(st.lists(rational, min_size=3, max_size=3)))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    coordinate = st.one_of(rational, st.integers(-5, 5))
    zz = tuple(data.draw(st.lists(coordinate, min_size=3, max_size=3)))
    values = forms.values(zz)
    for fid in ids:
        value = F(form_value(forms[fid], zz))
        assert values[fid] == (value.numerator, value.denominator)


def test_rational_forms_diff_and_multiply_as_sympy():
    rng = random.Random(53)
    zs = sympy.symbols("z1 z2 z3")
    for _ in range(12):
        expr = _random_expr(rng, 3, with_log=True, rational=True)
        other = _random_expr(rng, 3, rational=True)
        j = rng.randint(1, 3)
        ours = _sym_of_expr(expr.diff(j), zs)
        theirs = sympy.diff(_sym_of_expr(expr, zs), zs[j - 1])
        assert sympy.simplify(ours - theirs) == 0
        product = _sym_of_expr(expr * other, zs) - _sym_of_expr(expr, zs) * _sym_of_expr(other, zs)
        assert sympy.simplify(product) == 0


def test_rational_forms_evaluate_exactly_as_sympy():
    rng = random.Random(59)
    zs = sympy.symbols("z1 z2 z3")
    for _ in range(30):
        expr = _random_expr(rng, 3, rational=True).diff(rng.randint(1, 3))
        z = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in zs)
        exact = _sym_of_expr(expr, zs).subs(
            {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip(zs, z)}
        )
        if not exact.is_finite:
            continue  # z lies on a pole
        assert expr.evaluate_exact(z) == F(int(exact.p), int(exact.q))


def test_log_of_a_scaled_form_keeps_its_scale():
    # f = (2/3)(z1 + 3 z2): log f = log(2/3) + log(z1 + 3 z2), so the
    # value of the log term depends on the scale, its derivatives do not
    zs = sympy.symbols("z1 z2")
    form = linear_form([F(2, 3), F(2)])
    expr = LinExpr.monomial(F(5, 7), {form: 2}, log_form=form)
    z = (F(3, 2), F(1, 4))
    symbolic = _sym_of_expr(expr, zs)
    at = {zs[0]: sympy.Rational(3, 2), zs[1]: sympy.Rational(1, 4)}
    assert abs(expr.evaluate(z) - complex(symbolic.subs(at).evalf(30))) < 1e-14
    unscaled = LinExpr.monomial(F(5, 7) * F(2, 3) ** 2, {(1, 3): 2}, log_form=(1, 3))
    assert abs(expr.evaluate(z) - unscaled.evaluate(z)) > 1e-3
    for j in (1, 2):
        ours = _sym_of_expr(expr.diff(j), zs)
        assert sympy.simplify(ours - sympy.diff(symbolic, zs[j - 1])) == 0
    third = expr.diff(1).diff(2).diff(2)
    assert not third.has_log()
    assert third.evaluate_exact(z) == F(
        str(sympy.diff(symbolic, zs[0], zs[1], zs[1]).subs(at))
    )
