"""Exact calculus for products of linear forms with optional log factors.

An expression is a finite sum of terms

    c * prod_f f(z)^(e_f) * [log g(z)]

where every f is a linear form sum_j c_j z_j with rational coefficients,
exponents are (possibly negative) integers, and a term carries at most one
logarithm. The family is closed under z-differentiation: repeated
derivatives of f^(2k) log f eventually cancel every log coefficient, after
which evaluation is exact rational arithmetic.

No command builds a `LinExpr`: the checks differentiate q and the
potentials in closed form (`frobenius`). `LinExpr` is the reference the
tests compare those closed forms with (the symbolic builders of
`tests/fiber_oracles.py`), and `perfbench/optrace.py` still traces it.

The arithmetic is in integers: an expression keeps integer numerators over
one positive denominator, with no common factor, and a form is kept both
as its Fraction coefficients and as integer numerators over one
denominator, which `diff` multiplies by. A log factor keeps its form as it
is, scale included: log(s g) and log g differ by the constant log s.
Linear forms are interned: a `FormTable` gives each distinct coefficient
tuple a small int id, and a term key holds only ids and exponents, so no
operation hashes a rational. A family owns one table
(`ArrangementFamily.forms`) shared by all of its expressions; expressions
over two tables combine by re-interning the other side's forms. The values
of a table's forms at an exact fiber are computed once per fiber, from
integer numerators, and kept in that fiber's entry of the owner's
`core.FiberTables` (`ArrangementFamily.release_fibers` frees them);
`evaluate_exact` sums the terms over a common denominator.
"""

import cmath
import math
from fractions import Fraction

from .core import FiberTables


def linear_form(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def form_value(form, z):
    total = 0
    for c, zi in zip(form, z):
        if c:
            total += c * zi
    return total


def _integer_value(form, fiber):
    """(numerator, denominator) in lowest terms of a form, given as
    (integer numerators, denominator), at a fiber, given as one integer
    vector over one denominator; both denominators are positive."""
    (coeffs, den), (values, fiber_den) = form, fiber
    num = sum(c * v for c, v in zip(coeffs, values) if c)
    den *= fiber_den
    g = math.gcd(num, den)
    return num // g, den // g


class FormTable:
    """Interned linear forms: id -> coefficient tuple, and their values at
    exact fibers.

    Each form is kept as its Fraction coefficients and as integer
    numerators over one denominator, which `LinExpr.diff` reads with the
    lcm of those denominators. `fibers`
    (a `FiberTables`) maps an exact fiber to the dict of its per-fiber
    tables; the values of this table's forms go there under the key
    `FormTable`, so the owner of `fibers` frees them with the rest of the
    fiber. A table made without one keeps its own."""

    __slots__ = ("_forms", "_ints", "_den", "_ids", "_fibers")

    def __init__(self, fibers=None):
        self._forms = []
        self._ints = []
        self._den = 1  # lcm of the denominators of the interned forms
        self._ids = {}
        self._fibers = FiberTables() if fibers is None else fibers

    def __len__(self):
        return len(self._forms)

    def __getitem__(self, form_id):
        """The coefficient tuple of an interned form."""
        return self._forms[form_id]

    def intern(self, coeffs):
        form = linear_form(coeffs)
        try:
            return self._ids[form]
        except KeyError:
            form_id = self._ids[form] = len(self._forms)
            self._forms.append(form)
            den = math.lcm(*(c.denominator for c in form))
            self._ints.append((tuple(c.numerator * (den // c.denominator) for c in form), den))
            self._den = math.lcm(self._den, den)
            return form_id

    def values(self, zz):
        """(numerator, denominator) of every interned form at the rational
        fiber zz, each form evaluated once per fiber from its integer
        numerators (`_integer_value`); forms interned after the fiber's
        list was built are appended to it."""
        entry = self._fibers.entry(zz)
        values = entry.get(FormTable)
        if values is None:
            values = entry[FormTable] = []
        if len(values) < len(self._ints):
            den = math.lcm(*(v.denominator for v in zz))
            fiber = (tuple(v.numerator * (den // v.denominator) for v in zz), den)
            values.extend(_integer_value(form, fiber) for form in self._ints[len(values) :])
        return values


def _sorted_powers(powers):
    return tuple(sorted((f, e) for f, e in powers.items() if e))


def _add_to(nums, key, value):
    new = nums.get(key, 0) + value
    if new:
        nums[key] = new
    else:
        nums.pop(key, None)


def _reduced(nums, den, forms):
    """LinExpr of integer numerators over den > 0, with the gcd of den and
    every numerator divided out."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {key: v // g for key, v in nums.items()}
        den //= g
    out = LinExpr(forms=forms)
    out._nums, out.den = nums, den
    return out


class LinExpr:
    """Sum of rational multiples of monomials in linear forms, each term
    optionally multiplied by the log of one linear form.

    The coefficients are integer numerators over one positive denominator
    `den` per expression, with no common factor, so every operation on
    them is integer arithmetic. A term key is (powers, logform): powers a
    tuple of (form id, exponent) sorted on the id and logform a form id or
    None; the ids refer to `forms`, which is None only while every term is
    a constant."""

    __slots__ = ("_nums", "den", "forms")

    def __init__(self, terms=None, forms=None):
        # terms: term key -> rational coefficient
        coefs = {key: Fraction(c) for key, c in terms.items() if c} if terms else {}
        self.den = math.lcm(*(c.denominator for c in coefs.values()))
        self._nums = {
            key: c.numerator * (self.den // c.denominator) for key, c in coefs.items()
        }
        self.forms = forms

    @property
    def terms(self):
        """Term key -> rational coefficient."""
        return {key: Fraction(num, self.den) for key, num in self._nums.items()}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, coef, powers, log_form=None, forms=None):
        """coef * prod form^exp [* log log_form] with the forms given as
        coefficient sequences and interned in `forms` (a fresh table when
        None)."""
        if forms is None:
            forms = FormTable()
        clean = {}
        for form, exp in dict(powers).items():
            if exp:
                fid = forms.intern(form)
                clean[fid] = clean.get(fid, 0) + exp
        logform = forms.intern(log_form) if log_form else None
        return cls({(_sorted_powers(clean), logform): coef}, forms)

    def _aligned(self, other):
        """The table of a result combining self and other, and other's
        numerators keyed in it: other's forms are interned into self's
        table when the two differ."""
        mine, theirs = self.forms, other.forms
        if theirs is None or theirs is mine:
            return mine, other._nums
        if mine is None:
            return theirs, other._nums
        ids = {}
        nums = {}
        for (powers, logform), num in other._nums.items():
            moved = {}
            for fid, exp in powers:
                if fid not in ids:
                    ids[fid] = mine.intern(theirs[fid])
                moved[ids[fid]] = exp
            if logform is not None:
                if logform not in ids:
                    ids[logform] = mine.intern(theirs[logform])
                logform = ids[logform]
            nums[_sorted_powers(moved), logform] = num
        return mine, nums

    def is_zero(self):
        return not self._nums

    def has_log(self):
        return any(logform is not None for (_, logform) in self._nums)

    def __add__(self, other):
        forms, theirs = self._aligned(other)
        den = math.lcm(self.den, other.den)
        mine_mult, their_mult = den // self.den, den // other.den
        nums = {key: v * mine_mult for key, v in self._nums.items()}
        for key, v in theirs.items():
            _add_to(nums, key, v * their_mult)
        return _reduced(nums, den, forms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _reduced({key: -v for key, v in self._nums.items()}, self.den, self.forms)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return LinExpr(forms=self.forms)
        p = scalar.numerator
        nums = {key: v * p for key, v in self._nums.items()}
        return _reduced(nums, self.den * scalar.denominator, self.forms)

    def __mul__(self, other):
        if isinstance(other, LinExpr):
            forms, theirs = self._aligned(other)
            nums = {}
            for (p1, l1), c1 in self._nums.items():
                for (p2, l2), c2 in theirs.items():
                    if l1 is not None and l2 is not None:
                        raise ValueError("product would carry two log factors")
                    merged = dict(p1)
                    for fid, exp in p2:
                        merged[fid] = merged.get(fid, 0) + exp
                    key = (_sorted_powers(merged), l1 if l1 is not None else l2)
                    _add_to(nums, key, c1 * c2)
            return _reduced(nums, self.den * other.den, forms)
        return self.scale(other)

    __rmul__ = __mul__

    def diff(self, j):
        """Derivative in z_j (1-based), in integers: the slope of a form is
        its integer numerator over its denominator, and the new terms go
        over den times the lcm of the table's form denominators."""
        nums = {}
        ints, lcm = (self.forms._ints, self.forms._den) if self.forms is not None else ((), 1)
        for (powers, logform), num in self._nums.items():
            for idx, (fid, exp) in enumerate(powers):
                coeffs, den = ints[fid]
                slope = coeffs[j - 1]
                if not slope:
                    continue
                rest = list(powers)
                if exp == 1:
                    rest.pop(idx)
                else:
                    rest[idx] = (fid, exp - 1)
                _add_to(nums, (tuple(rest), logform), num * exp * slope * (lcm // den))
            if logform is not None:
                coeffs, den = ints[logform]
                slope = coeffs[j - 1]
                if slope:
                    merged = dict(powers)
                    merged[logform] = merged.get(logform, 0) - 1
                    _add_to(nums, (_sorted_powers(merged), None), num * slope * (lcm // den))
        return _reduced(nums, self.den * lcm, self.forms)

    def evaluate(self, z):
        """Value at z; exact Fraction when no log factor survives and z is
        rational, complex otherwise."""
        zz = tuple(z)
        if not self.has_log() and all(isinstance(v, (int, Fraction)) for v in zz):
            return self.evaluate_exact(zz)
        values = {}  # form id -> complex value, for the forms this uses

        def value_of(fid):
            if fid not in values:
                values[fid] = complex(form_value(self.forms[fid], zz))
            return values[fid]

        total = complex(0)
        den = self.den
        for (powers, logform), num in self._nums.items():
            value = complex(num / den)
            for fid, exp in powers:
                value *= value_of(fid) ** exp
            if logform is not None:
                value *= cmath.log(value_of(logform))
            total += value
        return total

    def evaluate_exact(self, z):
        """Exact rational value at a rational fiber; raises if a log factor
        survives. The forms' values come from the per-fiber table of the
        expression's form table, and the terms are summed as integers over
        a common denominator, reduced once at the end."""
        if self.has_log():
            raise ValueError("expression still carries a log factor")
        values = self.forms.values(tuple(z)) if self.forms is not None else ()
        total_num, total_den = 0, 1
        for (powers, _), num in self._nums.items():
            den = 1
            for fid, exp in powers:
                vnum, vden = values[fid]
                if exp > 0:
                    num *= vnum**exp
                    den *= vden**exp
                else:
                    num *= vden ** (-exp)
                    den *= vnum ** (-exp)
            if den < 0:
                num, den = -num, -den
            if den == total_den:
                total_num += num
            else:
                common = math.lcm(total_den, den)
                total_num = total_num * (common // total_den) + num * (common // den)
                total_den = common
        return Fraction(total_num, total_den * self.den)

    def __repr__(self):
        return f"LinExpr({len(self._nums)} terms)"
