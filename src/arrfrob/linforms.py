"""Exact calculus for products of linear forms with optional log factors.

An expression is a finite sum of terms

    c * prod_f f(z)^(e_f) * [log g(z)]

where every f is a linear form sum_j c_j z_j with rational coefficients,
exponents are (possibly negative) integers, and a term carries at most one
logarithm. The family is closed under z-differentiation, which is the whole
point: repeated derivatives of f^(2k) log f eventually cancel every log
coefficient, after which evaluation is exact rational arithmetic.

Linear forms are interned: a `FormTable` gives each distinct coefficient
tuple a small int id, and a term key holds only those ids and exponents, so
building and differentiating expressions never hashes a rational. Every
expression carries the table its ids refer to; a family owns one table
(`ArrangementFamily.forms`) shared by all of its expressions, and
expressions over two tables combine by re-interning the other side's forms.
The values of a table's forms at an exact fiber are computed once per
fiber and kept in that fiber's entry of the owner's per-fiber tables
(`ArrangementFamily.release_fibers` frees them); `evaluate_exact` reads
them there and sums the terms in integer arithmetic over a common
denominator.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def linear_form(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def form_value(form, z):
    total = 0
    for c, zi in zip(form, z):
        if c:
            total += c * zi
    return total


def _is_rational(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


class FormTable:
    """Interned linear forms: id -> coefficient tuple, and their values at
    exact fibers.

    `fibers` maps an exact fiber to the dict of its per-fiber tables; the
    values of this table's forms go there under the key `FormTable`, so
    the owner of `fibers` frees them with the rest of the fiber. A table
    made without one keeps its own."""

    __slots__ = ("_forms", "_ids", "_fibers")

    def __init__(self, fibers=None):
        self._forms = []
        self._ids = {}
        self._fibers = {} if fibers is None else fibers

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
            return form_id

    def values(self, zz):
        """(numerator, denominator) of every interned form at the rational
        fiber zz, each form evaluated once per fiber; forms interned after
        the fiber's list was built are appended to it."""
        entry = self._fibers.setdefault(zz, {})
        values = entry.get(FormTable)
        if values is None:
            values = entry[FormTable] = []
        for form in self._forms[len(values) :]:
            value = Fraction(form_value(form, zz))
            values.append((value.numerator, value.denominator))
        return values


def _sorted_powers(powers):
    return tuple(sorted((f, e) for f, e in powers.items() if e))


class LinExpr:
    """Sum of rational multiples of monomials in linear forms, each term
    optionally multiplied by the log of one linear form."""

    __slots__ = ("terms", "forms")

    def __init__(self, terms=None, forms=None):
        # key: (powers, logform) with powers a tuple of (form id, exp)
        # sorted on the id and logform a form id or None; the ids refer to
        # `forms`, which is None only while every term is a constant
        self.terms = dict(terms) if terms else {}
        self.forms = forms

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
        out = cls(forms=forms)
        clean = {}
        for form, exp in dict(powers).items():
            if exp:
                fid = forms.intern(form)
                clean[fid] = clean.get(fid, 0) + exp
        logform = forms.intern(log_form) if log_form else None
        out._accumulate(_sorted_powers(clean), logform, Fraction(coef))
        return out

    def _accumulate(self, powers, logform, coef):
        if coef == 0:
            return
        key = (powers, logform)
        old = self.terms.get(key)
        new = coef if old is None else old + coef
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def _aligned(self, other):
        """The table of a result combining self and other, and other's
        terms keyed in it: other's forms are interned into self's table
        when the two differ."""
        mine, theirs = self.forms, other.forms
        if theirs is None or theirs is mine:
            return mine, other.terms
        if mine is None:
            return theirs, other.terms
        ids = {}
        terms = {}
        for (powers, logform), coef in other.terms.items():
            moved = {}
            for fid, exp in powers:
                if fid not in ids:
                    ids[fid] = mine.intern(theirs[fid])
                moved[ids[fid]] = exp
            if logform is not None:
                if logform not in ids:
                    ids[logform] = mine.intern(theirs[logform])
                logform = ids[logform]
            terms[_sorted_powers(moved), logform] = coef
        return mine, terms

    def is_zero(self):
        return not self.terms

    def has_log(self):
        return any(logform is not None for (_, logform) in self.terms)

    def __add__(self, other):
        forms, terms = self._aligned(other)
        out = LinExpr(self.terms, forms)
        for (powers, logform), coef in terms.items():
            out._accumulate(powers, logform, coef)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinExpr({key: -c for key, c in self.terms.items()}, self.forms)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return LinExpr(forms=self.forms)
        return LinExpr({key: c * scalar for key, c in self.terms.items()}, self.forms)

    def __mul__(self, other):
        if isinstance(other, LinExpr):
            forms, other_terms = self._aligned(other)
            out = LinExpr(forms=forms)
            for (p1, l1), c1 in self.terms.items():
                for (p2, l2), c2 in other_terms.items():
                    if l1 is not None and l2 is not None:
                        raise ValueError("product would carry two log factors")
                    merged = dict(p1)
                    for fid, exp in p2:
                        merged[fid] = merged.get(fid, 0) + exp
                    out._accumulate(
                        _sorted_powers(merged), l1 if l1 is not None else l2, c1 * c2
                    )
            return out
        return self.scale(other)

    __rmul__ = __mul__

    def diff(self, j):
        """Derivative in z_j (1-based)."""
        out = LinExpr(forms=self.forms)
        forms = self.forms._forms if self.forms is not None else ()
        for (powers, logform), coef in self.terms.items():
            for idx, (fid, exp) in enumerate(powers):
                slope = forms[fid][j - 1]
                if not slope:
                    continue
                rest = list(powers)
                if exp == 1:
                    rest.pop(idx)
                else:
                    rest[idx] = (fid, exp - 1)
                out._accumulate(tuple(rest), logform, coef * exp * slope)
            if logform is not None:
                slope = forms[logform][j - 1]
                if slope:
                    merged = dict(powers)
                    merged[logform] = merged.get(logform, 0) - 1
                    out._accumulate(_sorted_powers(merged), None, coef * slope)
        return out

    def evaluate(self, z):
        """Value at z; exact Fraction when no log factor survives and z is
        rational, complex otherwise."""
        zz = tuple(z)
        if not self.has_log() and _is_rational(zz):
            return self.evaluate_exact(zz)
        values = {}  # form id -> complex value, for the forms this uses

        def value_of(fid):
            if fid not in values:
                values[fid] = complex(form_value(self.forms[fid], zz))
            return values[fid]

        total = complex(0)
        for (powers, logform), coef in self.terms.items():
            value = complex(coef)
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
        for (powers, _), coef in self.terms.items():
            num, den = coef.numerator, coef.denominator
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
        return Fraction(total_num, total_den)

    def __repr__(self):
        return f"LinExpr({len(self.terms)} terms)"
