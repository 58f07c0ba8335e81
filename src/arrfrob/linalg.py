"""Exact linear algebra on rational matrices, computed in integers.

Matrices are plain lists of row lists of rationals (Fraction or int).
Everything here stays exact; the float layer (`critpoints`, `transport`)
computes in plain Python complex numbers. Dimensions are tiny (at most a
few hundred rows), so Gauss-Jordan is plenty.
The elimination is fraction-free: each input row is cleared of
denominators, each row update is an integer combination divided by the
gcd of the new row, and the determinant follows Bareiss (Math. Comp. 22,
1968). The results are converted to Fraction once, at the end; the
reduced row echelon form, the determinant and the inverse are unique, so
they are the rationals that Fraction arithmetic gives. The per-fiber
tables (K_j(z) in `gaussmanin`, the critical algebra in `critalg`) are
`IntegerMatrix`es, so exact checks on them use integers too.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple


def _lazy_module(name):
    """The module `name`, executed on its first attribute access rather than
    here, or the module itself if it is loaded already. A submodule is bound
    on its package as an import binds it, so ``from package import name``
    returns the handle without executing it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    package, _, child = name.rpartition(".")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    if package:
        setattr(sys.modules[package], child, module)
    return module


def _moved_names(module_name, **moved):
    """A `__getattr__` (PEP 562) for the module `module_name` that looks each
    name of `moved`, given as module=(names, ...), up in that module."""
    where = {name: module for module, names in moved.items() for name in names}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__package__}.{where[name]}"), name)

    return __getattr__


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = len(b[0])
    return [
        [sum((row[m] * b[m][j] for m in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def _cleared(row):
    """A rational row as integers: (numerators over the lcm of its
    denominators, divided by their gcd; the rational by which the row was
    multiplied, as a (numerator, denominator) pair)."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints) or 1
    return [x // g for x in ints], (den, g)


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over the first ``ncols``
    columns, with the pivot choice and row order of the rational algorithm
    (first nonzero entry at or below the current row).

    Returns ``(m, pivots, scales)``: m holds integer rows, each an integer
    multiple of the matching row of the reduced row echelon form. Row r <
    len(pivots) is that row times its pivot entry m[r][pivots[r]]; every
    later row is it times scales[r], a (numerator, denominator) pair. Each
    update divides the new row by the gcd of its entries, so the integers
    stay as small as the rows allow.
    """
    m, scales = [], []
    for row in rows:
        ints, scale = _cleared(row)
        m.append(ints)
        scales.append(scale)
    pivots = []
    r, nrows = 0, len(m)
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scales[r], scales[pivot] = scales[pivot], scales[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(m[i], prow)]
                g = math.gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                else:
                    g = 1  # a row that became zero keeps any scale
                m[i] = new
                num, den = scales[i]
                scales[i] = (num * p, den * g)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, scales


def rref(rows, ncols=None):
    """Reduced row echelon form over the first ``ncols`` columns.

    Returns ``(reduced_rows, pivot_columns)``. Columns past ``ncols`` ride
    along (used for augmented systems).
    """
    if not rows:
        return [], []
    if ncols is None:
        ncols = len(rows[0])
    m, pivots, scales = _gauss_jordan(rows, ncols)
    out = []
    for r, row in enumerate(m):
        if r < len(pivots):
            num, den = row[pivots[r]], 1
        else:
            num, den = scales[r]
        out.append([Fraction(x * den, num) for x in row])
    return out, pivots


def rank(rows):
    if not rows:
        return 0
    return len(_gauss_jordan(rows, len(rows[0]))[1])


def nullspace(rows, ncols):
    """Basis of the right kernel of the row list, in ``ncols`` unknowns.

    Each free column contributes one basis vector with a 1 in that slot.
    An empty row list yields the standard basis.
    """
    if rows:
        m, pivots, _ = _gauss_jordan(rows, ncols)
    else:
        m, pivots = [], []
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], m[r][pc])
        basis.append(v)
    return basis


def det(rows):
    """Determinant by Bareiss's fraction-free elimination: after step c
    every entry below and right of the pivot is a (c+1) x (c+1) minor of
    the cleared matrix, so each division by the previous pivot is exact."""
    n = len(rows)
    m, num, den = [], 1, 1
    for row in rows:
        ints, (mult, g) = _cleared(row)
        m.append(ints)
        num, den = num * g, den * mult
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        prow = m[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = p
    return Fraction(sign * prev * num, den)


def inv(a):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots, _ = _gauss_jordan(aug, n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(m)]


class IntegerMatrix(NamedTuple):
    """An exact matrix (a vector is one row) as sparse rows of integer
    numerators over one denominator: rows[p] maps a column q to the
    numerator of the entry (p, q) and omits zeros. The rows are read-only,
    so a matrix shared between checks cannot be changed by one of them."""

    rows: tuple
    den: int

    def dense(self):
        """The entries of a square matrix as a list of rows of Fractions."""
        size = len(self.rows)
        return [[Fraction(row.get(q, 0), self.den) for q in range(size)] for row in self.rows]


def _reduced_matrix(rows, den):
    """IntegerMatrix of integer rows ({column: numerator} dicts) over den,
    with the gcd of den and every numerator divided out."""
    g = math.gcd(den, *(v for row in rows for v in row.values()))
    rows = tuple(MappingProxyType({q: v // g for q, v in row.items() if v}) for row in rows)
    return IntegerMatrix(rows, den // g)


def _integer_sum(terms):
    """sum of (num / den) M over (num, den, IntegerMatrix M) triples of one
    shape, as an IntegerMatrix, in integer arithmetic."""
    common = math.lcm(*(den * mat.den for _, den, mat in terms))
    acc = [{} for _ in terms[0][2].rows]
    for num, den, mat in terms:
        mult = num * (common // (den * mat.den))
        for out, row in zip(acc, mat.rows):
            for q, v in row.items():
                out[q] = out.get(q, 0) + mult * v
    return _reduced_matrix(acc, common)


def _integer_rows(mat):
    """A dense exact matrix as an IntegerMatrix over the lcm of its entry
    denominators."""
    den = math.lcm(*(e.denominator for row in mat for e in row if e))
    rows = [{q: e.numerator * (den // e.denominator) for q, e in enumerate(r) if e} for r in mat]
    return _reduced_matrix(rows, den)


def _integer_vector(values):
    """Dense exact coordinates as ({position: numerator}, denominator)."""
    rows, den = _integer_rows([values])
    return rows[0], den


def _dot(row, values):
    """Sum of row[q] * values[q] over the entries of the sparse row."""
    return sum(c * values.get(q, 0) for q, c in row.items())
