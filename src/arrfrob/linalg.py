"""Exact linear algebra over ``fractions.Fraction``.

Matrices are plain lists of row lists. Everything here stays exact; float
and complex work elsewhere goes through numpy, as the handle ``np`` defined
here. Dimensions in this package are tiny (at most a few hundred rows), so
Gauss-Jordan is plenty. The per-fiber tables (K_j(z) in `gaussmanin`, the
critical algebra in `critalg`) are `IntegerMatrix`es, so exact checks on
them use integers.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple


# The handles that `_lazy_module` made for modules of this package.
_own_handles = []


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
    own = package == __package__
    spec.loader = importlib.util.LazyLoader(spec.loader if own else _AfterOwnModules(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    if package:
        setattr(sys.modules[package], child, module)
    if own:
        _own_handles.append(module)
    return module


class _AfterOwnModules:
    """The loader of an outside module (numpy) that first executes every
    module of this package with a handle that has not run yet.

    Without a bytecode cache a module runs by compiling its source. Before
    numpy loads, numpy's import reuses the compiler's memory; after it, that
    memory adds to the peak RSS (3 MB of 33 MB for `check --suites
    basis,canonical`, where `frobenius` would compile after `basis` loaded
    numpy). A command that computes in floats uses most of the package, so
    it compiles all of it first, as the eager imports did."""

    def __init__(self, loader):
        self._loader = loader

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def exec_module(self, module):
        # A module run here can add handles; the loop reaches them too.
        for handle in _own_handles:
            handle.__spec__  # the first attribute access executes a handle
        self._loader.exec_module(module)


# numpy costs a start-up of about 0.15 s that the exact checks never use, so
# it loads when a float computation first runs.
np = _lazy_module("numpy")


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = len(b[0])
    return [
        [sum((row[m] * b[m][j] for m in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def rref(rows, ncols=None):
    """Reduced row echelon form over the first ``ncols`` columns.

    Returns ``(reduced_rows, pivot_columns)``. Columns past ``ncols`` ride
    along (used for augmented systems).
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of the right kernel of the row list, in ``ncols`` unknowns.

    Each free column contributes one basis vector with a 1 in that slot.
    An empty row list yields the standard basis.
    """
    if rows:
        red, pivots = rref(rows, ncols)
    else:
        red, pivots = [], []
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv_p = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv_p
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result if sign == 1 else -result


def inv(a):
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(n))]
    red, pivots = rref(aug, ncols=n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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

    def floats(self):
        """The entries of a square matrix as a float array. int / int is
        correctly rounded, so each entry is the float of the exact rational,
        bit for bit the float(Fraction) of the dense form."""
        size = len(self.rows)
        out = np.zeros((size, size), dtype=float)
        for p, row in enumerate(self.rows):
            for q, v in row.items():
                out[p, q] = v / self.den
        return out


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
