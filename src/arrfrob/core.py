"""Families of parallelly translated weighted hyperplanes.

A family is the data (k, n, b, a): for each j = 1..n a nonzero linear form
g_j(t) = sum_m b_j^m t_m on C^k and a nonzero rational weight a_j, with
sum(a) != 0. A base point z in C^n selects the arrangement of hyperplanes
{f_j = 0}, f_j(t) = z_j + g_j(t).

This module owns the matroid layer: independent k-subsets, circuits with
their normalized linear relations, and the discriminant test that decides
whether a fiber z has normal crossings (all circuit forms f_C(z) nonzero).

Hyperplane indices are 1-based everywhere in the public interface; index
tuples are sorted unless an operation explicitly permits reordering.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from functools import cached_property, wraps

from . import linalg
from .linforms import FormTable


class ConfigError(ValueError):
    """Invalid family description (bad shape, zero weight, malformed rational...)."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _is_int(value):
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value):
    """Parse "p" or "p/q" (q > 0) into a Fraction; plain ints pass through."""
    if isinstance(value, bool):
        raise ConfigError(f"malformed rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
    raise ConfigError(f"malformed rational: {value!r}")


def format_rational(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Frozen:
    """A value object: `__init__` sets the attributes named in `_fields`
    once (with object.__setattr__), they cannot be reassigned, and equality,
    hashing and repr go by them. Computed attributes are `cached_property`,
    which writes the instance dict directly."""

    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ArrangementFamily(Frozen):
    """The family (k, n, b, a): b holds n rows, each a k-tuple of Fraction,
    and a the n weights, Fraction."""

    _fields = ("k", "n", "b", "a")

    def __init__(self, k, n, b, a):
        super().__init__(k, n, b, a)
        if not (isinstance(self.k, int) and isinstance(self.n, int)):
            raise ConfigError("k and n must be integers")
        if self.k < 1 or self.n <= self.k:
            raise ConfigError(f"need n > k >= 1, got k={self.k}, n={self.n}")
        if len(self.b) != self.n or any(len(row) != self.k for row in self.b):
            raise ConfigError("b must be an n x k matrix")
        for j, row in enumerate(self.b, start=1):
            if all(x == 0 for x in row):
                raise ConfigError(f"coefficient row {j} is zero")
        if len(self.a) != self.n:
            raise ConfigError("weight vector must have length n")
        for j, w in enumerate(self.a, start=1):
            if w == 0:
                raise ConfigError(f"weight a_{j} is zero")
        if sum(self.a) == 0:
            raise ConfigError("weights sum to zero")

    # defined here, not inherited, so that perfbench/optrace.py can wrap it
    def __hash__(self):
        return hash((self.k, self.n, self.b, self.a))

    @cached_property
    def weight_sum(self):
        return sum(self.a)

    @cached_property
    def _minor_cache(self):
        return {}

    @cached_property
    def _memo(self):
        return {}

    @cached_property
    def _fibers(self):
        return {}

    @cached_property
    def forms(self):
        """The family's table of interned linear forms, shared by all of
        its expressions; their values at a fiber live in that fiber's
        entry (`fiber_entry`)."""
        return FormTable(self._fibers)

    def fiber_entry(self, z):
        """The one dict that holds every exact table of the fiber z: the
        integer K_j(z), the values of the interned forms, the circuit
        values and the multiplication tables of the algebra."""
        return self._fibers.setdefault(coords(z), {})

    def release_fibers(self):
        """Free the tables of every fiber (`fiber_entry`) and keep the
        family's own tables. A long-lived family checked at many fibers
        otherwise holds tens of KB per fiber; the next check at a fiber
        rebuilds what it needs."""
        self._fibers.clear()

    def minor(self, indices):
        """det of the k x k submatrix of b picked by the given distinct rows,
        in the given order (swapping two indices flips the sign)."""
        key = tuple(indices)
        if len(key) != self.k or len(set(key)) != self.k:
            raise ValueError(f"need {self.k} distinct indices, got {key}")
        cache = self._minor_cache
        if key not in cache:
            cache[key] = linalg.det([list(self.b[i - 1]) for i in key])
        return cache[key]

    @cached_property
    def generic(self):
        """True when every k x k minor of b is nonzero."""
        return all(
            self.minor(sub) != 0
            for sub in itertools.combinations(range(1, self.n + 1), self.k)
        )

    @cached_property
    def circuit_list(self):
        return tuple(_find_circuits(self))

    @cached_property
    def flag_index(self):
        return SubsetIndex(self)


def per_family(fn):
    """Memoize fn(family, *args) on the family itself.

    The table lives in the family's own attributes and is keyed by the
    function and the call's remaining (small int or tuple) arguments, so a
    lookup never hashes the family's rationals and every value is freed
    together with the family."""

    @wraps(fn)
    def memoized(family, *args):
        table = family._memo
        key = (fn, args)
        try:
            return table[key]
        except KeyError:
            value = table[key] = fn(family, *args)
            return value

    return memoized


def per_fiber(fn):
    """Memoize fn(family, zz, *args) in the family's entry for the exact
    fiber zz (`ArrangementFamily.fiber_entry`), keyed by the function and
    the remaining arguments; zz reaches fn as a plain coordinate tuple.
    `ArrangementFamily.release_fibers` frees every such table at once."""

    @wraps(fn)
    def memoized(family, z, *args):
        zz = coords(z)
        entry = family.fiber_entry(zz)
        key = (fn, args)
        try:
            return entry[key]
        except KeyError:
            value = entry[key] = fn(family, zz, *args)
            return value

    return memoized


class BasePoint(Frozen):
    _fields = ("z",)

    def __init__(self, z):
        super().__init__(tuple(z))

    def __len__(self):
        return len(self.z)

    def __iter__(self):
        return iter(self.z)

    def __getitem__(self, i):
        return self.z[i]


def coords(z):
    """Accept a BasePoint or any coordinate sequence, return a plain tuple."""
    if isinstance(z, BasePoint):
        return z.z
    return tuple(z)


class Circuit(Frozen):
    """A circuit: its sorted 1-based index tuple and the coefficients of its
    relation, normalized so that lam[0] == 1."""

    _fields = ("indices", "lam")

    def __init__(self, indices, lam):
        super().__init__(indices, lam)
        if list(self.indices) != sorted(self.indices):
            raise ValueError("circuit indices must be sorted")
        if self.lam[0] != 1:
            raise ValueError("relation must be normalized at the smallest index")

    def coefficient(self, j):
        """lambda_j for j in the circuit, 0 otherwise."""
        try:
            return self.lam[self.indices.index(j)]
        except ValueError:
            return Fraction(0)


class SubsetIndex:
    """Catalogue of the independent k-subsets of {1..n}, lexicographically
    ordered, with positional lookup both ways. This fixes the standard basis
    order of the flag space once and for all."""

    def __init__(self, family):
        k = family.k
        subs = [
            s
            for s in itertools.combinations(range(1, family.n + 1), k)
            if linalg.rank([family.b[i - 1] for i in s]) == k
        ]
        self.subsets = tuple(subs)
        self._pos = {s: i for i, s in enumerate(subs)}

    def __len__(self):
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __contains__(self, subset):
        return tuple(subset) in self._pos

    def position(self, subset):
        return self._pos[tuple(subset)]

    def subset(self, position):
        return self.subsets[position]


def load_family(config):
    """Build a validated family from a config document.

    Accepts a dict, a JSON string, or a path to a JSON file with keys
    "k", "n", "b" (n rows of k rationals), "weights" (n rationals) and
    optional "z" (n rationals, a preferred base point). Rationals are
    integers or "p/q" strings with positive q.
    """
    doc = _load_document(config)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    missing = [key for key in ("k", "n", "b", "weights") if key not in doc]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    k, n = doc["k"], doc["n"]
    if not _is_int(k) or not _is_int(n):
        raise ConfigError(f"k and n must be integers, got k={k!r}, n={n!r}")
    raw_b = doc["b"]
    if not isinstance(raw_b, list) or any(not isinstance(r, list) for r in raw_b):
        raise ConfigError("b must be a list of rows")
    b = tuple(tuple(parse_rational(x) for x in row) for row in raw_b)
    raw_a = doc["weights"]
    if not isinstance(raw_a, list):
        raise ConfigError("weights must be a list")
    a = tuple(parse_rational(x) for x in raw_a)
    family = ArrangementFamily(k=k, n=n, b=b, a=a)
    check_unbalanced(family)
    if "z" in doc:
        raw_z = doc["z"]
        if not isinstance(raw_z, list) or len(raw_z) != n:
            raise ConfigError(f"z must be a list of n = {n} rationals, got {raw_z!r}")
        z = BasePoint(map(parse_rational, raw_z))
        if not is_good_fiber(family, z):
            vanishing = next(c for c in family.circuit_list if f_c_value(c, z) == 0)
            raise ConfigError(
                f"z lies on the discriminant: f_C vanishes for circuit {vanishing.indices}"
            )
        object.__setattr__(family, "preferred_z", z)
    return family


def default_anchor(family):
    """The hyperplane left out of the anchored basis {w_T : anchor not in T}
    of the critical algebra when the run names none: the last one."""
    return family.n


def check_unbalanced(family):
    """Weight checks beyond a_j != 0 and |a| != 0: every circuit's weight sum
    must be nonzero too. Sufficient for generic families; degenerate families
    can hide further resonances that this does not see."""
    for circuit in family.circuit_list:
        if sum(family.a[i - 1] for i in circuit.indices) == 0:
            raise ConfigError(
                f"weights of circuit {circuit.indices} sum to zero"
            )


def _load_document(config):
    if isinstance(config, dict):
        return config
    if isinstance(config, (str, bytes)):
        text = config
        if isinstance(config, str) and not config.lstrip().startswith("{"):
            try:
                with open(config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if hasattr(config, "read"):
        try:
            return json.load(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    raise ConfigError(f"unsupported config source: {type(config).__name__}")


def _find_circuits(family):
    """Minimal dependent subsets, sizes 2..k+1, with normalized relations."""
    found = []
    dependents = []
    for size in range(2, family.k + 2):
        for sub in itertools.combinations(range(1, family.n + 1), size):
            members = set(sub)
            if any(c <= members for c in dependents):
                continue
            rows = [family.b[i - 1] for i in sub]
            if linalg.rank(rows) == size:
                continue
            dependents.append(frozenset(sub))
            found.append(_circuit_from(family, sub))
    return found


def _circuit_from(family, sub):
    # relation space of a circuit is one-dimensional; columns = members of sub
    mat = [[family.b[i - 1][m] for i in sub] for m in range(family.k)]
    basis = linalg.nullspace(mat, len(sub))
    if len(basis) != 1:
        raise RuntimeError(f"subset {sub} is not a minimal dependence")
    lam = basis[0]
    lead = lam[0]
    if lead == 0:
        raise RuntimeError(f"subset {sub} is not a minimal dependence")
    return Circuit(indices=tuple(sub), lam=tuple(x / lead for x in lam))


def circuits(family):
    return family.circuit_list


def f_c_value(circuit, z):
    """The circuit form f_C(z) = sum_{i in C} lambda_i z_i."""
    zc = coords(z)
    return sum(lam * zc[i - 1] for lam, i in zip(circuit.lam, circuit.indices))


def is_good_fiber(family, z):
    """True iff z avoids the discriminant: every circuit form is nonzero,
    equivalently the fiber arrangement has normal crossings."""
    zc = coords(z)
    return all(f_c_value(c, zc) != 0 for c in family.circuit_list)


def sample_good_point(family, seed, budget=1000):
    """Rejection-sample a rational base point off the discriminant.

    Deterministic for a fixed seed. Numerators lie in [-12, 12] and
    denominators in [1, 6]; the discriminant has measure zero, so for a
    reasonable family this ends quickly. A budget exhaustion signals a
    degenerate family and raises.
    """
    rng = random.Random(seed)
    for _ in range(budget):
        z = tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(family.n)
        )
        if is_good_fiber(family, z):
            return BasePoint(z)
    raise RuntimeError(f"no good base point found within {budget} draws")

