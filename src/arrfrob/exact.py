"""The exact layer: the suites and the verb whose every check is exact,
and the code that only they and the k = 1 strata run.

- The suites `flatness`, `symmetry`, `conformal` and `potential`, and the
  `potential` verb.
- The per-family certificates of the connection, decided in integers on
  tables that do not read the fiber, from the residue step of
  `gaussmanin._sing_residues`: Kohno's criterion (`flatness_certificate`,
  reported by `check_flatness`) and the S-symmetry, Sing invariance and
  weighted Euler identity of every K_j(z)
  (`check_symmetry_and_invariance`); and, at a fiber, the conformal-block
  equations (`check_conformal_block`) and the derivative sections
  (`derivative_sections`).
- The algebra of the critical set at one fiber, built once in integers
  (`_fiber_algebra`): multiplication by each [a_i/f_i] on the anchored
  basis as a `linalg.IntegerMatrix`, and the unit. Every product reads
  these tables; generator products are kept per fiber along sorted
  generator tuples (`_product`), as the algebra is commutative, and
  `unit_pairing` pairs one with the unit in integers.
- The potentials: P = S(q, q) (`potential_first`) and the log potential,
  sum_u e_u f_u^(2k) log f_u over (2k)! (`_log_potential_rows`), sums of
  powers of the (k+1)-minor forms f_u, so their derivatives are closed
  forms in the integers f_u(z): those of P follow by Leibniz from the
  derivatives of q (`frobenius.fiber_section_derivative`), and
  d^(2k+1) (f^(2k) log f) is (2k)! prod_j lambda_j / f. The rows compare
  them with the algebra's generator products.

A launch that runs only float suites or verbs (`basis`, `critical`,
`canonical`, `periods`, the `critical` and `gm-flow` verbs) never runs
this module, so it does not compile it either.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from .cli import RunSettings, _emit, _family_from_args, _num, _row, _sample_fibers, _vector
from .cli import report_schema_version
from .core import coords, default_anchor, per_family, per_fiber, sample_good_point
from .linalg import _dot, _integer_rows, _integer_sum, _integer_vector, _lazy_module
from .linalg import _reduced_matrix

critalg = _lazy_module("arrfrob.critalg")
frobenius = _lazy_module("arrfrob.frobenius")
gaussmanin = _lazy_module("arrfrob.gaussmanin")
osflag = _lazy_module("arrfrob.osflag")


# ---------------------------------------------------------------------------
# suites


def _certificate_row(rows, ident, offenders, counts):
    """A per-family certificate's row: it passes when nothing offends; the
    witness has the family's counts and the first few offenders (circuits,
    the circuits of a flat, or flags)."""
    witness = dict(counts, count=len(offenders), offenders=offenders[:5])
    _row(rows, ident, not offenders, witness=witness)


def _suite_flatness(family, cfg):
    rows = []
    cert = check_flatness(family)
    counts = {key: cert[key] for key in ("circuits", "hyperplanes")}
    _certificate_row(rows, "singular-invariance-certificate", cert["moving"], counts)
    _certificate_row(
        rows, "kohno-certificate", cert["failing"], dict(counts, flats=cert["flats"])
    )
    return rows, {}


def _suite_symmetry(family, cfg):
    rows = []
    rep = check_symmetry_and_invariance(family)
    counts = {key: rep[key] for key in ("circuits", "hyperplanes")}
    for ident, key in (
        ("residue-symmetry-certificate", "asymmetric"),
        ("singular-invariance-certificate", "moving"),
        ("weighted-euler-certificate", "off_euler"),
    ):
        _certificate_row(rows, ident, rep[key], counts)
    return rows, {}


def _suite_conformal(family, cfg):
    rows = []
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        ok = check_conformal_block(family, z, cfg.anchor)
        _row(rows, f"block-equations-sample-{i}", ok, witness={"z": _vector(z)})
        q = frobenius.period_map(family, z, cfg.anchor)
        scaled = frobenius.period_map(
            family, tuple(2 * v for v in z), cfg.anchor
        )
        _row(rows, f"block-homogeneity-sample-{i}", scaled == q * Fraction(2**family.k))
        rng = random.Random(cfg.seed + i)
        for r in range(1, family.k + 1):
            dirs = tuple(rng.randint(1, family.n) for _ in range(r))
            sym, alg = derivative_sections(family, z, dirs, cfg.anchor)
            _row(rows, f"derivative-section-r{r}-sample-{i}", sym == alg)
        over = tuple(1 for _ in range(family.k + 1))
        sym, alg = derivative_sections(family, z, over, cfg.anchor)
        _row(rows, f"derivative-section-degree-bound-sample-{i}", sym.is_zero() and alg.is_zero())
    return rows, {}


def _suite_potential(family, cfg):
    rows = []
    for i, z in enumerate(_sample_fibers(family, cfg.seed, cfg.samples)):
        P = potential_first(family, z, cfg.anchor)
        if family.k == 2 or (family.k == 1 and all(row[0] == 1 for row in family.b)):
            closed = P == potential_first_closed(family, z)
            _row(rows, f"quadratic-potential-closed-form-sample-{i}", closed)
        scaled = potential_first(
            family, tuple(3 * v for v in z), cfg.anchor
        )
        _row(rows, f"quadratic-potential-homogeneity-sample-{i}", scaled == Fraction(3) ** (2 * family.k) * P)
        rng = random.Random(cfg.seed + 7 * i)
        tuples = [
            tuple(rng.randint(1, family.n) for _ in range(2 * family.k + 1))
            for _ in range(cfg.samples)
        ]
        worst_row = None
        ok = True
        for tup in tuples:
            row = potential_derivative_row(family, z, tup, cfg.anchor)
            if row["abs_err"] != 0.0:
                ok = False
                worst_row = row
        _row(rows, f"log-potential-derivatives-sample-{i}", ok, witness=worst_row)
        ok = True
        for r in range(1, 2 * family.k + 1):
            tup = tuple(rng.randint(1, family.n) for _ in range(r))
            row = multi_derivative_identity_row(family, z, tup, cfg.anchor)
            if row["abs_err"] != 0.0:
                ok = False
        _row(rows, f"potential-derivative-ladder-sample-{i}", ok)
    _row(rows, "structure-constant-2-3", a_constant(2, 3) == 24)
    _row(
        rows,
        "structure-constant-top",
        all(a_constant(k, 2 * k) == math.factorial(2 * k) for k in range(1, 6)),
    )
    return rows, {}


def _cmd_potential(args):
    raw, family, z = _family_from_args(args)
    cfg = RunSettings(raw, args, family)
    zz = z.z if z is not None else sample_good_point(family, seed=cfg.seed).z
    tuples = cfg.tuples
    if tuples is None:
        rng = random.Random(cfg.seed)
        tuples = [
            tuple(rng.randint(1, family.n) for _ in range(2 * family.k + 1))
            for _ in range(cfg.samples)
        ]
    rows = [
        potential_derivative_row(family, zz, tup, cfg.anchor)
        for tup in tuples
    ]
    passed = all(r["abs_err"] == 0.0 for r in rows)
    report = {
        "schema": report_schema_version(),
        "z": _vector(zz),
        "P": _num(potential_first(family, zz, cfg.anchor)),
        "derivatives": rows,
        "passed": passed,
    }
    _emit(report, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# per-family certificates and derivative sections


def apply_matrix(family, mat, vec):
    """Apply an exact flag-basis matrix, an IntegerMatrix, to a FlagVector."""
    index = family.flag_index
    values, vec_den = _integer_vector(vec.to_coordinates(index))
    out = osflag.FlagVector()
    for subset, row in zip(index, mat.rows):
        num = _dot(row, values)
        if num:
            out.coeffs[subset] = Fraction(num, mat.den * vec_den)
    return out


def _sparse_product(left, right):
    """Product of two matrices given as sparse integer rows."""
    out = []
    for row in left:
        acc = {}
        for m, x in row.items():
            for q, y in right[m].items():
                acc[q] = acc.get(q, 0) + x * y
        out.append(acc)
    return out


def _commutator_rows(ki, kj):
    """[K_i, K_j] from the integer forms (rows, D) of K_i and K_j: sparse
    integer rows over D_i D_j, without zero entries."""
    (rows_i, den_i), (rows_j, den_j) = ki, kj
    out = []
    for ij, ji in zip(_sparse_product(rows_i, rows_j), _sparse_product(rows_j, rows_i)):
        for q, v in ji.items():
            ij[q] = ij.get(q, 0) - v
        out.append({q: v for q, v in ij.items() if v})
    return out, den_i * den_j


def _plucker_key(u, v):
    """The 2-plane spanned by two non-proportional integer forms as its
    nonzero Plucker coordinates ((a, b), u_a v_b - u_b v_a) for a < b,
    divided by their gcd and signed so that the first is positive: one key
    per codimension-2 flat of the discriminant."""
    du, dv = dict(u), dict(v)
    entries = []
    for a, b in itertools.combinations(sorted(du.keys() | dv.keys()), 2):
        p = du.get(a, 0) * dv.get(b, 0) - du.get(b, 0) * dv.get(a, 0)
        if p:
            entries.append(((a, b), p))
    g = math.gcd(*(p for _, p in entries)) * (1 if entries[0][1] > 0 else -1)
    return tuple((ab, p // g) for ab, p in entries)


@per_family
def flatness_certificate(family):
    """Kohno's criterion for the connection on Sing, once per family.

    Omega = sum_H R_H dlog f_H, summed over the hyperplanes H of the
    discriminant (circuits with proportional forms share one, and its
    residue R_H is the sum of their L_C). Omega is flat on Sing at every
    fiber when every R_H preserves Sing ("invariant") and, for every
    codimension-2 flat X of the discriminant and every H containing X,
    [R_H, sum_{H' containing X} R_H'] vanishes on Sing ("commuting"; the
    last H of a flat follows from the others). Both halves run on integer
    tables that do not depend on the fiber; the first is the residue step
    (`gaussmanin._sing_residues`). The report lists the circuits whose
    residue leaves Sing ("moving") and, per failing flat, the circuits of
    the flat ("failing")."""
    hyperplanes, _, residues, moving = gaussmanin._sing_residues(family)
    members = list(hyperplanes.values())
    flats = {}
    for (h1, u), (h2, v) in itertools.combinations(enumerate(hyperplanes), 2):
        flats.setdefault(_plucker_key(u, v), set()).update((h1, h2))
    failing = []
    sizes = {}
    for flat in flats.values():
        flat = sorted(flat)
        sizes[len(flat)] = sizes.get(len(flat), 0) + 1
        # [R_h, S_X] for every h but the last; with two hyperplanes, [R_1, R_2]
        if len(flat) == 2:
            total = residues[flat[1]]
        else:
            total = [{} for _ in residues[flat[0]]]
            for h in flat:
                for acc, row in zip(total, residues[h]):
                    for q, v in row.items():
                        acc[q] = acc.get(q, 0) + v
        if any(any(_commutator_rows((residues[h], 1), (total, 1))[0]) for h in flat[:-1]):
            failing.append([c for h in flat for c in members[h]])
    return {
        "circuits": len(family.circuit_list),
        "hyperplanes": len(members),
        "flats": len(flats),
        "flat_sizes": dict(sorted(sizes.items())),
        "moving": moving,
        "failing": failing,
        "invariant": not moving,
        "commuting": not failing,
        "passed": not moving and not failing,
    }


def check_flatness(family):
    """Flatness of the connection on Sing at every fiber: the verdict of
    Kohno's criterion (`flatness_certificate`), decided once per family."""
    return flatness_certificate(family)


def check_symmetry_and_invariance(family):
    """S-symmetry, Sing invariance and the weighted Euler identity of every
    K_j(z), decided once for every fiber from the circuit operators.

    K_j(z) = sum_H (lambda_j^H / f_H(z)) R_H over the hyperplanes H of the
    discriminant, and the functions 1/f_H are linearly independent. So
    every K_j(z) preserves Sing at every fiber exactly when every R_H does,
    the residue step of `flatness_certificate`. Every K_j(z) is S-symmetric
    when every L_C is, w_p L_pq = w_q L_qp in the integer tables; where no
    two circuits share a hyperplane, only then. As sum_j z_j lambda_j^C =
    f_C(z), sum_j z_j K_j(z) = sum_C L_C at every fiber, so the weighted
    Euler identity (sum_j z_j K_j) v = |a| v on Sing is sum_C L_C = |a| on
    Sing. The report lists the circuits whose L_C is not symmetric
    ("asymmetric"), the circuits whose residue leaves Sing ("moving"), and
    the singular basis vectors, each as the flag of its free column, that
    sum_C L_C does not scale by |a| ("off_euler")."""
    weights, _ = osflag._integer_weights(family)
    asymmetric = []
    total = [{} for _ in family.flag_index]
    for circuit in family.circuit_list:
        table = {(p, q): coef for p, q, coef in gaussmanin._l_c_integer(family, circuit.indices)}
        if any(weights[p] * coef != weights[q] * table.get((q, p), 0)
               for (p, q), coef in table.items()):
            asymmetric.append(circuit.indices)
        for (p, q), coef in table.items():
            total[p][q] = total[p].get(q, 0) + coef
    hyperplanes, free, _, moving = gaussmanin._sing_residues(family)
    # sum_C L_C and |a| over the weights' denominator D: D |a| = scale / asum.denominator
    asum = family.weight_sum
    scale = gaussmanin._weight_denominator(family) * asum.numerator
    basis = osflag.singular_subspace(family).integer_basis
    off_euler = [
        list(family.flag_index.subset(f))
        for f, (values, _) in zip(free, basis)
        if any(asum.denominator * _dot(row, values) != scale * values.get(p, 0)
               for p, row in enumerate(total))
    ]
    return {
        "circuits": len(family.circuit_list),
        "hyperplanes": len(hyperplanes),
        "asymmetric": asymmetric,
        "moving": moving,
        "off_euler": off_euler,
        "passed": not (asymmetric or moving or off_euler),
    }


def check_conformal_block(family, z, anchor=None):
    """Exact check of (|a|/k) d_j q = K_j q at a fiber, with q and its
    derivatives in closed form (`frobenius.fiber_section_derivative`),
    compared in integers."""
    zz, anchor = coords(z), anchor or default_anchor(family)
    q_values, q_den = frobenius.fiber_section_derivative(family, zz, anchor, ())
    asum = family.weight_sum
    for j in range(1, family.n + 1):
        mat = gaussmanin.fiber_k_operator(family, zz, j)
        d_values, d_den = frobenius.fiber_section_derivative(family, zz, anchor, (j,))
        # (|a|/k) d_values[p] / d_den against (K_j q)_p = _dot(row, q_values) / (mat.den q_den)
        left, right = asum.numerator * mat.den * q_den, family.k * asum.denominator * d_den
        if any(left * d_values.get(p, 0) != right * _dot(row, q_values)
               for p, row in enumerate(mat.rows)):
            return False
    return True


def derivative_sections(family, z, directions, anchor=None):
    """The iterated derivative of the conformal block section in the given
    directions, computed two ways: in closed form
    (`frobenius.block_derivative`), and through the algebra as
    (k (k-1) ... (k-r+1) / |a|^r) alpha(product of generators).

    Returns the pair (closed form, algebraic) of flag vectors; they must
    agree exactly. Orders r > k give the zero section.
    """
    zz = coords(z)
    falling = math.perm(family.k, len(directions))  # 0 for r > k
    algebraic = osflag.FlagVector()
    if falling:
        wvec = monomial_to_w(family, zz, tuple(directions), anchor)
        scale = Fraction(falling, family.weight_sum ** len(directions))
        algebraic = frobenius.alpha_structural(family, wvec * scale)
    return frobenius.block_derivative(family, zz, directions, anchor), algebraic


# ---------------------------------------------------------------------------
# the algebra of one fiber, in integers


@per_family
def _integer_scalars(family):
    """The minors d_T of the sorted k-subsets T and the weights a_j as
    integer numerators over one denominator D: (minors, weights, D), with
    minors[T] = d_T D and weights[j - 1] = a_j D."""
    subsets = list(itertools.combinations(range(1, family.n + 1), family.k))
    minors, minor_den = _integer_vector([family.minor(T) for T in subsets])
    weights, weight_den = _integer_vector(family.a)
    return (
        {T: minors.get(p, 0) * weight_den for p, T in enumerate(subsets)},
        [weights[j] * minor_den for j in range(family.n)],
        minor_den * weight_den,
    )


@per_family
def _product_terms(family, i, T):
    """[a_i/f_i] * w_T by the closed-form product rule as {u: {sorted key:
    numerator}}, each w-span element over the denominator D of
    `_integer_scalars` squared and divided by f_u(z)
    (`critalg.f_minor_value`), u sorted (k+1)-index tuples; no coefficient
    reads the fiber. i in T is first moved out."""
    minors, weights, _ = _integer_scalars(family)
    if i not in T:
        full = (i,) + T
        u, sign = osflag.sort_with_sign(full)
        out = {}
        for ell, uell in enumerate(full):
            key, key_sign = osflag.sort_with_sign(full[:ell] + full[ell + 1 :])
            if minors[key] == 0:
                continue  # the w symbol of a dependent subset is zero
            coef = sign * key_sign * minors[T] * weights[uell - 1]
            out[key] = coef if ell % 2 == 0 else -coef
        return {u: out}
    terms = {}
    for key, sign in critalg._slot_relation(family, T, i):
        for u, vec in _product_terms(family, i, key).items():
            acc = terms.setdefault(u, {})
            for child, c in vec.items():
                acc[child] = acc.get(child, 0) + sign * c
    return terms


@per_family
def _fiber_independent_algebra(family, anchor):
    """The parts of the algebra that do not read the fiber, in integers:
    per generator, {u: A_u} with multiplication by [a_i/f_i] equal to
    sum_u A_u / f_u(z) on the anchored basis; the unit sum_T c_T
    f_{u_T}(z)^k w_T, u_T = sorted((anchor,) + T), as (u_T, numerator of
    c_T) pairs over one denominator; and the forms f_u that are not
    identically zero, as integer z-coefficients over one denominator.
    A_u is formed from the integer product terms (`_product_terms`),
    rewritten over the anchored basis (`critalg.canonicalize`)."""
    k, basis = family.k, critalg.anchored_subsets(family, anchor)
    position = {T: p for p, T in enumerate(basis)}
    den = _integer_scalars(family)[2] ** 2
    gens = []
    for i in range(1, family.n + 1):
        parts = {}
        for q, T in enumerate(basis):
            for u, vec in _product_terms(family, i, T).items():
                part = parts.setdefault(u, [{} for _ in basis])
                for U, c in critalg.canonicalize(family, vec, anchor).items():
                    part[position[U]][q] = c
        gens.append({u: _reduced_matrix(part, den) for u, part in parts.items()})
    unit = []
    for T in basis:
        u = (anchor,) + T
        denom = math.prod((-1) ** m * family.minor(u[:m] + u[m + 1 :]) for m in range(k + 1))
        if denom == 0:
            raise ValueError(f"unsupported family: dependent subset inside {u}")
        key, sign = osflag.sort_with_sign(u)
        unit.append((key, sign**k / (denom * family.weight_sum**k)))
    nums, unit_den = _integer_vector([c for _, c in unit])
    unit = [(u, nums.get(p, 0)) for p, (u, _) in enumerate(unit)]
    subsets = itertools.combinations(range(1, family.n + 1), k + 1)
    subsets = [u for u in subsets if any(critalg.f_minor_form(family, u))]
    forms = _integer_rows([critalg.f_minor_form(family, u) for u in subsets])
    return gens, (unit, unit_den), (dict(zip(subsets, forms.rows)), forms.den)


@per_fiber
def _fiber_algebra(family, zz, anchor):
    """The algebra of the critical set at the rational fiber zz, in
    integers: multiplication by each [a_i/f_i] on the anchored basis, and
    the unit as a one-row matrix, all `linalg.IntegerMatrix`es."""
    gens, (unit, unit_den), (forms, form_den) = _fiber_independent_algebra(family, anchor)
    z_values, z_den = _integer_vector([critalg._rationalize(v) for v in zz])
    # f_u(z) = values[u] / (form_den * z_den)
    values = {u: _dot(row, z_values) for u, row in forms.items()}
    pole = next((u for u, v in values.items() if v == 0), None)
    if pole is not None:
        raise ValueError(f"fiber lies on the pole locus of the product rule at {pole}")
    tables = tuple(
        _integer_sum([(form_den * z_den, values[u], part) for u, part in parts.items()])
        for parts in gens
    )
    vec = {p: c * values[u] ** family.k for p, (u, c) in enumerate(unit)}
    return tables, _reduced_matrix([vec], unit_den * (form_den * z_den) ** family.k)


def _times(tables, gens, vec):
    """M_{g_r} ... M_{g_1} applied to the one-row IntegerMatrix vec, with
    M_g = tables[g - 1]."""
    for g in gens:
        table, values = tables[g - 1], vec.rows[0]
        rows = [{p: _dot(row, values) for p, row in enumerate(table.rows)}]
        vec = _reduced_matrix(rows, table.den * vec.den)
    return vec


def _sorted_gens(family, gens):
    """The generator indices as a sorted tuple, each checked to be 1..n."""
    if not all(1 <= g <= family.n for g in gens):
        raise ValueError(f"bad generator index in {tuple(gens)}")
    return tuple(sorted(gens))


@per_fiber
def _product(family, zz, anchor, gens):
    """The class of prod [a_g/f_g] over the sorted generator tuple gens, as
    a one-row IntegerMatrix over the anchored basis: the table of the last
    generator applied to the product of the others, memoized per fiber
    along sorted prefixes, since the algebra is commutative."""
    tables, unit = _fiber_algebra(family, zz, anchor)
    if not gens:
        return unit
    return _times(tables, gens[-1:], _product(family, zz, anchor, gens[:-1]))


def _covector(family, anchor, vec):
    """A one-row IntegerMatrix over the anchored basis as a w-span element."""
    basis = critalg.anchored_subsets(family, anchor)
    out = osflag.CoVector()
    out.coeffs = {basis[p]: Fraction(v, vec.den) for p, v in vec.rows[0].items()}
    return out


def monomial_to_w(family, z, gens, anchor=None):
    """Class of prod [a_i/f_i] over the given generator indices (any number
    of factors) in the anchored basis: M_{g_r} ... M_{g_1} applied to the
    unit, with M_g the fiber's table of [a_g/f_g]."""
    if anchor is None:
        anchor = default_anchor(family)
    return _covector(family, anchor, _product(family, z, anchor, _sorted_gens(family, gens)))


def identity_element(family, z, anchor=None):
    """The unit of the algebra from the anchored minor expansion, read from
    the fiber's table."""
    if anchor is None:
        anchor = default_anchor(family)
    return _covector(family, anchor, _fiber_algebra(family, z, anchor)[1])


def multiply(family, z, x, y, anchor=None):
    """Product of two w-span elements, in anchored coordinates: each term
    x_T w_T = x_T d_T prod_{g in T} [a_g/f_g] of x acts on y through the
    fiber's generator tables."""
    if anchor is None:
        anchor = default_anchor(family)
    basis = critalg.anchored_subsets(family, anchor)
    tables, _ = _fiber_algebra(family, z, anchor)
    left, right = critalg._anchored(family, x, anchor), critalg._anchored(family, y, anchor)
    minors, minor_den = _integer_vector([family.minor(T) for T in basis])
    parts = [
        (c * minors[p], left.den * minor_den, _times(tables, basis[p], right))
        for p, c in left.rows[0].items()
    ]
    return _covector(family, anchor, _integer_sum(parts)) if parts else osflag.CoVector()


@per_fiber
def _paired_unit(family, zz, anchor):
    """The anchor's Gram table (`critalg._anchored_gram`) applied to the
    fiber's unit: integer numerators by anchored position, and their
    denominator."""
    gram = critalg._anchored_gram(family, anchor)
    unit = _fiber_algebra(family, zz, anchor)[1]
    values = unit.rows[0]
    return {p: _dot(row, values) for p, row in enumerate(gram.rows)}, gram.den * unit.den


def unit_pairing(family, z, gens, anchor=None):
    """structural_pairing(monomial_to_w(family, z, gens, anchor),
    identity_element(family, z, anchor)) in integers: the product's row
    (`_product`) against the anchor's Gram table applied to the unit
    (`_paired_unit`), with no w-span element formed. The value does not
    depend on the anchor."""
    if anchor is None:
        anchor = default_anchor(family)
    product = _product(family, z, anchor, _sorted_gens(family, gens))
    paired, den = _paired_unit(family, z, anchor)
    return Fraction(_dot(product.rows[0], paired), product.den * den)


# ---------------------------------------------------------------------------
# potentials


def potential_first(family, z, anchor=None):
    """The quadratic potential P = S(q, q) at a fiber."""
    q = frobenius.period_map(family, z, anchor)
    return osflag.contravariant_pairing(q, q, family)


def potential_first_closed(family, z):
    """The minor-form expansion P = sum_u e_u f_u(z)^(2k) / |a|^(2k+1) over
    the (k+1)-subsets u, from the log potential's rows
    (`_log_potential_rows`)."""
    rows, e_den, f_den = _log_potential_rows(family)
    values, z_den = _integer_vector(coords(z))
    total = sum(e * _dot(form, values) ** (2 * family.k) for e, form in rows)
    den = e_den * (f_den * z_den) ** (2 * family.k) * family.weight_sum ** (2 * family.k + 1)
    return Fraction(total) / den


@per_family
def _log_potential_rows(family):
    """The log potential sum_u (e_u / (2k)!) f_u^(2k) log f_u over the
    (k+1)-subsets u, e_u = prod_{j in u} a_j / prod_m d_{u less m}^2, in
    integers (`frobenius._minor_terms`)."""
    subsets = list(itertools.combinations(range(1, family.n + 1), family.k + 1))
    coefs = []
    for u in subsets:
        denom = 1
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError("log potential closed form needs a generic family")
            denom *= minor * minor
        coefs.append(osflag.weight_product(family, u) / denom)
    return frobenius._minor_terms(family, subsets, coefs)


def _log_potential_derivative(family, zz, directions):
    """The (2k+1)-fold derivative of the log potential at the rational fiber
    zz: d^(2k+1) (f^(2k) log f) = (2k)! prod_j lambda_j / f, so it is
    sum_u e_u prod_j lambda_{u,j} / f_u(z), from integers."""
    rows, e_den, f_den = _log_potential_rows(family)
    values, z_den = _integer_vector(zz)
    slopes = ((e * math.prod(form.get(j - 1, 0) for j in directions), form) for e, form in rows)
    total = sum(Fraction(s, _dot(form, values)) for s, form in slopes if s)
    return total * Fraction(z_den, e_den * f_den ** (len(directions) - 1))


def potential_derivative_row(family, z, directions, anchor=None):
    """One report row comparing the (2k+1)-fold derivative of the log
    potential with the pairing of the generator product against the algebra
    unit, both exact."""
    k = family.k
    if len(directions) != 2 * k + 1:
        raise ValueError(f"need {2 * k + 1} directions, got {len(directions)}")
    zz = coords(z)
    lhs = _log_potential_derivative(family, zz, directions)
    pairing = unit_pairing(family, zz, directions, anchor)
    return _exact_row(directions, lhs, pairing if k % 2 == 0 else -pairing)


def _exact_row(directions, lhs, rhs):
    return {
        "tuple": list(directions),
        "lhs": str(lhs),
        "rhs": str(rhs),
        "mode": "exact",
        "abs_err": float(abs(lhs - rhs)),
    }


def _quadratic_derivative(family, zz, directions, anchor):
    """The derivative of P = S(q, q) along the directions at the rational
    fiber zz, by Leibniz over their positions: the sum of S(d^A q, d^B q)
    over the splits into A and B with both orders at most k (the higher
    derivatives of q vanish), against the weight table
    (`osflag._integer_weights`) in integers; every split shares the
    denominator of `frobenius.section_derivative`."""
    key, k = tuple(sorted(directions)), family.k
    splits = Counter()
    for size in range(max(0, len(key) - k), min(k, len(key)) + 1):
        for chosen in itertools.combinations(range(len(key)), size):
            left = tuple(key[i] for i in chosen)
            right = tuple(x for i, x in enumerate(key) if i not in chosen)
            splits[min(left, right), max(left, right)] += 1
    weights, w_den = osflag._integer_weights(family)
    total = 0
    for (left, right), mult in splits.items():
        x, x_den = frobenius.fiber_section_derivative(family, zz, anchor, left)
        y, y_den = frobenius.fiber_section_derivative(family, zz, anchor, right)
        total += mult * sum(weights[p] * v * y.get(p, 0) for p, v in x.items())
    return Fraction(total, x_den * y_den * w_den)


def multi_derivative_identity_row(family, z, directions, anchor=None):
    """Report row for the r-fold derivative identity of P against the
    generator product pairing, r <= 2k."""
    r, k = len(directions), family.k
    if r > 2 * k:
        raise ValueError("derivative order exceeds 2k")
    zz, anchor = coords(z), anchor or default_anchor(family)
    dP = _quadratic_derivative(family, zz, directions, anchor)
    rhs = Fraction(1 if k % 2 == 0 else -1) * family.weight_sum**r / a_constant(k, r) * dP
    return _exact_row(directions, unit_pairing(family, zz, directions, anchor), rhs)


def a_constant(k, r):
    """The combinatorial normalization constant of the derivative
    identities; defined for r <= 2k."""
    if r > 2 * k:
        raise ValueError("derivative order exceeds 2k")
    kfact2 = math.factorial(k) ** 2
    lo = 0 if r <= k else r - k
    hi = r if r <= k else k
    total = 0
    for i in range(lo, hi + 1):
        total += (
            math.comb(r, i)
            * kfact2
            // (math.factorial(k - i) * math.factorial(k - r + i))
        )
    return total
