"""Frobenius-type structure on the space of fibers, in exact arithmetic.

This module ties the algebra of functions on the critical set
(w-coordinates, critalg) to the singular flag subspace (v-vectors,
osflag). The identification nu: w_T -> v_T is an isometry up to the
residue-form sign (-1)^k, one integer combination of the family's v rows
(`osflag.v_rows`); the residue identification (`critpoints`) must agree
with it up to one global scalar that is measured, never assumed. On top of
nu live the section q(z), the potentials (`exact`), the period forms
(`transport`) and, for k = 1, the restriction to diagonal strata
(`strata`).

q = sum_T c_T f_{u_T}^k v_T is a sum of powers of the (k+1)-minor forms
f_u (`_minor_terms`), so every derivative the checks read is a closed form
in the integers f_u(z): d^J q is
sum_T c_T (k)_r prod_{j in J} lambda_{u_T,j} f_{u_T}^(k-r) v_T, kept once
per fiber and sorted J (`fiber_section_derivative`). The integer rows
behind it are built once per family (`core.per_family`), and the tables of
a fiber live in its entry of the family (`core.per_fiber`) with the
integer K_j(z) (`gaussmanin.fiber_k_operator`), the algebra of
`exact._fiber_algebra` and the critical points of
`critpoints.solve_critical`; `ArrangementFamily.release_fibers` frees them
all. `contravariant_compositions` does not read the fiber and is decided
once per family. The potentials P = S(q, q) and the log potential, and the
rows that compare their derivatives with the algebra, are in `exact`,
which float launches never run.
"""

import math
from fractions import Fraction

from . import linalg
from .core import default_anchor, per_family, per_fiber
from .linalg import _lazy_module, _moved_names

critalg = _lazy_module("arrfrob.critalg")
osflag = _lazy_module("arrfrob.osflag")
__getattr__ = _moved_names(
    __name__,
    critpoints=("naive_iso_and_constant",),
    exact=("multi_derivative_identity_row", "potential_derivative_row"),
    transport=("flat_period_check", "twisted_closedness_k1", "twisted_pairing_invariance",
               "twisted_period_relation"),
)


# ---------------------------------------------------------------------------
# the identification nu


def alpha_structural(family, wvec):
    """nu: send each w_T coordinate to the singular vector v_T, as one
    integer combination of the family's v rows (`osflag.v_rows`) over one
    denominator."""
    rows = osflag.v_rows(family)
    position = family.flag_index.position
    den = math.lcm(*(coef.denominator for _, coef in wvec.items()))
    acc = {}
    for T, coef in wvec.items():
        if coef:
            mult = coef.numerator * (den // coef.denominator)
            for q, v in rows.rows[position(T)].items():
                acc[q] = acc.get(q, 0) + mult * v
    den *= rows.den
    subsets = family.flag_index.subsets
    out = osflag.FlagVector()
    out.coeffs = {subsets[q]: Fraction(v, den) for q, v in acc.items() if v}
    return out


def contravariant_map_class(family, flagvec):
    """The weight-form map from flags to algebra classes, F_T -> w_T."""
    out = osflag.CoVector()
    for T, coef in flagvec.items():
        out.coeffs[T] = coef
    return out


@per_family
def contravariant_compositions(family):
    """Whether alpha o [S] = (-1)^k pi and [S] o alpha = (-1)^k id, with the
    k = 1 conventions flipping both signs, exactly through nu. Neither nu,
    the weight form nor the Sing projection reads the fiber, so the verdict
    is decided once per family."""
    sign = -1 if family.k == 1 else 1
    space = osflag.singular_subspace(family)
    anchor = default_anchor(family)
    exact_ok = True
    for T in family.flag_index:
        # alpha([S] F_T) vs sign * projection of F_T
        flag = osflag.FlagVector.basis(T)
        image = alpha_structural(family, contravariant_map_class(family, flag))
        if not space.is_projection(flag, image * sign):
            exact_ok = False
        # [S](alpha w_T) vs sign * w_T, compared in anchored coordinates
        back = contravariant_map_class(family, osflag.v_vector(family, T))
        lhs = critalg.canonicalize(family, back, anchor)
        rhs = critalg.canonicalize(family, osflag.CoVector.basis(T) * sign, anchor)
        if lhs != rhs:
            exact_ok = False
    return exact_ok


# ---------------------------------------------------------------------------
# conformal block section


def _minor_terms(family, subsets, coefs):
    """Per (k+1)-subset u, the numerator of its coefficient and the integer
    z-coefficients of f_u (`critalg.f_minor_form`), with the coefficients
    over one denominator and the forms over another."""
    nums, den = linalg._integer_vector(coefs)
    forms = linalg._integer_rows([critalg.f_minor_form(family, u) for u in subsets])
    return [(nums[p], forms.rows[p]) for p in range(len(subsets))], den, forms.den


@per_family
def _section_rows(family, anchor):
    """q = sum_T c_T f_{u_T}^k v_T over the anchored T, u_T = (anchor,) + T,
    in integers (`_minor_terms`), each term with the position of v_T's row
    in `osflag.v_rows`."""
    basis = critalg.anchored_subsets(family, anchor)
    coefs = []
    for u in ((anchor,) + T for T in basis):
        denom = family.weight_sum**family.k
        for m in range(len(u)):
            minor = family.minor(u[:m] + u[m + 1 :])
            if minor == 0:
                raise ValueError(f"closed form needs independent subsets inside {u}")
            denom *= minor if m % 2 == 0 else -minor
        coefs.append(1 / denom)
    terms, c_den, f_den = _minor_terms(family, [(anchor,) + T for T in basis], coefs)
    position = family.flag_index.position
    return [(c, form, position(T)) for (c, form), T in zip(terms, basis)], c_den, f_den


@per_fiber
def _section_forms(family, zz, anchor):
    """The numerators of f_{u_T}(z), one integer dot per term of
    `_section_rows`, and the fiber's denominator; z must be rational."""
    values, z_den = linalg._integer_vector([critalg._rationalize(v) for v in zz])
    return [linalg._dot(form, values) for _, form, _ in _section_rows(family, anchor)[0]], z_den


def section_derivative(family, zz, key, anchor):
    """d^key q = sum_T c_T (k)_r prod_{j in key} lambda_{u_T,j}
    f_{u_T}(z)^(k-r) v_T at the rational fiber zz (zero for r > k), as
    ({flag position: numerator}, c_den V f_den^k z_den^(k-r)), V the v
    rows' denominator; unreduced, so the splits of
    `exact._quadratic_derivative` share it."""
    k, r = family.k, len(key)
    if r > k:
        return {}, 1
    terms, c_den, f_den = _section_rows(family, anchor)
    values, z_den = _section_forms(family, zz, anchor)
    rows = osflag.v_rows(family)
    acc = {}
    for (c, form, pos), f in zip(terms, values):
        mult = c * math.prod(form.get(j - 1, 0) for j in key) * f ** (k - r)
        if mult:
            for q, v in rows.rows[pos].items():
                acc[q] = acc.get(q, 0) + mult * v
    falling = math.perm(k, r)
    den = c_den * rows.den * f_den**k * z_den ** (k - r)
    return {q: falling * acc[q] for q in sorted(acc) if acc[q]}, den


@per_fiber
def fiber_section_derivative(family, zz, anchor, key):
    """`section_derivative` once per family, exact fiber, anchor and sorted
    direction tuple (mixed partials commute), in the fiber's entry of the
    family (`core.per_fiber`)."""
    return section_derivative(family, zz, key, anchor)


def block_derivative(family, z, directions, anchor=None):
    """The derivative of q along the directions at a rational fiber, a
    FlagVector."""
    key = tuple(sorted(directions))
    values, den = fiber_section_derivative(family, z, anchor or default_anchor(family), key)
    out, subsets = osflag.FlagVector(), family.flag_index.subsets
    out.coeffs = {subsets[p]: Fraction(v, den) for p, v in values.items()}
    return out


def period_map(family, z, anchor=None):
    """The section q at a fiber, q(z) = nu of the algebra unit."""
    return block_derivative(family, z, (), anchor)
