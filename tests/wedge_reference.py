"""Reference route for the logarithmic forms: the wedge congruences.

The library builds Omega^1 and Omega^1_0 by Saito duality from D_0.  This
module keeps the independent construction from the numerator vectors of
the forms, which the tests compare against the library:

* Omega^1: numerator vectors g in S^l with f | f_i g_j - f_j g_i for all
  i < j, graded so that df/f (numerator (f_1, ..., f_l)) has degree 0;
* Omega^1_0: the kernel of the Euler contraction <chi, g> = (sum z_i g_i)/f
  on Omega^1.

Every internal check of the construction stays: df/f must lie in Omega^1,
every Omega^1_0 generator must have zero contraction, and the splitting
Omega^1 = Omega^1_0 + S*(df/f) must be additive on Hilbert functions.
"""

from itertools import combinations
from math import comb

from logchern import (EngineError, GradedFreeModule,
                      GradedModulePresentation, HypothesisError, InputError,
                      LogModule, MultiPoly, defining_data,
                      ext1_against_ring, finite_length, groebner_basis,
                      hilbert_function, krull_dim, normal_form)
from logchern.modules import DEGREE_CAP, to_engine
from tests.module_reference import (kernel_generators,
                                    presentation_of_submodule)


def log_forms(dd):
    """Omega^1 via the wedge congruences: numerator vectors g in S^l with
    f | f_i g_j - f_j g_i for all i < j."""
    arity = dd.arity
    zero = MultiPoly.zero(arity)
    pairs = list(combinations(range(arity), 2))
    m = len(pairs)
    H = GradedFreeModule(arity, [0] * m)
    src_twists = [dd.degree - 1] * arity + [dd.degree] * m
    cols = []
    for k in range(arity):
        comps = []
        for (i, j) in pairs:
            if k == j:
                comps.append(dd.partials[i])
            elif k == i:
                comps.append(-dd.partials[j])
            else:
                comps.append(zero)
        cols.append(H.element(comps))
    for r in range(m):
        comps = [zero] * m
        comps[r] = dd.f
        cols.append(H.element(comps))
    kernel = kernel_generators(cols, source_twists=src_twists)
    ambient = GradedFreeModule(arity, [1 - dd.degree] * arity)
    gens = []
    seen = set()
    for k in kernel:
        comps = list(k.components[:arity])
        g = ambient.element(comps)
        if g.is_zero():
            continue
        key = tuple(tuple(sorted(p.terms.items())) for p in comps)
        if key in seen:
            continue
        seen.add(key)
        gens.append(g)
    if not gens:
        raise EngineError("Omega^1 computation produced no generators")
    pres = presentation_of_submodule(gens)
    lm = LogModule("Omega1", pres, dd, ambient, [to_engine(g) for g in gens])
    df = ambient.element(list(dd.partials))
    if not normal_form(df, groebner_basis(list(gens))).is_zero():
        raise EngineError("df/f is missing from Omega^1")
    return lm


def euler_contraction(lm, g):
    """<chi, omega> = (sum z_i g_i)/f for a numerator vector g in Omega^1."""
    dd = lm.defining
    num = g.dot(dd.euler_coefficients())
    if num.is_zero():
        return MultiPoly.zero(dd.arity)
    return num.divide_exact(dd.f)


def relative_log_forms(lm, check_split=True):
    """Omega^1_0 = kernel of the Euler contraction on Omega^1.

    Verifies the splitting Omega^1 = Omega^1_0 + S*(df/f) through Hilbert
    function additivity in low degrees.
    """
    if lm.kind != "Omega1":
        raise InputError("relative forms are computed from Omega^1")
    dd = lm.defining
    arity = dd.arity
    elems = lm.generators
    values = [euler_contraction(lm, g) for g in elems]
    S1 = GradedFreeModule(arity, [0])
    cols = [S1.element([v]) for v in values]
    combos = kernel_generators(
        cols, source_twists=[g.degree() for g in elems])
    gens = []
    for s in combos:
        acc = lm.ambient.zero_element()
        for i, c in enumerate(s.components):
            if not c.is_zero():
                acc = acc + elems[i].poly_mul(c)
        if not acc.is_zero():
            gens.append(acc)
    if not gens:
        pres = GradedModulePresentation.zero(arity)
        out = LogModule("Omega1_0", pres, dd, lm.ambient, [])
    else:
        for g in gens:
            if not euler_contraction(lm, g).is_zero():
                raise EngineError("Omega^1_0 generator fails <chi, -> = 0")
        pres = presentation_of_submodule(gens)
        out = LogModule("Omega1_0", pres, dd, lm.ambient,
                        [to_engine(g) for g in gens])
    if check_split:
        for k in range(0, 5):
            lhs = hilbert_function(lm.presentation, k)
            rhs = hilbert_function(out.presentation, k) \
                + comb(k + arity - 1, arity - 1)
            if lhs != rhs:
                raise EngineError(
                    f"Euler splitting fails Hilbert additivity in degree {k}")
    return out


def affine_n_value(arr, degree_cap=DEGREE_CAP):
    """N of a point from the wedge Omega^1 of its central arrangement A'_q,
    Omega^1 = D^*(-1) having the Ext^1 length of D^*."""
    om1 = log_forms(defining_data(arr))
    ext1 = ext1_against_ring(om1.presentation)
    if krull_dim(ext1) > 0:
        raise HypothesisError("affine non-free locus is not zero-dimensional")
    return finite_length(ext1, degree_cap=degree_cap)
