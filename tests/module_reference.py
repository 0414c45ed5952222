"""Reference route for kernels, submodule presentations, duals, minimal
resolutions and Ext^1, and for the logarithmic derivation modules.

The library computes these on the engine's integer term dicts and enters
each map into the engine once, with one common denominator cleared.  This
module keeps the earlier route on `FreeModuleElement` vectors, which the
tests compare against the library: every column is scaled to a primitive
integer vector on its own, and each kernel vector is corrected back by the
per-column factors and made monic.  Minimal resolutions cancel unit
entries by Gaussian elimination over `Fraction` on grids of `MultiPoly`
entries, with the basis changes mirrored on the neighbouring maps; they
start from the library's non-minimal Schreyer resolution, read with
`from_engine`.  Presentations are handed to the library class as integer
term dicts (`to_engine`), and read back with `from_engine`.

The library cuts D_0 and a chart's D out by linear conditions, one per
hyperplane.  `derivation_module_d0` and `affine_n_value` below keep the
earlier route through the partials of f: D_0 is the syzygy module of
(f_1, ..., f_l), a chart's D the theta part of the kernel of
(f_1, ..., f_l, f), each presented by POT elimination.

The library reads the Hilbert function and polynomial, Krull dimension and
length off one Hilbert-series numerator per position.  The earlier routes
stay below: standard monomials of the leading-term ideals enumerated
degree by degree, the largest variable subset avoiding every leading
support, and the Hilbert polynomial summed over the twists of the minimal
free resolution.
"""

from fractions import Fraction
from math import gcd

from logchern import groebner as eng
from logchern import modules
from logchern.errors import EngineError, HypothesisError, InputError
from logchern.log_geometry import defining_data
from itertools import combinations
from math import comb

from logchern.errors import NotFiniteLengthError
from logchern.modules import (DEGREE_CAP, FreeModuleElement,
                              GradedFreeModule, GradedModulePresentation,
                              ext1_against_ring, free_resolution,
                              from_engine, to_engine)
from logchern.orders import TOPOrder
from logchern.rings import UniPolyQ, binomial_poly


def to_engine_scaled(elem):
    """FreeModuleElement -> (dict, factor) with  dict == factor * elem."""
    den = 1
    for p in elem.components:
        for c in p.terms.values():
            if isinstance(c, Fraction):
                den = den * c.denominator // gcd(den, c.denominator)
    d = {}
    for pos, p in enumerate(elem.components):
        for exps, c in p.terms.items():
            d[(pos, exps)] = int(c * den)
    content = 0
    for c in d.values():
        content = gcd(content, c)
        if content == 1:
            break
    if content > 1:
        for k in d:
            d[k] //= content
    return d, Fraction(den, content if content else 1)


def kernel_generators(columns, source_twists=None):
    """Generators of the kernel of the map  ⊕_j S(-t_j) -> F,  e_j -> c_j."""
    if not columns:
        return []
    target = columns[0].module
    for c in columns:
        if c.module != target:
            raise InputError("columns live in different free modules")
    if target.graded:
        if source_twists is None:
            source_twists = [c.degree() for c in columns]
        source = GradedFreeModule(target.arity, source_twists)
    else:
        source = GradedFreeModule(target.arity, rank=len(columns))
    scaled = [to_engine_scaled(c) for c in columns]
    raw = eng.kernel_raw([d for d, _ in scaled], target.rank, target.arity)
    factors = [f for _, f in scaled]
    order = TOPOrder(source.arity, source.twists)
    out = []
    for d in raw:
        b = eng.BasisElem({order.pack(t): c for t, c in d.items()}, order)
        elem = from_engine(b.d, source, divisor=b.lc)
        # the raw vector annihilates the scaled columns; correct back
        if any(f != 1 for f in factors):
            elem = FreeModuleElement(
                source, [p * f for p, f in zip(elem.components, factors)])
        out.append(elem)
    return out


def _transpose_columns(cols, source, target_dual):
    """Columns of the transposed map (one per generator of ``source``)."""
    out = []
    for i in range(source.rank):
        comps = [col.components[i] for col in cols]
        out.append(FreeModuleElement(target_dual, comps))
    return out


def _presentation(target, rels):
    return GradedModulePresentation(target, [to_engine(r) for r in rels])


def presentation_of_submodule(gens):
    """Presentation of the submodule generated by ``gens`` of a free module."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise InputError("cannot present a submodule from zero generators")
    ambient = gens[0].module
    if ambient.graded:
        target = GradedFreeModule(ambient.arity, [g.degree() for g in gens])
    else:
        target = GradedFreeModule(ambient.arity, rank=len(gens))
    return _presentation(target, kernel_generators(gens))


def module_dual(pres):
    """Hom_S(M, S): kernel of the transposed presentation map, presented
    through its own syzygies."""
    F0 = pres.target
    F0_dual = F0.dual()
    if not pres.relations:
        return GradedModulePresentation(F0_dual, [])
    rels = [from_engine(r, F0) for r in pres.relations]
    if F0.graded:
        F1 = GradedFreeModule(F0.arity, [r.degree() for r in rels])
    else:
        F1 = GradedFreeModule(F0.arity, rank=len(rels))
    F1_dual = F1.dual()
    cols_T = _transpose_columns(rels, F0, F1_dual)
    kernel = kernel_generators(cols_T, source_twists=F0_dual.twists)
    kernel = [k for k in kernel if not k.is_zero()]
    if not kernel:
        return GradedModulePresentation.zero(pres.arity, graded=F0.graded)
    gens = [FreeModuleElement(F0_dual, k.components) for k in kernel]
    return presentation_of_submodule(gens)


class ElementResolution:
    """A chain of maps whose columns are `FreeModuleElement`s of terms[k]."""

    def __init__(self, terms, maps, minimal):
        self.terms = list(terms)
        self.maps = [list(cols) for cols in maps]
        self.minimal = minimal

    @property
    def length(self):
        return len(self.maps)

    def matrix(self, k):
        """Entry grid of maps[k]: rows over terms[k], cols over terms[k+1]."""
        cols = self.maps[k]
        nrows = self.terms[k].rank
        return [[col.components[i] for col in cols] for i in range(nrows)]

    def dump(self):
        """The library's `ResolutionData.dump` format."""
        out = {"minimal": self.minimal, "terms": [], "maps": []}
        for F in self.terms:
            out["terms"].append(F.twist_multiset() if F.graded
                                else {"rank": F.rank})
        for k in range(len(self.maps)):
            grid = self.matrix(k)
            out["maps"].append([[p.render() for p in row] for row in grid])
        return out


def schreyer_resolution(pres):
    """The library's non-minimal resolution, its maps read as elements."""
    raw = free_resolution(pres, minimal=False)
    maps = [[from_engine(d, raw.terms[k], raw.divisors[k]) for d in cols]
            for k, cols in enumerate(raw.maps)]
    return ElementResolution(raw.terms, maps, raw.minimal)


def minimal_resolution(pres):
    """Minimal resolution of a graded presentation, by the Fraction grid
    elimination below."""
    return minimalize_resolution(schreyer_resolution(pres))


def _is_unit_entry(p):
    return bool(p.terms) and set(p.terms) == {(0,) * p.arity}


def minimalize_resolution(res):
    """Cancel unit entries by Gaussian elimination on the whole complex."""
    arity = res.terms[0].arity
    twists = [list(F.twists) for F in res.terms]
    mats = [[row[:] for row in res.matrix(k)] for k in range(res.length)]

    def find_unit():
        for k, B in enumerate(mats):
            for r, row in enumerate(B):
                for c, p in enumerate(row):
                    if _is_unit_entry(p):
                        return k, r, c, p.constant_term()
        return None

    while True:
        found = find_unit()
        if found is None:
            break
        k, r, c, u = found
        B = mats[k]
        nrows = len(B)
        ncols = len(B[0])
        inv_u = Fraction(1) / Fraction(u)
        row_r = [B[r][j] for j in range(ncols)]   # original row r
        col_c = [B[s][c] for s in range(nrows)]   # original column c
        # column ops: col_j -= (B[r][j]/u) col_c, clearing row r off c
        for j in range(ncols):
            if j == c or row_r[j].is_zero():
                continue
            q = row_r[j] * inv_u
            for s in range(nrows):
                B[s][j] = B[s][j] - col_c[s] * q
        # mirror on the next map: row_c += sum_j (B[r][j]/u) row_j
        if k + 1 < len(mats):
            A = mats[k + 1]
            width = len(A[0]) if A else 0
            for j in range(ncols):
                if j == c or row_r[j].is_zero():
                    continue
                q = row_r[j] * inv_u
                for t in range(width):
                    A[c][t] = A[c][t] + q * A[j][t]
        # mirror of the row ops on the previous map:
        # col_r += sum_s (B[s][c]/u) col_s
        if k - 1 >= 0:
            C = mats[k - 1]
            for s in range(nrows):
                if s == r or col_c[s].is_zero():
                    continue
                q = col_c[s] * inv_u
                for t in range(len(C)):
                    C[t][r] = C[t][r] + C[t][s] * q
        # delete the cancelled generator pair
        del B[r]
        for row in B:
            del row[c]
        if k + 1 < len(mats):
            del mats[k + 1][c]
        if k - 1 >= 0:
            for row in mats[k - 1]:
                del row[r]
        del twists[k][r]
        del twists[k + 1][c]
    # trim trailing zero-rank terms
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
        mats.pop()
    if len(twists) > 2:
        for tw in twists[1:-1]:
            if not tw:
                raise EngineError(
                    "intermediate zero term after minimalization")
    terms = [GradedFreeModule(arity, tw) for tw in twists]
    maps = []
    for k, B in enumerate(mats):
        ncols = len(B[0]) if B else 0
        cols = [FreeModuleElement(terms[k], [B[i][j] for i in range(len(B))])
                for j in range(ncols)]
        maps.append(cols)
    return ElementResolution(terms, maps, minimal=True)


def ext1_against_ring(pres):
    """Ext^1_S(M, S) as homology of the dualized resolution at step 1."""
    graded = pres.graded
    res = minimal_resolution(pres) if graded else schreyer_resolution(pres)
    if res.length == 0:
        return GradedModulePresentation.zero(pres.arity, graded=graded)
    F0, F1 = res.terms[0], res.terms[1]
    F0d, F1d = F0.dual(), F1.dual()
    phi1_T = _transpose_columns(res.maps[0], F0, F1d)
    if res.length == 1:
        return _presentation(F1d, phi1_T)
    F2 = res.terms[2]
    F2d = F2.dual()
    phi2_T = _transpose_columns(res.maps[1], F1, F2d)
    kernel = kernel_generators(phi2_T, source_twists=F1d.twists)
    kernel = [k for k in kernel if not k.is_zero()]
    if not kernel:
        return GradedModulePresentation.zero(pres.arity, graded=graded)
    k_elems = [FreeModuleElement(F1d, k.components) for k in kernel]
    m = len(k_elems)
    combined = k_elems + phi1_T
    if graded:
        src_twists = [k.degree() for k in k_elems] + list(F0d.twists)
    else:
        src_twists = None
    syz = kernel_generators(combined, source_twists=src_twists)
    if graded:
        target = GradedFreeModule(pres.arity, [k.degree() for k in k_elems])
    else:
        target = GradedFreeModule(pres.arity, rank=m)
    return _presentation(target, [FreeModuleElement(target, s.components[:m])
                                  for s in syz])


# ----- logarithmic derivations through the partials of f -----

def _kernel_of_polys(polys, arity):
    """Integer term dicts generating the kernel of e_j -> polys[j] in S."""
    S1 = GradedFreeModule(arity, rank=1)
    return eng.kernel_raw(
        modules.to_engine_scaled([S1.element([p]) for p in polys]), 1,
        arity)


def derivation_module_d0(dd):
    """``(basis, presentation)`` of D_0 as the syzygies of the partials:
    the reduced POT basis as integer term dicts, presented by POT
    elimination (`modules.presentation_of_submodule`)."""
    basis = _kernel_of_polys(dd.partials, dd.arity)
    ambient = GradedFreeModule(dd.arity, [0] * dd.arity)
    if not basis:
        return basis, GradedModulePresentation.zero(dd.arity)
    return basis, modules.presentation_of_submodule(basis, ambient)


def affine_n_value(arr, degree_cap=DEGREE_CAP):
    """N of an affine arrangement with D = ker(df, f): the theta part of
    the kernel of (f_1, ..., f_l, f), presented by POT elimination and
    dualized by the element route above."""
    dd = defining_data(arr)
    arity = dd.arity
    kernel = _kernel_of_polys(dd.partials + (dd.f,), arity)
    d = modules.presentation_of_submodule(
        [{t: c for t, c in k.items() if t[0] < arity} for k in kernel],
        GradedFreeModule(arity, rank=arity))
    ext1 = ext1_against_ring(module_dual(d))
    if krull_dim(ext1) > 0:
        raise HypothesisError("affine non-free locus is not zero-dimensional")
    return finite_length(ext1, degree_cap=degree_cap)


# ----- Hilbert data from the staircase and the resolution -----

def _compositions(total, parts):
    """Yield exponent tuples of the given total degree."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _count_standard(arity, n, lead_gens):
    """Monomials of degree n divisible by none of ``lead_gens``."""
    if n < 0:
        return 0
    if any(sum(e) == 0 for e in lead_gens):
        return 0
    if not lead_gens:
        return comb(n + arity - 1, arity - 1)
    return sum(1 for m in _compositions(n, arity)
               if not any(eng.exps_divide(g, m) for g in lead_gens))


def hilbert_function(pres, degree):
    """dim_Q of the degree-d piece: standard monomials per position."""
    if not pres.graded:
        raise InputError("Hilbert function needs a graded presentation")
    leads = pres.lead_exponents()
    return sum(_count_standard(pres.arity, degree - a, leads[j])
               for j, a in enumerate(pres.target.twists))


def total_dimension(pres, degree_cap=DEGREE_CAP):
    """Standard monomials counted degree by degree, per position, until a
    degree has none; past ``degree_cap`` the count stops."""
    total = 0
    for gens in pres.lead_exponents():
        n = 0
        while (c := _count_standard(pres.arity, n, gens)):
            total += c
            n += 1
            if n > degree_cap:
                raise NotFiniteLengthError(
                    f"degree cap {degree_cap} exceeded while counting "
                    "standard monomials")
    return total


def hilbert_polynomial(pres):
    """sum_i (-1)^i sum_j binom(t - a_ij + l - 1, l - 1) over the twists
    a_ij of the minimal free resolution."""
    if not pres.graded:
        raise InputError("Hilbert polynomial needs a graded presentation")
    out = UniPolyQ.zero()
    for i, F in enumerate(pres.minimal_resolution().terms):
        for a in F.twists:
            term = binomial_poly(a, pres.arity - 1)
            out = out + (term if i % 2 == 0 else -term)
    return out


def krull_dim(pres):
    """The largest number of variables whose monomials avoid the leading
    ideal at some position; -1 for the zero module."""
    zero = (0,) * pres.arity
    best = -1
    for gens in pres.lead_exponents():
        if zero in gens:
            continue  # this position presents the zero summand
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        best = max(best, next(
            size for size in range(pres.arity, -1, -1)
            if any(not any(s <= set(T) for s in supports)
                   for T in combinations(range(pres.arity), size))))
    return best


def finite_length(pres, degree_cap=DEGREE_CAP):
    """Total Q-dimension of a module of Krull dimension <= 0."""
    if krull_dim(pres) > 0:
        raise NotFiniteLengthError("module is not finite length")
    return total_dimension(pres, degree_cap=degree_cap)
