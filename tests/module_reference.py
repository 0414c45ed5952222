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

The library cuts D_0 and a point's D out by linear conditions, one per
hyperplane.  `derivation_module_d0` and `affine_n_value` below keep the
earlier route through the partials of f: D_0 is the syzygy module of
(f_1, ..., f_l), the D of a point's central arrangement A'_q the theta part
of the kernel of (f_1, ..., f_l, f), each presented by POT elimination.

The library computes a point's N on A'_q, the localization at the point on
the chart centred there, with graded modules, as the length of the top
Ext of D(A'_q) read off its own minimal resolution, with no dual.  Both
oracles here dualize: `affine_n_value` counts Ext^1(D(A'_q)^*, S'), and
`chart_n_value` keeps the earlier ungraded route: the localization
dehomogenized on an affine chart, its D cut out by linear conditions with
affine constants, dualized, resolved by a raw Schreyer chain and its Ext^1
counted, all on the engine's term dicts.

The library's eliminations for D_0, a point's D and the relations of
Ext^1 give an identity position only to the coordinates they keep.
`derivation_basis_all_columns` and `ext1_all_columns` keep the earlier
routes, which track every column and project afterwards: the h_H are read
off the kernel and the whole kernel vector is checked with `in_kernel`,
and the syzygies of ``[kernel | phi_1^T]`` are cut to the kernel
coordinates.

The library reads the Hilbert function and polynomial, Krull dimension and
length off one Hilbert-series numerator per position.  The earlier routes
stay below: standard monomials of the leading-term ideals enumerated
degree by degree, the largest variable subset avoiding every leading
support, and the Hilbert polynomial summed over the twists of the minimal
free resolution.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from logchern import groebner as eng
from logchern import modules
from logchern.arrangements import Arrangement, localize
from logchern.errors import (EngineError, HypothesisError, InputError,
                             NotFiniteLengthError)
from logchern.log_geometry import _linear_columns, defining_data
from logchern.modules import (DEGREE_CAP, FreeModuleElement,
                              GradedFreeModule, GradedModulePresentation,
                              ext1_against_ring, free_resolution,
                              from_engine, to_engine)
from logchern.orders import TOPOrder
from logchern.rings import MultiPoly, UniPolyQ, binomial_poly


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
    if source_twists is None:
        source_twists = [c.degree() for c in columns]
    source = GradedFreeModule(target.arity, source_twists)
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
    target = GradedFreeModule(ambient.arity, [g.degree() for g in gens])
    return _presentation(target, kernel_generators(gens))


def module_dual(pres):
    """Hom_S(M, S): kernel of the transposed presentation map, presented
    through its own syzygies."""
    F0 = pres.target
    F0_dual = F0.dual()
    if not pres.relations:
        return GradedModulePresentation(F0_dual, [])
    rels = [from_engine(r, F0) for r in pres.relations]
    F1 = GradedFreeModule(F0.arity, [r.degree() for r in rels])
    F1_dual = F1.dual()
    cols_T = _transpose_columns(rels, F0, F1_dual)
    kernel = kernel_generators(cols_T, source_twists=F0_dual.twists)
    kernel = [k for k in kernel if not k.is_zero()]
    if not kernel:
        return GradedModulePresentation.zero(pres.arity)
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
            out["terms"].append(F.twist_multiset())
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
    res = minimal_resolution(pres)
    if res.length == 0:
        return GradedModulePresentation.zero(pres.arity)
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
        return GradedModulePresentation.zero(pres.arity)
    k_elems = [FreeModuleElement(F1d, k.components) for k in kernel]
    m = len(k_elems)
    src_twists = [k.degree() for k in k_elems] + list(F0d.twists)
    syz = kernel_generators(k_elems + phi1_T, source_twists=src_twists)
    target = GradedFreeModule(pres.arity, [k.degree() for k in k_elems])
    return _presentation(target, [FreeModuleElement(target, s.components[:m])
                                  for s in syz])


# ----- logarithmic derivations through the partials of f -----

def _kernel_of_polys(polys, arity):
    """Integer term dicts generating the kernel of e_j -> polys[j] in S."""
    S1 = GradedFreeModule(arity, [0])
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
    """N of a point from its central arrangement A'_q, with D = ker(df, f):
    the theta part of the kernel of (f_1, ..., f_l, f), presented by POT
    elimination and dualized by the element route above."""
    dd = defining_data(arr)
    arity = dd.arity
    kernel = _kernel_of_polys(dd.partials + (dd.f,), arity)
    d = modules.presentation_of_submodule(
        [{t: c for t, c in k.items() if t[0] < arity} for k in kernel],
        GradedFreeModule(arity, [0] * arity))
    ext1 = ext1_against_ring(module_dual(d))
    if krull_dim(ext1) > 0:
        raise HypothesisError("affine non-free locus is not zero-dimensional")
    return finite_length(ext1, degree_cap=degree_cap)


# ----- D_0, a point's D and Ext^1 with every column tracked -----

def derivation_basis_all_columns(arr, d0):
    """The reduced POT basis of D_0 (``d0``) or of D: the kernel of the
    linear map with an identity position for every g_i and h_H, checked
    whole by `in_kernel`, then cut to the theta parts."""
    columns, rows = _linear_columns(arr, d0)
    kernel = eng.kernel_raw(columns, rows, arr.dim)
    if not eng.in_kernel(kernel, columns, arr.dim):
        raise EngineError("alleged syzygy does not annihilate f")
    return [{t: c for t, c in k.items() if t[0] < arr.dim} for k in kernel]


def ext1_all_columns(pres):
    """Ext^1_S(M, S) on the kernel of phi_2^T, its relations the syzygies
    of [kernel | phi_1^T] with every column tracked, cut to the kernel
    coordinates."""
    res = pres.minimal_resolution()
    if res.length == 0:
        return GradedModulePresentation.zero(pres.arity)
    F1d = res.terms[1].dual()
    phi1_T = modules._transpose(res.maps[0], res.terms[0].rank)
    if res.length == 1:
        return GradedModulePresentation(F1d, phi1_T)
    phi2_T = modules._transpose(res.maps[1], res.terms[1].rank)
    kernel = eng.kernel_raw(phi2_T, res.terms[2].rank, pres.arity)
    if not kernel:
        return GradedModulePresentation.zero(pres.arity)
    m = len(kernel)
    twists = [modules._degree(k, F1d.twists) for k in kernel]
    syz = eng.kernel_raw(kernel + phi1_T, F1d.rank, pres.arity)
    return GradedModulePresentation(
        GradedFreeModule(pres.arity, twists),
        [{t: c for t, c in s.items() if t[0] < m} for s in syz])


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
    leads = pres.lead_exponents()
    return sum(_count_standard(pres.arity, degree - a, leads[j])
               for j, a in enumerate(pres.target.twists))


def _staircase_size(leads, arity, degree_cap):
    """Standard monomials of the leading ideals ``leads``, one per
    position, counted degree by degree until a degree has none; past
    ``degree_cap`` the count stops."""
    total = 0
    for gens in leads:
        n = 0
        while (c := _count_standard(arity, n, gens)):
            total += c
            n += 1
            if n > degree_cap:
                raise NotFiniteLengthError(
                    f"degree cap {degree_cap} exceeded while counting "
                    "standard monomials")
    return total


def total_dimension(pres, degree_cap=DEGREE_CAP):
    """Standard monomials counted degree by degree, per position."""
    return _staircase_size(pres.lead_exponents(), pres.arity, degree_cap)


def hilbert_polynomial(pres):
    """sum_i (-1)^i sum_j binom(t - a_ij + l - 1, l - 1) over the twists
    a_ij of the minimal free resolution."""
    out = UniPolyQ.zero()
    for i, F in enumerate(pres.minimal_resolution().terms):
        for a in F.twists:
            term = binomial_poly(a, pres.arity - 1)
            out = out + (term if i % 2 == 0 else -term)
    return out


def _leading_krull_dim(leads, arity):
    """The largest number of variables whose monomials avoid the leading
    ideal ``leads[j]`` at some position j; -1 for the zero module."""
    zero = (0,) * arity
    best = -1
    for gens in leads:
        if zero in gens:
            continue  # this position presents the zero summand
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        best = max(best, next(
            size for size in range(arity, -1, -1)
            if any(not any(s <= set(T) for s in supports)
                   for T in combinations(range(arity), size))))
    return best


def krull_dim(pres):
    """Krull dimension from the leading terms, by variable subsets."""
    return _leading_krull_dim(pres.lead_exponents(), pres.arity)


def finite_length(pres, degree_cap=DEGREE_CAP):
    """Total Q-dimension of a module of Krull dimension <= 0."""
    if krull_dim(pres) > 0:
        raise NotFiniteLengthError("module is not finite length")
    return total_dimension(pres, degree_cap=degree_cap)


# ----- a point's N on an affine chart, ungraded -----

def chart_arrangement(arr, flat, chart=None):
    """The localization at a rank-(l-1) flat, dehomogenized on a coordinate
    chart of PV that contains the flat's projective point."""
    sub = localize(arr, flat)
    direction = flat.subspace_basis()
    if len(direction) != 1:
        raise InputError("chart construction needs a codimension l-1 flat")
    v = direction[0]
    if chart is None:
        chart = next(i for i, x in enumerate(v) if x != 0)
    elif not 0 <= chart < arr.dim or v[chart] == 0:
        raise InputError(
            f"chart {chart} does not contain the point of this flat")
    return Arrangement(arr.dim - 1,
                       [a[:chart] + a[chart + 1:] for a in sub.normals],
                       constants=[-a[chart] for a in sub.normals])


def _affine_columns(arr):
    """The linear map of a chart's D: row H is
    sum_i a_{H,i} g_i - (a_H.z - c_H) h_H, columns g_i then h_H."""
    l = arr.dim
    zero = (0,) * l
    units = [tuple(int(i == k) for i in range(l)) for k in range(l)]
    cols = [{(H, zero): a[i] for H, a in enumerate(arr.normals) if a[i]}
            for i in range(l)]
    for H, (a, c) in enumerate(zip(arr.normals, arr.constants)):
        col = {(H, units[k]): -x for k, x in enumerate(a) if x}
        if c:
            col[(H, zero)] = c
        cols.append(col)
    return cols, arr.n


def _check_affine_derivations(arr, basis):
    """Every theta of ``basis`` satisfies alpha_H | theta(alpha_H), the
    division done on `MultiPoly`."""
    l = arr.dim
    for j, theta in enumerate(basis):
        comps = [{} for _ in range(l)]
        for (i, exps), c in theta.items():
            comps[i][exps] = c
        for H, (a, c) in enumerate(zip(arr.normals, arr.constants)):
            image = MultiPoly.zero(l)
            for i, x in enumerate(a):
                if x:
                    image = image + MultiPoly(l, comps[i]) * x
            alpha = MultiPoly.linear_form(a) - MultiPoly.constant(l, c)
            try:
                image.divide_exact(alpha)
            except InputError:
                raise EngineError(
                    f"derivation {j} does not annihilate f: alpha_{H} does "
                    f"not divide theta(alpha_{H})") from None


def _ungraded_dual(relations, rank, arity):
    """Hom_S of coker(relations) into S, ungraded: ``(relations, rank)``
    of the kernel of the transposed map, a reduced POT basis presented by
    its S-pair syzygies."""
    if not relations:
        return [], rank
    kernel = eng.kernel_raw(modules._transpose(relations, rank),
                            len(relations), arity)
    return eng.basis_syzygies(kernel, arity), len(kernel)


def _ungraded_ext1(relations, rank, arity):
    """Ext^1_S(M, S) of M = coker(relations) from the raw Schreyer chain,
    as ``(relations, rank)``."""
    order = TOPOrder(arity)
    gb = eng.buchberger(relations, order) if relations else []
    if not gb:
        return [], 0
    phi1 = eng.schreyer_sort(gb)
    syz, order1 = eng.schreyer_syzygies(phi1, order)
    phi1_T = modules._transpose([g.d for g in phi1], rank)
    if not syz:
        return phi1_T, len(phi1)
    phi2 = eng.schreyer_sort(syz)
    phi2_T = modules._transpose([g.d for g in phi2], len(phi1))
    kernel = eng.kernel_raw(phi2_T, len(phi2), arity)
    if not kernel:
        return [], 0
    return (eng.kernel_raw(kernel + phi1_T, len(phi1), arity,
                           tracked=len(kernel)), len(kernel))


def chart_n_value(arr, flat, chart=None, degree_cap=DEGREE_CAP):
    """N of the point of ``flat`` on the affine chart ``chart``: D of the
    chart arrangement from the affine linear map, its dual, and the length
    of the Ext^1 of that dual counted on an ungraded staircase."""
    aff = chart_arrangement(arr, flat, chart)
    arity = aff.dim
    columns, rows = _affine_columns(aff)
    basis = eng.kernel_raw(columns, rows, arity, tracked=arity)
    _check_affine_derivations(aff, basis)
    dual = _ungraded_dual(eng.basis_syzygies(basis, arity), len(basis),
                          arity)
    relations, rank = _ungraded_ext1(*dual, arity)
    leads = [[] for _ in range(rank)]
    for g in (eng.buchberger(relations, TOPOrder(arity)) if relations
              else []):
        leads[g.lpos].append(g.lexps)
    leads = [modules._minimal_monomials(gens) for gens in leads]
    if _leading_krull_dim(leads, arity) > 0:
        raise HypothesisError("affine non-free locus is not zero-dimensional")
    return _staircase_size(leads, arity, degree_cap)
