"""Graded free modules over Q[z_1..z_l]: Groebner bases, syzygies, free
resolutions, Hilbert functions and polynomials, Krull dimension, duals and
Ext^1 against the ring.

The Hilbert function and polynomial, Krull dimension and length all read
one Hilbert series, taken from the leading terms of the relation basis:
one numerator per position of F_0, with no resolution.

A module is presented as the cokernel of a map between graded free modules.
A presentation holds its relations as the engine's integer term dicts
``{(pos, exps): int}``, and submodule presentations, duals and Ext^1
compute kernels on those dicts; a submodule whose generators are already a
reduced POT Groebner basis is related by their S-pair syzygies instead.
A resolution map is such dicts over one positive integer divisor,
minimalized fraction-free, so it enters the engine as it is.
`FreeModuleElement` vectors over Q remain the element type of the public
`groebner_basis`, `normal_form`, `syzygies` and `kernel_generators`;
`to_engine` and `from_engine` convert at that boundary, and
`ResolutionData.dump` renders through `from_engine`.

Every free module carries its twists, so every kernel, resolution and
Ext^1 is graded.  The per-point lengths of the localization formula are
graded too: they are computed on a central arrangement, the localization at
the point on the chart centred there (`log_geometry.per_flat_n_values`).
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add

from . import groebner as eng
from .errors import (EngineError, InputError, NotFiniteLengthError,
                     ResolutionLengthError)
from .orders import TOPOrder
from .rings import MultiPoly, UniPolyQ, binomial_poly, normalize_coeff

DEGREE_CAP = 200


class GradedFreeModule:
    """A free module ⊕_j S(-a_j), one twist a_j per generator."""

    __slots__ = ("arity", "twists", "rank")

    def __init__(self, arity, twists):
        self.arity = arity
        self.twists = tuple(twists)
        self.rank = len(self.twists)

    def element(self, components):
        return FreeModuleElement(self, components)

    def zero_element(self):
        return FreeModuleElement(
            self, [MultiPoly.zero(self.arity)] * self.rank)

    def dual(self):
        return GradedFreeModule(self.arity, [-a for a in self.twists])

    def twist_multiset(self):
        """Counter of S(n) arguments, n = -a, as used in resolution dumps."""
        out = {}
        for a in self.twists:
            out[-a] = out.get(-a, 0) + 1
        return dict(sorted(out.items(), reverse=True))

    def __eq__(self, other):
        return (isinstance(other, GradedFreeModule)
                and self.arity == other.arity and self.rank == other.rank
                and self.twists == other.twists)

    def __repr__(self):
        return (f"GradedFreeModule(arity={self.arity}, "
                f"twists={list(self.twists)})")


class FreeModuleElement:
    """An element of a free module, stored as a vector of polynomials."""

    __slots__ = ("module", "components")

    def __init__(self, module, components):
        components = tuple(components)
        if len(components) != module.rank:
            raise InputError("component count does not match module rank")
        for p in components:
            if p.arity != module.arity:
                raise InputError("component arity does not match module")
        self.module = module
        self.components = components

    def is_zero(self):
        return all(p.is_zero() for p in self.components)

    def degree(self):
        """Twisted degree of a homogeneous nonzero element."""
        degs = set()
        for p, a in zip(self.components, self.module.twists):
            if p.is_zero():
                continue
            degs.add(p.homogeneous_degree() + a)
        if len(degs) != 1:
            raise InputError("element is zero or inhomogeneous")
        return degs.pop()

    def __add__(self, other):
        return FreeModuleElement(
            self.module,
            [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return FreeModuleElement(
            self.module,
            [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return FreeModuleElement(self.module, [-a for a in self.components])

    def poly_mul(self, p):
        return FreeModuleElement(self.module,
                                 [q * p for q in self.components])

    def dot(self, polys):
        """Pairing against a sequence of polynomials, sum comp_i * polys[i]."""
        out = MultiPoly.zero(self.module.arity)
        for p, q in zip(self.components, polys):
            out = out + p * q
        return out

    def __eq__(self, other):
        return (isinstance(other, FreeModuleElement)
                and self.module == other.module
                and self.components == other.components)

    def render(self, names=None):
        return "(" + ", ".join(p.render(names) for p in self.components) + ")"

    def __repr__(self):
        return f"FreeModuleElement{self.render()}"


# ----- conversions between the public and engine representations -----

def to_engine(elem):
    """FreeModuleElement -> content-free integer term dict."""
    return eng.content_normalize(to_engine_scaled([elem])[0])


def to_engine_scaled(columns):
    """Columns of a map -> integer term dicts: every column times one
    common denominator of all their entries.

    Scaling every column by the same factor leaves the kernel of the map
    unchanged, so kernels of the dicts are kernels of the map.
    """
    den = lcm(*(c.denominator for col in columns for p in col.components
                for c in p.terms.values()))
    return [{(pos, exps): int(c * den)
             for pos, p in enumerate(col.components)
             for exps, c in p.terms.items()} for col in columns]


def from_engine(d, module, divisor=1):
    """Integer term dict -> FreeModuleElement, dividing by ``divisor``."""
    comps = [dict() for _ in range(module.rank)]
    for (pos, exps), c in d.items():
        comps[pos][exps] = normalize_coeff(Fraction(c, divisor))
    return FreeModuleElement(
        module, [MultiPoly(module.arity, t, _clean=True) for t in comps])


def _engine_degree(basis_elem, twists):
    pos, exps = basis_elem.lt
    return sum(exps) + twists[pos]


class GroebnerBasis:
    """Reduced Groebner basis of a submodule, with reusable engine state."""

    __slots__ = ("module", "elements", "_engine_gb", "_engine_order")

    def __init__(self, module, engine_gb, engine_order):
        self.module = module
        self._engine_gb = engine_gb
        self._engine_order = engine_order
        self.elements = [from_engine(g.d, module, divisor=g.lc)
                         for g in engine_gb]

    def __len__(self):
        return len(self._engine_gb)

    def __iter__(self):
        return iter(self.elements)


def groebner_basis(gens, module=None):
    """Reduced Groebner basis of the submodule generated by ``gens``, in
    the TOP grevlex order with the module's twists.

    Empty input yields the empty basis; the ambient ``module`` must then
    be supplied explicitly.
    """
    if not gens:
        if module is None:
            raise InputError("empty generator list needs an explicit module")
        return GroebnerBasis(module, [], TOPOrder(module.arity, module.twists))
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise InputError("generators live in different free modules")
    order = TOPOrder(module.arity, module.twists)
    engine_gb = eng.buchberger(
        [to_engine(g) for g in gens if not g.is_zero()], order)
    return GroebnerBasis(module, engine_gb, order)


def normal_form(elem, gb):
    """The unique reduced normal form of ``elem`` modulo ``gb``."""
    if elem.module != gb.module:
        raise InputError("element and basis live in different free modules")
    d, scale = eng.normal_form_raw(to_engine(elem), gb._engine_gb,
                                   gb._engine_order)
    return from_engine(d, gb.module, divisor=scale)


def syzygies(gb):
    """Generators of the first syzygy module of the basis elements.

    Schreyer's construction: every same-position S-pair is reduced to zero
    and the tracked quotients are returned as elements of ⊕_i S(-deg g_i).
    """
    elems, _ = eng.schreyer_syzygies(gb._engine_gb, gb._engine_order)
    twists = [_engine_degree(g, gb.module.twists) for g in gb._engine_gb]
    src = GradedFreeModule(gb.module.arity, twists)
    return [from_engine(g.d, src, divisor=g.lc) for g in elems]


def kernel_generators(columns, source_twists=None):
    """Generators of the kernel of the map  ⊕_j S(-t_j) -> F,  e_j -> c_j.

    ``source_twists`` fixes the grading of the source; when omitted it is
    read off the column degrees (columns must then be nonzero).  Returns
    content-free integer elements of the source module.
    """
    if not columns:
        return []
    target = columns[0].module
    for c in columns:
        if c.module != target:
            raise InputError("columns live in different free modules")
    if source_twists is None:
        source_twists = [c.degree() for c in columns]
    source = GradedFreeModule(target.arity, source_twists)
    raw = eng.kernel_raw(to_engine_scaled(columns), target.rank, target.arity)
    return [from_engine(d, source) for d in raw]


def _degree(d, twists):
    """Twisted degree of a nonzero homogeneous term dict."""
    degs = {sum(exps) + twists[pos] for pos, exps in d}
    if len(degs) != 1:
        raise InputError("element is zero or inhomogeneous")
    return degs.pop()


def _transpose(columns, rank):
    """Term dicts of the transposed map: column i collects entry i of each
    of ``columns`` (dicts over positions 0..rank-1)."""
    out = [{} for _ in range(rank)]
    for j, col in enumerate(columns):
        for (i, exps), c in col.items():
            out[i][(j, exps)] = c
    return out


class GradedModulePresentation:
    """M = coker(relations: F_1 -> F_0) with F_0 = ``target``.

    ``relations`` are integer term dicts ``{(pos, exps): int}`` over the
    positions of ``target``; empty dicts are dropped.  ``shift`` twists the
    module at construction: M(shift) has its target twists lowered by
    ``shift``.
    """

    __slots__ = ("target", "relations", "_gb", "_minres")

    def __init__(self, target, relations, shift=0):
        if shift:
            target = GradedFreeModule(target.arity,
                                      [a - shift for a in target.twists])
        self.target = target
        rels = []
        for r in relations:
            if not r:
                continue
            if any(pos >= target.rank or len(exps) != target.arity
                   for pos, exps in r):
                raise InputError("relation does not match the target module")
            _degree(r, target.twists)
            rels.append(r)
        self.relations = tuple(rels)
        self._gb = None
        self._minres = None

    @property
    def arity(self):
        return self.target.arity

    @classmethod
    def free(cls, module):
        return cls(module, [])

    @classmethod
    def zero(cls, arity):
        return cls(GradedFreeModule(arity, []), [])

    def twisted(self, s):
        """The twisted module M(s)."""
        return GradedModulePresentation(self.target, self.relations, shift=s)

    def relation_gb(self):
        """``(basis, order)``: the reduced engine Groebner basis of the
        relations in ``TOPOrder(twists)``, computed once; every Hilbert,
        dimension and resolution query starts from it.  The basis is empty
        when the module is free."""
        if self._gb is None:
            order = TOPOrder(self.arity, self.target.twists)
            basis = []
            if self.relations:
                basis = eng.buchberger(self.relations, order)
            self._gb = (basis, order)
        return self._gb

    def lead_exponents(self):
        """Per position, minimal generators of the leading-term ideal."""
        out = [[] for _ in range(self.target.rank)]
        for g in self.relation_gb()[0]:
            out[g.lpos].append(g.lexps)
        return [_minimal_monomials(gens) for gens in out]

    def is_zero_module(self):
        zero = (0,) * self.arity
        return all(zero in gens for gens in self.lead_exponents())

    def minimal_resolution(self):
        if self._minres is None:
            self._minres = free_resolution(self)
        return self._minres

    def __repr__(self):
        return (f"GradedModulePresentation(target={self.target!r}, "
                f"{len(self.relations)} relations)")


class ResolutionData:
    """A chain F_len -> ... -> F_1 -> F_0 with maps[k]: terms[k+1]->terms[k].

    ``maps[k]`` holds one integer term dict per generator of terms[k+1],
    over the positions of terms[k]; the map sends the generator to its
    dict divided by the positive integer ``divisors[k]``, reduced so that
    the gcd of the dicts' content and the divisor is 1.  Consecutive maps
    compose to zero and the image of maps[k] equals the kernel of
    maps[k-1] by construction (iterated syzygies).

    ``kept`` lists the generators of the presented module that F_0 keeps,
    as indices into the presentation's target: all of them unless
    minimalization dropped some.
    """

    __slots__ = ("terms", "maps", "divisors", "minimal", "kept")

    def __init__(self, terms, maps, divisors, minimal, kept=None):
        self.terms = list(terms)
        self.maps = [list(cols) for cols in maps]
        self.divisors = list(divisors)
        self.minimal = minimal
        self.kept = list(range(self.terms[0].rank) if kept is None else kept)

    @property
    def length(self):
        return len(self.maps)

    def compose_is_zero(self):
        arity = self.terms[0].arity
        return all(eng.in_kernel(upper, lower, arity)
                   for lower, upper in zip(self.maps, self.maps[1:]))

    def has_unit_entry(self):
        return any(_constant_rows(col) for cols in self.maps for col in cols)

    def dump(self):
        """Twist multisets plus rendered matrices (the golden-test format)."""
        out = {"minimal": self.minimal, "terms": [], "maps": []}
        for F in self.terms:
            out["terms"].append(F.twist_multiset())
        for k, cols in enumerate(self.maps):
            elems = [from_engine(d, self.terms[k], self.divisors[k])
                     for d in cols]
            out["maps"].append([[e.components[i].render() for e in elems]
                                for i in range(self.terms[k].rank)])
        return out


def _constant_rows(col):
    """Positions at which the column's entry is a nonzero constant."""
    const, other = set(), set()
    for pos, exps in col:
        (other if any(exps) else const).add(pos)
    return const - other


def _first_unit(maps):
    """``(map, row, column)`` of the first constant entry, or None."""
    for k, B in enumerate(maps):
        units = [(r, c) for c, col in enumerate(B)
                 for r in _constant_rows(col)]
        if units:
            return (k,) + min(units)
    return None


def _drop_row(col, r):
    """The column's nonzero terms off position r, later positions moved up
    by one."""
    return {(pos - (pos > r), exps): c for (pos, exps), c in col.items()
            if c and pos != r}


def _reduced(cols, divisor):
    """The columns and ``divisor`` with the gcd of the columns' content and
    the divisor, signed like the divisor, divided out of both."""
    g = gcd(divisor, *(c for col in cols for c in col.values()))
    g = g if divisor > 0 else -g
    if g == 1:
        return cols, divisor
    return [{t: c // g for t, c in col.items()} for col in cols], divisor // g


def free_resolution(pres, max_len=None, minimal=True):
    """Free resolution of a presented module by iterated Schreyer syzygies.

    Minimalized (no unit entries remain) unless ``minimal`` is False, which
    returns the raw chain.  Raises ResolutionLengthError if the chain
    exceeds ``max_len`` steps (default: arity + 1, which suffices
    by the sorted-Schreyer bound).
    """
    arity = pres.arity
    cap = max_len if max_len is not None else arity + 1
    F0 = pres.target
    gb, order0 = pres.relation_gb()
    if not gb:
        return ResolutionData([F0], [], [], minimal=True)
    terms = [F0]
    chain = []  # engine elements of each map
    current = eng.schreyer_sort(gb)
    corder = order0
    ctwists = F0.twists
    while True:
        Fk = GradedFreeModule(arity,
                              [_engine_degree(g, ctwists) for g in current])
        terms.append(Fk)
        chain.append(current)
        if len(chain) > cap:
            raise ResolutionLengthError(
                f"resolution exceeded {cap} steps; raise max_len")
        selems, sorder = eng.schreyer_syzygies(current, corder)
        if not selems:
            break
        current = eng.schreyer_sort(selems)
        corder = sorder
        ctwists = Fk.twists
    # columns keep the content-free integer representatives: the next
    # level's syzygies pair against exactly these, so consecutive maps
    # compose to zero on the nose
    res = ResolutionData(terms, [[g.d for g in elems] for elems in chain],
                         [1] * len(chain), minimal=False)
    if minimal:
        res = minimalize_resolution(res)
    return res


def minimalize_resolution(res):
    """Cancel unit entries by fraction-free elimination on the whole complex.

    The pivot is the first constant entry ``u``, by map, then row, then
    column: at row r and column c of map B.  Column operations clear row r
    off c, ``B := u*B - col_c (x) row_r`` with the divisor multiplied by
    ``u``; then row r and column c of B, row c of the next map and column r
    of the previous one are deleted.  The matching basis changes would
    touch only that row and that column of the neighbours, so they are
    not made.  A pivot in the first map drops generator r of the module:
    column c writes it in terms of the others, so ``kept`` loses it.
    """
    zero = (0,) * res.terms[0].arity
    twists = [list(F.twists) for F in res.terms]
    maps = [list(cols) for cols in res.maps]
    divisors = list(res.divisors)
    kept = list(res.kept)
    while (pivot := _first_unit(maps)) is not None:
        k, r, c = pivot
        col_c = maps[k][c]
        u = col_c[(r, zero)]
        cols = []
        for j, col in enumerate(maps[k]):
            if j == c:
                continue
            row = [(e, a) for (pos, e), a in col.items() if pos == r]
            if row or u != 1:
                col = {t: u * a for t, a in col.items()}
            for e, a in row:
                for (s, f), b in col_c.items():
                    t = (s, tuple(map(add, e, f)))
                    col[t] = col.get(t, 0) - a * b
            cols.append(_drop_row(col, r))
        maps[k] = cols
        divisors[k] *= u
        if k + 1 < len(maps):
            maps[k + 1] = [_drop_row(col, c) for col in maps[k + 1]]
        if k > 0:
            del maps[k - 1][r]
        else:
            del kept[r]
        del twists[k][r]
        del twists[k + 1][c]
        for i in range(max(k - 1, 0), min(k + 2, len(maps))):
            maps[i], divisors[i] = _reduced(maps[i], divisors[i])
    # trim trailing zero-rank terms
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
        maps.pop()
        divisors.pop()
    if any(not tw for tw in twists[1:-1]):
        raise EngineError("intermediate zero term after minimalization")
    terms = [GradedFreeModule(res.terms[0].arity, tw) for tw in twists]
    return ResolutionData(terms, maps, divisors, minimal=True, kept=kept)


# ----- Hilbert data -----

def _minimal_monomials(exps):
    """Minimal generators of the ideal of monomials ``exps``, ascending."""
    kept = []
    for e in sorted(exps):
        if not any(eng.exps_divide(k, e) for k in kept):
            kept.append(e)
    return kept


def _numerator(gens):
    """Coefficients by degree of K(t), where K(t) / (1 - t)^l is the Hilbert
    series of S / (gens), ``gens`` minimal and ascending; [] for S / S.
    Colon recursion (Bigatti, JPAA 1997): K(I + (m)) = K(I) -
    t^deg(m) K(I : m), I : m generated by the lcm(g, m) / m."""
    if not gens:
        return [1]
    *rest, m = gens
    out = _numerator(rest)
    colon = _minimal_monomials(
        [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest])
    sub = out if colon == rest else _numerator(colon)
    d = sum(m)
    out = out + [0] * (d + len(sub) - len(out))
    for i, c in enumerate(sub):
        out[d + i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def hilbert_numerators(pres):
    """K_j(t) per position j of F_0, from the leading terms at j: the
    Hilbert series of the module is sum_j t^(a_j) K_j(t) / (1 - t)^l."""
    return [_numerator(gens) for gens in pres.lead_exponents()]


def _reduced_series(num):
    """``(r, h)`` with K(t) = (1 - t)^r h(t), h(1) != 0, for K != 0; each
    division by 1 - t is a prefix sum whose last entry is 0."""
    r = 0
    while (q := list(accumulate(num)))[-1] == 0:
        num = q[:-1]
        r += 1
    return r, num


def _shifted_terms(pres):
    """``(a_j + i, c_ji)`` for the nonzero coefficients c_ji of t^i in K_j."""
    return [(a + i, c) for a, num in zip(pres.target.twists,
                                         hilbert_numerators(pres))
            for i, c in enumerate(num) if c]


def hilbert_function(pres, degree):
    """dim_Q of the degree-d graded piece of the presented module:
    sum c_ji binom(d - a_j - i + l - 1, l - 1) over d - a_j - i >= 0."""
    k = pres.arity - 1
    return sum(c * comb(degree - s + k, k)
               for s, c in _shifted_terms(pres) if s <= degree)


def total_dimension(pres, degree_cap=DEGREE_CAP):
    """Q-dimension over all degrees, twists ignored: at finite length each
    K_j / (1 - t)^l is a polynomial, the standard monomials counted by
    degree.  Raises NotFiniteLengthError once some position has a standard
    monomial of degree >= ``degree_cap``, as an infinite module always
    has."""
    total = 0
    for num in filter(None, hilbert_numerators(pres)):
        r, h = _reduced_series(num)
        if r < pres.arity or len(h) > degree_cap:
            raise NotFiniteLengthError(
                f"degree cap {degree_cap} exceeded while counting "
                "standard monomials")
        total += sum(h)
    return total


def hilbert_polynomial(pres):
    """Hilbert polynomial from the numerators:
    sum c_ji binom(t - a_j - i + l - 1, l - 1)."""
    k = pres.arity - 1
    return sum((binomial_poly(s, k) * c for s, c in _shifted_terms(pres)),
               UniPolyQ.zero())


def krull_dim(pres):
    """Krull dimension of the module, -1 for the zero module: l minus the
    order of t = 1 in K_j, maximized over the nonzero K_j."""
    return max((pres.arity - _reduced_series(num)[0]
                for num in filter(None, hilbert_numerators(pres))), default=-1)


def finite_length(pres, degree_cap=DEGREE_CAP):
    """Total Q-dimension of a module of Krull dimension <= 0."""
    if krull_dim(pres) > 0:
        raise NotFiniteLengthError("module is not finite length")
    return total_dimension(pres, degree_cap=degree_cap)


# ----- duals and Ext -----

def _submodule_target(gens, ambient):
    """The free module with one generator per dict of ``gens``, graded by
    their degrees in ``ambient``."""
    return GradedFreeModule(ambient.arity,
                            [_degree(g, ambient.twists) for g in gens])


def presentation_of_submodule(gens, ambient):
    """Presentation of the submodule of the free module ``ambient``
    generated by the integer term dicts ``gens``: one generator per
    nonzero dict, related by the kernel of the map they span, found by POT
    elimination.

    The submodules the library presents itself (D_0 and a point's D, both
    cut out by linear conditions on derivations, and the kernel
    `module_dual` presents) come as reduced POT Groebner bases and go
    through `presentation_of_basis` instead, which needs no elimination.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise InputError("cannot present a submodule from zero generators")
    return GradedModulePresentation(
        _submodule_target(gens, ambient),
        eng.kernel_raw(gens, ambient.rank, ambient.arity))


def presentation_of_basis(basis, ambient):
    """Presentation of the submodule of ``ambient`` whose generators
    ``basis`` are a reduced POT Groebner basis, as `kernel_raw` returns
    one: related by the chain-criterion S-pair syzygies of
    `groebner.basis_syzygies`, by ascending degree and not interreduced.
    Any generating set of the relations gives the same ``relation_gb``."""
    return GradedModulePresentation(
        _submodule_target(basis, ambient),
        eng.basis_syzygies(basis, ambient.arity, ambient.twists))


def module_dual(pres):
    """Hom_S(M, S): the kernel of the transposed presentation map, a
    reduced POT Groebner basis in F_0^*, presented by its own S-pair
    syzygies."""
    F0 = pres.target
    if not pres.relations:
        return GradedModulePresentation(F0.dual(), [])
    kernel = eng.kernel_raw(_transpose(pres.relations, F0.rank),
                            len(pres.relations), F0.arity)
    if not kernel:
        return GradedModulePresentation.zero(pres.arity)
    return presentation_of_basis(kernel, F0.dual())


def ext_from_resolution(res, i):
    """Ext^i_S(M, S), 0 < i <= p = ``res.length``, from the minimal
    resolution ``res`` of M: at i = p the cokernel of phi_p^T on F_p^*;
    below p, ker(phi_(i+1)^T) modulo im(phi_i^T), presented on generators
    of the kernel by the syzygies of [kernel | phi_i^T] with only the
    kernel columns tracked (`kernel_raw(..., tracked=len(kernel))`)."""
    Fd = res.terms[i].dual()
    phi_T = _transpose(res.maps[i - 1], res.terms[i - 1].rank)
    if i == res.length:
        return GradedModulePresentation(Fd, phi_T)
    arity = Fd.arity
    kernel = eng.kernel_raw(_transpose(res.maps[i], Fd.rank),
                            res.terms[i + 1].rank, arity)
    if not kernel:
        return GradedModulePresentation.zero(arity)
    syz = eng.kernel_raw(kernel + phi_T, Fd.rank, arity, tracked=len(kernel))
    return GradedModulePresentation(_submodule_target(kernel, Fd), syz)


def ext1_against_ring(pres):
    """Ext^1_S(M, S) from the minimal resolution of M
    (`ext_from_resolution`), zero when M is free."""
    res = pres.minimal_resolution()
    if res.length == 0:
        return GradedModulePresentation.zero(pres.arity)
    return ext_from_resolution(res, 1)
