"""Reference route for kernels, submodule presentations, duals and Ext^1.

The library computes these on the engine's integer term dicts and enters
each map into the engine once, with one common denominator cleared.  This
module keeps the earlier route on `FreeModuleElement` vectors, which the
tests compare against the library: every column is scaled to a primitive
integer vector on its own, and each kernel vector is corrected back by the
per-column factors and made monic.  Presentations are handed to the library
class as integer term dicts (`to_engine`), and read back with `from_engine`.
"""

from fractions import Fraction
from math import gcd

from logchern import groebner as eng
from logchern.errors import InputError
from logchern.modules import (FreeModuleElement, GradedFreeModule,
                              GradedModulePresentation, free_resolution,
                              from_engine, to_engine)
from logchern.orders import TOPOrder


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


def ext1_against_ring(pres):
    """Ext^1_S(M, S) as homology of the dualized resolution at step 1."""
    graded = pres.graded
    if graded:
        res = pres.minimal_resolution()
    else:
        res = free_resolution(pres, minimal=False)
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
