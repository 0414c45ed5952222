"""Duals, minimal resolutions and Ext^1 on integer term dicts against the
FreeModuleElement reference route of ``tests/module_reference.py``."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logchern import (GradedFreeModule, GradedModulePresentation,
                      ext1_against_ring, hilbert_function, krull_dim,
                      log_modules, module_dual, presentation_of_submodule)
from logchern.cli import load_arrangement
from logchern.modules import from_engine, to_engine_scaled
from tests import module_reference as ref

DEGREES = range(-6, 7)


def _exponents(arity, degree):
    """Exponent tuples of total ``degree`` in ``arity`` variables."""
    if arity == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree + 1)
            for rest in _exponents(arity - 1, degree - first)]


@st.composite
def presentations(draw):
    """A graded presentation over 2-3 variables: rank <= 2, twists 0 or 1,
    up to four relations of twisted degree 1 or 2."""
    arity = draw(st.integers(2, 3))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 2))
        terms = [(pos, e) for pos, a in enumerate(twists) if degree >= a
                 for e in _exponents(arity, degree - a)]
        support = draw(st.lists(st.sampled_from(terms), max_size=4,
                                unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(support), max_size=len(support)))
        rels.append(dict(zip(support, coeffs)))
    return GradedModulePresentation(GradedFreeModule(arity, twists), rels)


def _twists(pres):
    return [F.twist_multiset() for F in pres.minimal_resolution().terms]


def _assert_dual_and_ext1_match(pres):
    dual, dual_ref = module_dual(pres), ref.module_dual(pres)
    assert _twists(dual) == _twists(dual_ref)
    assert krull_dim(dual) == krull_dim(dual_ref)
    ext, ext_ref = ext1_against_ring(pres), ref.ext1_against_ring(pres)
    assert krull_dim(ext) == krull_dim(ext_ref)
    assert [hilbert_function(ext, d) for d in DEGREES] == \
        [hilbert_function(ext_ref, d) for d in DEGREES]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pres=presentations())
def test_dual_and_ext1_match_the_reference_route(pres):
    _assert_dual_and_ext1_match(pres)


@pytest.mark.parametrize("name", ["braid_triple", "generic_4_planes",
                                  "generic_5_hyperplanes", "nonfree_octic"])
def test_log_module_duals_match_the_reference_route(name):
    # random small presentations have free duals; D_0 of a non-free
    # arrangement does not
    _, d0, _, om1, om0 = log_modules(load_arrangement(f"example:{name}"))
    for lm in (d0, om1, om0):
        _assert_dual_and_ext1_match(lm.presentation)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pres=presentations())
def test_submodule_presentations_match_the_reference_route(pres):
    # the relations, read as generators of a submodule of the target: up
    # to four generators, so the duals below need not be free
    gens = pres.relations
    assume(gens)
    sub = presentation_of_submodule(gens, pres.target)
    sub_ref = ref.presentation_of_submodule(
        [from_engine(g, pres.target) for g in gens])
    assert _twists(sub) == _twists(sub_ref)
    assert [hilbert_function(sub, d) for d in DEGREES] == \
        [hilbert_function(sub_ref, d) for d in DEGREES]
    assert _twists(module_dual(sub)) == _twists(ref.module_dual(sub_ref))


@st.composite
def wide_presentations(draw):
    """A graded presentation over 2-3 variables: rank <= 3, twists 0 to 2,
    two to four relations of twisted degree 1 to 3, coefficients in
    [-9, 9]."""
    arity = draw(st.integers(2, 3))
    twists = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    rels = []
    for _ in range(draw(st.integers(2, 4))):
        degree = draw(st.integers(max(1, min(twists)), 3))
        terms = [(pos, e) for pos, a in enumerate(twists) if degree >= a
                 for e in _exponents(arity, degree - a)]
        support = draw(st.lists(st.sampled_from(terms), min_size=1,
                                max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-9, 9).filter(bool),
                               min_size=len(support), max_size=len(support)))
        rels.append(dict(zip(support, coeffs)))
    return GradedModulePresentation(GradedFreeModule(arity, twists), rels)


def _equal_up_to_scaling(rels, ref_rels):
    """True when ``ref_rels`` is ``rels`` with each relation times a
    nonzero rational and each generator position times another: the
    reference makes its kernel vectors monic, so its Ext^1 generators are
    rational multiples of the library's."""
    if [set(r) for r in rels] != [set(r) for r in ref_rels]:
        return False
    # ratio of relation i at position p = scale of i * scale of p
    ratio = {}
    for i, (a, b) in enumerate(zip(rels, ref_rels)):
        for t, c in a.items():
            q = Fraction(b[t], c)
            if ratio.setdefault((i, t[0]), q) != q:
                return False
    # fix one scale per connected component and propagate
    scale = {}
    for i, _ in ratio:
        if ("rel", i) in scale:
            continue
        scale[("rel", i)] = Fraction(1)
        stack = [("rel", i)]
        while stack:
            node = stack.pop()
            for (j, p), q in ratio.items():
                for here, there in ((("rel", j), ("pos", p)),
                                    (("pos", p), ("rel", j))):
                    if here == node and there not in scale:
                        scale[there] = q / scale[node]
                        stack.append(there)
    return all(scale[("rel", i)] * scale[("pos", p)] == q
               for (i, p), q in ratio.items())


def test_minimal_resolutions_and_ext1_match_the_fraction_oracle():
    divisors = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pres=wide_presentations())
    def check(pres):
        res, oracle = pres.minimal_resolution(), ref.minimal_resolution(pres)
        assert res.dump() == oracle.dump()
        # the integer columns are the oracle's map times one common
        # denominator, the divisor
        for cols, d, ref_cols in zip(res.maps, res.divisors, oracle.maps):
            assert cols == to_engine_scaled(ref_cols)
            assert d == lcm(*(c.denominator for col in ref_cols
                              for p in col.components
                              for c in p.terms.values()))
        divisors.extend(res.divisors)
        ext, ext_ref = ext1_against_ring(pres), ref.ext1_against_ring(pres)
        assert ext.target.twists == ext_ref.target.twists
        assert _equal_up_to_scaling(ext.relations, ext_ref.relations)

    check()
    # the corpus reaches maps with rational entries
    assert any(d != 1 for d in divisors)
