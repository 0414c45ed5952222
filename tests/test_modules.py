"""Presentations, resolutions, Hilbert data, duals and Ext^1."""

from fractions import Fraction
from math import comb

import pytest

from logchern import (GradedFreeModule, GradedModulePresentation,
                      InputError, MultiPoly, NotFiniteLengthError, UniPolyQ,
                      ext1_against_ring, finite_length, free_resolution,
                      hilbert_function, hilbert_polynomial, krull_dim,
                      module_dual, presentation_of_submodule)
from logchern import groebner
from logchern.modules import ResolutionData, to_engine
from logchern.rings import binomial_poly


def _vars(arity):
    return [MultiPoly.variable(arity, i) for i in range(arity)]


def _quotient(arity, polys):
    """Presentation of S/(polys)."""
    S = GradedFreeModule(arity, [0])
    return GradedModulePresentation(
        S, [to_engine(S.element([p])) for p in polys])


def test_koszul_resolution_of_two_variables():
    x, y = _vars(2)
    pres = _quotient(2, [x, y])
    res = pres.minimal_resolution()
    assert [F.twist_multiset() for F in res.terms] == \
        [{0: 1}, {-1: 2}, {-2: 1}]
    assert res.compose_is_zero()
    assert not res.has_unit_entry()
    assert res.minimal


def _chain(twists, maps):
    """A chain over two variables with integer term-dict maps, divisors 1."""
    terms = [GradedFreeModule(2, t) for t in twists]
    return ResolutionData(terms, maps, [1] * len(maps), minimal=False)


def test_compose_is_zero_detects_a_nonzero_composite():
    x, y = (1, 0), (0, 1)
    koszul = _chain([[0], [1, 1], [2]], [[{(0, x): 1}, {(0, y): 1}],
                                         [{(0, y): 1, (1, x): -1}]])
    assert koszul.compose_is_zero()
    # (x, y) . (y, x) = 2xy
    twisted = _chain([[0], [1, 1], [2]], [[{(0, x): 1}, {(0, y): 1}],
                                          [{(0, y): 1, (1, x): 1}]])
    assert not twisted.compose_is_zero()


def test_has_unit_entry_finds_a_constant_entry():
    one = (0, 0)
    assert _chain([[0], [0]], [[{(0, one): 3}]]).has_unit_entry()
    # 3 + x has a constant term but is not constant
    assert not _chain([[0], [0]],
                      [[{(0, one): 3, (0, (1, 0)): 1}]]).has_unit_entry()
    assert _chain([[0, 1], [1]], [[{(0, (1, 0)): 1, (1, one): -2}]]) \
        .has_unit_entry()


def test_free_module_resolution_has_length_zero():
    F = GradedFreeModule(3, [0, 2, -1])
    res = free_resolution(GradedModulePresentation(F, []))
    assert res.length == 0
    assert res.terms[0] == F


def test_resolution_max_len_guard():
    from logchern import ResolutionLengthError
    x, y = _vars(2)
    pres = _quotient(2, [x, y])
    with pytest.raises(ResolutionLengthError):
        free_resolution(pres, max_len=1)
    assert free_resolution(pres, max_len=2).length == 2


def test_resolution_length_bounded_by_arity():
    xs = _vars(4)
    pres = _quotient(4, [xs[0] * xs[1], xs[1] * xs[2], xs[2] * xs[3],
                         xs[0] * xs[3], xs[0] * xs[2], xs[1] * xs[3]])
    res = pres.minimal_resolution()
    assert res.length <= 4
    assert res.compose_is_zero()


def test_alternating_hilbert_sum_matches_module():
    xs = _vars(3)
    pres = _quotient(3, [xs[0] ** 2 - xs[1] * xs[2], xs[1] ** 3])
    res = pres.minimal_resolution()
    for d in range(0, 11):
        total = 0
        sign = 1
        for F in res.terms:
            for a in F.twists:
                n = d - a
                total += sign * (comb(n + 2, 2) if n >= 0 else 0)
            sign = -sign
        assert total == hilbert_function(pres, d)


def test_hilbert_function_examples():
    pres = GradedModulePresentation(GradedFreeModule(4, [0]), [])
    assert hilbert_function(pres, 2) == 10
    shifted = GradedModulePresentation(GradedFreeModule(4, [1]), [])
    assert hilbert_function(shifted, 1) == 1
    x, y, z = _vars(3)
    quot = _quotient(3, [x, y, z ** 2])
    total = sum(hilbert_function(quot, d) for d in range(0, 10))
    assert total == 2  # basis {1, z}


def test_hilbert_polynomial_examples():
    shifted = GradedModulePresentation(GradedFreeModule(4, [1]), [])
    assert hilbert_polynomial(shifted) == binomial_poly(1, 3)
    assert hilbert_polynomial(shifted) == UniPolyQ(
        [0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)])


def test_hilbert_polynomial_agrees_with_function_eventually():
    xs = _vars(3)
    pres = _quotient(3, [xs[0] * xs[1] ** 2, xs[2] ** 3 - xs[0] ** 3])
    hp = hilbert_polynomial(pres)
    res = pres.minimal_resolution()
    start = max(max(F.twists, default=0) for F in res.terms)
    for d in range(start, start + 8):
        assert hp.evaluate(d) == hilbert_function(pres, d)


def test_krull_dim_examples():
    free = GradedModulePresentation(GradedFreeModule(4, [0]), [])
    assert krull_dim(free) == 4
    xs = _vars(4)
    point = _quotient(4, list(xs))
    assert krull_dim(point) == 0
    zero = GradedModulePresentation.zero(4)
    assert krull_dim(zero) == -1
    assert hilbert_polynomial(zero).is_zero()


def test_finite_length_examples():
    x, y = _vars(2)
    assert finite_length(_quotient(2, [x, y])) == 1
    assert finite_length(_quotient(2, [x * x, y])) == 2
    with pytest.raises(NotFiniteLengthError):
        finite_length(_quotient(2, [x]))


def test_module_dual_of_free():
    F = GradedFreeModule(4, [1, 1, 1])
    dual = module_dual(GradedModulePresentation(F, []))
    assert dual.target.twists == (-1, -1, -1)
    assert not dual.relations


def test_module_dual_of_free_rank_one_submodule():
    # D_0 of the Boolean 2-arrangement: S(-1) embedded by (x, -y)
    x, y = _vars(2)
    amb = GradedFreeModule(2, [0, 0])
    gen = amb.element([x, -y])
    pres = presentation_of_submodule([to_engine(gen)], amb)
    assert pres.target.twists == (1,)
    dual = module_dual(pres)
    assert dual.target.twists == (-1,)
    assert not dual.relations


def test_ext1_of_ideal_module_is_twisted_point():
    # m = (x, y) in S^1 over 2 variables: Ext^1 = (S/(x,y))(2), length 1
    x, y = _vars(2)
    S1 = GradedFreeModule(2, [0])
    pres = presentation_of_submodule(
        [to_engine(S1.element([x])), to_engine(S1.element([y]))], S1)
    ext = ext1_against_ring(pres)
    assert krull_dim(ext) <= 0
    assert finite_length(ext) == 1
    assert ext.target.twists == (-2,)
    assert hilbert_function(ext, -2) == 1
    assert hilbert_function(ext, 0) == 0


def test_ext1_of_free_module_is_zero():
    F = GradedFreeModule(3, [0, -2])
    ext = ext1_against_ring(GradedModulePresentation(F, []))
    assert ext.is_zero_module()
    assert krull_dim(ext) == -1


def test_presentation_rejects_inhomogeneous_relations():
    x, y = _vars(2)
    S = GradedFreeModule(2, [0])
    with pytest.raises(InputError):
        GradedModulePresentation(S, [to_engine(S.element([x + x * y]))])


def test_twisted_presentation_shifts_hilbert_data():
    x, y = _vars(2)
    pres = _quotient(2, [x, y])
    up = pres.twisted(3)
    assert hilbert_function(up, -3) == 1
    assert hilbert_function(up, 0) == 0


def test_nonminimal_resolution_retains_module():
    x, y = _vars(2)
    pres = _quotient(2, [x, y, x + y])  # redundant generator
    raw = free_resolution(pres, minimal=False)
    assert raw.compose_is_zero()
    minimal = pres.minimal_resolution()
    assert [F.twist_multiset() for F in minimal.terms] == \
        [{0: 1}, {-1: 2}, {-2: 1}]
    # both resolve the same module: Hilbert functions agree
    for d in range(0, 8):
        total = 0
        sign = 1
        for F in raw.terms:
            for a in F.twists:
                n = d - a
                total += sign * (comb(n + 1, 1) if n >= 0 else 0)
            sign = -sign
        assert total == hilbert_function(pres, d)


def test_randomized_minimal_resolutions_are_consistent():
    import random
    rng = random.Random(60601)
    for trial in range(12):
        arity = rng.randint(2, 3)
        xs = _vars(arity)
        rank = rng.randint(1, 2)
        twists = [rng.randint(0, 1) for _ in range(rank)]
        F = GradedFreeModule(arity, twists)
        rels = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 2)
            comps = []
            for a in twists:
                if deg - a < 0 or rng.random() < 0.3:
                    comps.append(MultiPoly.zero(arity))
                    continue
                # random homogeneous polynomial of degree deg - a
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = [0] * arity
                    for _ in range(deg - a):
                        e[rng.randrange(arity)] += 1
                    terms[tuple(e)] = rng.randint(-3, 3)
                comps.append(MultiPoly(arity, terms))
            elem = F.element(comps)
            if not elem.is_zero():
                rels.append(to_engine(elem))
        if not rels:
            continue
        pres = GradedModulePresentation(F, rels)
        res = pres.minimal_resolution()
        assert res.compose_is_zero(), trial
        assert not res.has_unit_entry(), trial
        assert res.length <= arity, trial
        from math import comb
        for d in range(0, 8):
            acc = 0
            sign = 1
            for term in res.terms:
                for a in term.twists:
                    n = d - a
                    acc += sign * (comb(n + arity - 1, arity - 1)
                                   if n >= 0 else 0)
                sign = -sign
            assert acc == hilbert_function(pres, d), trial


def test_resolution_dump_format():
    x, y = _vars(2)
    res = _quotient(2, [x, y]).minimal_resolution()
    dump = res.dump()
    assert dump["minimal"] is True
    assert dump["terms"] == [{0: 1}, {-1: 2}, {-2: 1}]
    assert len(dump["maps"]) == 2
    assert all(isinstance(entry, str)
               for row in dump["maps"][0] for entry in row)



def test_ext1_presentation_runs_buchberger_once(octic_modules, monkeypatch):
    ext1 = ext1_against_ring(octic_modules[3].presentation)
    calls = []
    run = groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)
    monkeypatch.setattr(groebner, "buchberger", counted)
    krull_dim(ext1)
    hilbert_function(ext1, 3)
    hilbert_polynomial(ext1)
    ext1.minimal_resolution()
    assert len(calls) == 1
