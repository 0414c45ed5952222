"""Groebner engine tests: hand oracles, uniqueness, sympy cross-checks."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logchern import (EngineStats, GradedFreeModule, MultiPoly,
                      groebner_basis, kernel_generators, normal_form,
                      presentation_of_submodule, stats_scope, syzygies)
from logchern.errors import EngineError
from logchern.groebner import (BasisElem, _lcm, buchberger, content_normalize,
                               exps_divide, reduce_full)
from logchern.modules import to_engine
from logchern.orders import EXP_LIMIT, POTOrder, SchreyerOrder, TOPOrder


def _ring(arity, twist=0):
    return GradedFreeModule(arity, [twist])


def _ideal_elems(module, polys):
    return [module.element([p]) for p in polys]


def _poly_set(gb):
    return {g.components[0].render() for g in gb.elements}


def test_gb_of_two_variables():
    S = _ring(2)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    gb = groebner_basis(_ideal_elems(S, [y, x]))
    assert _poly_set(gb) == {"x", "y"}


def test_gb_containment_collapses():
    S = _ring(2)
    x = MultiPoly.variable(2, 0)
    gb = groebner_basis(_ideal_elems(S, [x * x, x]))
    assert _poly_set(gb) == {"x"}


def test_gb_of_sum_and_difference():
    S = _ring(2)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    gb = groebner_basis(_ideal_elems(S, [x + y, x - y]))
    assert _poly_set(gb) == {"x", "y"}


def test_normal_form_examples():
    S = _ring(2)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    gb_x = groebner_basis(_ideal_elems(S, [x]))
    assert normal_form(S.element([x * x]), gb_x).is_zero()
    assert normal_form(S.element([y]), gb_x) == S.element([y])
    # substitution oracle: x -> -y sends x^2+xy+y^2 to y^2
    gb = groebner_basis(_ideal_elems(S, [x + y]))
    nf = normal_form(S.element([x * x + x * y + y * y]), gb)
    assert nf == S.element([y * y])


def test_normal_form_kills_generators():
    rng = random.Random(11)
    S = _ring(3)
    xs = [MultiPoly.variable(3, i) for i in range(3)]
    gens = _ideal_elems(S, [xs[0] * xs[1] - xs[2] ** 2,
                            xs[0] ** 2 + xs[1] ** 2,
                            xs[1] * xs[2]])
    gb = groebner_basis(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_syzygies_koszul():
    S = _ring(1, twist=0)
    S2 = GradedFreeModule(1, [0])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    S1 = GradedFreeModule(2, [0])
    gb = groebner_basis(_ideal_elems(S1, [x, y]))
    syz = syzygies(gb)
    assert len(syz) == 1
    # the syzygy pairs to zero against the basis elements
    basis_polys = [g.components[0] for g in gb.elements]
    assert syz[0].dot(basis_polys).is_zero()
    # and spans the Koszul relation (y, -x) up to scale
    comps = syz[0].components
    assert {p.render() for p in comps} in ({"x", "-y"}, {"y", "-x"},
                                           {"-x", "y"}, {"-y", "x"})


def test_syzygies_of_free_basis_empty():
    F = GradedFreeModule(2, [0, 1])
    x = MultiPoly.variable(2, 0)
    e0 = F.element([x, MultiPoly.zero(2)])
    e1 = F.element([MultiPoly.zero(2), MultiPoly.one(2)])
    gb = groebner_basis([e0, e1])
    assert syzygies(gb) == []


def test_syzygies_of_jacobian_of_xy():
    # partials of f = xy are (y, x); their syzygy module is D_0(Boolean 2)
    S1 = GradedFreeModule(2, [0])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    gb = groebner_basis(_ideal_elems(S1, [y, x]))
    syz = syzygies(gb)
    assert len(syz) == 1
    partials_in_gb_order = [g.components[0] for g in gb.elements]
    assert syz[0].dot(partials_in_gb_order).is_zero()


def test_reduced_gb_unique_under_shuffling():
    rng = random.Random(2024)
    arity = 3
    S = _ring(arity)
    xs = [MultiPoly.variable(arity, i) for i in range(arity)]
    gens = [xs[0] ** 2 - xs[1] * xs[2], xs[1] ** 3 + xs[0] * xs[2] ** 2,
            xs[0] * xs[1] - xs[2] * xs[2], xs[2] ** 4]
    elems = _ideal_elems(S, gens)
    reference = [g.render() for g in groebner_basis(elems).elements]
    for _ in range(6):
        shuffled = elems[:]
        rng.shuffle(shuffled)
        got = [g.render() for g in groebner_basis(shuffled).elements]
        assert got == reference


def test_gb_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy import groebner, symbols
    rng = random.Random(31337)
    xs = symbols("x y z")
    for trial in range(8):
        polys = []
        for _ in range(rng.randint(2, 3)):
            p = 0
            for _ in range(rng.randint(1, 3)):
                e = [rng.randint(0, 2) for _ in range(3)]
                c = rng.randint(-3, 3)
                p += c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
            if p != 0:
                polys.append(p)
        if not polys:
            continue
        ref = groebner(polys, *xs, order="grevlex")
        ours = _sympy_to_ours(polys, xs)
        if ours is None:
            continue
        got = {g.components[0].render() for g in ours.elements}
        want = {_render_sympy(p, xs) for p in ref.exprs}
        assert got == want, (polys, got, want)


def _sympy_to_ours(polys, xs):
    from sympy import Poly
    S = _ring(3)
    elems = []
    for p in polys:
        poly = Poly(p, *xs)
        terms = {tuple(m): Fraction(str(c)) for m, c in poly.terms()}
        mp = MultiPoly(3, terms)
        if not mp.is_zero():
            elems.append(S.element([mp]))
    return groebner_basis(elems) if elems else None


def _render_sympy(expr, xs):
    # sympy returns integer-primitive elements; ours are monic
    from sympy import Poly
    poly = Poly(expr, *xs)
    terms = {tuple(m): Fraction(str(c)) for m, c in poly.terms()}
    mp = MultiPoly(3, terms)
    _, lead = mp.leading()
    return (mp * (Fraction(1) / Fraction(lead))).render()


def test_kernel_generators_are_exact_kernels():
    # includes fractional columns: the per-column scaling must be corrected
    S1 = GradedFreeModule(3, [0])
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    cols = [S1.element([-z]),
            S1.element([MultiPoly.constant(3, Fraction(-1, 2))]),
            S1.element([MultiPoly.zero(3)])]
    values = [c.components[0] for c in cols]
    kernel = kernel_generators(cols, source_twists=[1, 0, 0])
    assert kernel, "kernel should be nonzero"
    for vec in kernel:
        assert vec.dot(values).is_zero()


def test_syzygy_generators_agree_with_schreyer_route():
    # same submodule from both syzygy routes
    S1 = GradedFreeModule(2, [0])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    gens = _ideal_elems(S1, [x ** 2, x * y, y ** 3])
    gb = groebner_basis(gens)
    via_schreyer = syzygies(gb)
    basis_polys = [g.components[0] for g in gb.elements]
    gb_elems = [S1.element([p]) for p in basis_polys]
    via_elimination = kernel_generators(gb_elems)
    assert via_schreyer and via_elimination
    gb_a = groebner_basis(via_schreyer)
    gb_b = groebner_basis(via_elimination)
    assert [g.render() for g in gb_a.elements] == \
        [g.render() for g in gb_b.elements]


def test_empty_input_gives_empty_basis():
    S = GradedFreeModule(2, [0])
    gb = groebner_basis([], module=S)
    assert len(gb) == 0
    x = MultiPoly.variable(2, 0)
    assert normal_form(S.element([x]), gb) == S.element([x])


def _engine_job():
    """A kernel (buchberger), then a resolution (buchberger + Schreyer)."""
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    S1 = _ring(3)
    pres = presentation_of_submodule(
        [to_engine(g) for g in _ideal_elems(S1, [x * y, y * z, x * z])], S1)
    pres.minimal_resolution()


def test_nested_scopes_each_count_every_engine_call_once():
    alone = EngineStats()
    with stats_scope(alone):
        _engine_job()
    assert alone.s_pairs and alone.basis_elements
    outer, inner = EngineStats(), EngineStats()
    with stats_scope(outer):
        with stats_scope(inner):
            _engine_job()
        _engine_job()
    twice = EngineStats()
    twice.merge(alone)
    twice.merge(alone)
    assert inner.as_dict() == alone.as_dict()
    assert outer.as_dict() == twice.as_dict()


# ----- packed heap reducer against the tuple-term linear-scan reducer -----

def shift_term(term, u):
    pos, exps = term
    return (pos, tuple(a + b for a, b in zip(exps, u)))


def _linear_scan_reduce(d, by_pos, order, *, track=None, exact=False):
    """Reference reducer on ``(pos, exps)`` terms: the engine's reduction
    loop before packed terms and the heap, which rescans the whole
    remainder for its leading term on every step.  It reads the basis
    through the decoded ``BasisElem`` views and compares terms by the
    order's key of their packed form."""
    result = {}
    scale = 1

    def key(t):
        return order.key(order.pack(t))

    while d:
        t = min(d, key=key)
        pos, exps = t
        red = None
        idx = -1
        for i, g in by_pos.get(pos, ()):
            if exps_divide(g.lexps, exps):
                red = g
                idx = i
                break
        if red is None:
            result[t] = d.pop(t)
            continue
        c = d.pop(t)
        q = gcd(c, red.lc)
        mult_all = red.lc // q
        mult_g = c // q
        if mult_all != 1:
            for k in d:
                d[k] *= mult_all
            for k in result:
                result[k] *= mult_all
            if track is not None:
                for k in track:
                    track[k] *= mult_all
            scale *= mult_all
        u = tuple(a - b for a, b in zip(exps, red.lexps))
        for gt, gc in red.d.items():
            if gt == red.lt:
                continue
            k = shift_term(gt, u)
            s = d.get(k, 0) - mult_g * gc
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        if track is not None:
            k = (idx, u)
            s = track.get(k, 0) - mult_g
            if s:
                track[k] = s
            else:
                track.pop(k, None)
    if not exact:
        if track is None:
            content_normalize(result)
        else:
            joint = 0
            for c in result.values():
                joint = gcd(joint, c)
            for c in track.values():
                joint = gcd(joint, c)
            if joint > 1:
                for k in result:
                    result[k] //= joint
                for k in track:
                    track[k] //= joint
    return result, scale


_ARITY = 3
_RANK = 3
_exps = st.tuples(*[st.integers(0, 2)] * _ARITY)
_coeff = st.integers(-4, 4).filter(bool)
_vector = st.dictionaries(st.tuples(st.integers(0, _RANK - 1), _exps),
                          _coeff, min_size=1, max_size=5)


@st.composite
def _orders(draw):
    layout = draw(st.sampled_from(["TOP", "POT", "Schreyer"]))
    if layout == "POT":
        return POTOrder(_ARITY)
    twists = draw(st.lists(st.integers(-2, 2), min_size=_RANK,
                           max_size=_RANK))
    top = TOPOrder(_ARITY, twists)
    if layout == "TOP":
        return top
    # Schreyer order on S^_RANK over leading terms in a rank-2 parent
    leads = draw(st.lists(st.tuples(st.integers(0, 1), _exps),
                          min_size=_RANK, max_size=_RANK))
    parent = TOPOrder(_ARITY, twists[:2])
    return SchreyerOrder(parent, [parent.pack(t) for t in leads])


def _packed(d, order):
    return {order.pack(t): c for t, c in d.items()}


def _decoded(d, order):
    return {order.unpack(t): c for t, c in d.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(order=_orders(), basis=st.lists(_vector, min_size=1, max_size=4),
       d=_vector, tracked=st.booleans(), exact=st.booleans())
def test_heap_reduce_matches_linear_scan(order, basis, d, tracked, exact):
    by_pos = {}
    for i, g in enumerate(basis):
        elem = BasisElem(_packed(g, order), order)
        by_pos.setdefault(elem.lpos, []).append((i, elem))
    seed = {(len(basis), (0,) * _ARITY): 1} if tracked else None
    want_track = dict(seed) if tracked else None
    got_track = _packed(seed, order) if tracked else None
    want = _linear_scan_reduce(dict(d), by_pos, order, track=want_track,
                               exact=exact)
    reduced, scale = reduce_full(_packed(d, order), by_pos, order,
                                 track=got_track, exact=exact)
    assert (_decoded(reduced, order), scale) == want
    if tracked:
        assert _decoded(got_track, order) == want_track


# ----- the packed term layout -----

_field = st.one_of(st.integers(0, 3), st.integers(0, EXP_LIMIT - 1),
                   st.sampled_from([EXP_LIMIT // 2, EXP_LIMIT - 1]))


@st.composite
def _layout_cases(draw):
    arity = draw(st.integers(1, 7))
    a, b, u = (tuple(draw(st.lists(_field, min_size=arity, max_size=arity)))
               for _ in range(3))
    return arity, draw(st.integers(0, 5)), a, b, u


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_layout_cases())
def test_packed_terms_match_exponent_tuples(case):
    arity, pos, a, b, u = case
    order = POTOrder(arity)
    guard = order.guard
    t = order.pack((pos, a))
    assert order.unpack(t) == (pos, a)
    assert order.degree(t) == sum(a)
    # guard-bit divisibility, also where b is made a multiple of a
    for c in (b, tuple(map(max, a, b))):
        s = order.pack((pos, c))
        assert (((s | guard) - t) & guard == guard) == exps_divide(a, c)
        assert order.divides(t, s) == exps_divide(a, c)
        assert not order.divides(t, s + (1 << order.shift))
        assert _lcm(t, s, guard) == order.pack((pos, tuple(map(max, a, c))))
    # a shift is one add; a field that outgrows the limit sets its guard
    shifted = tuple(x + y for x, y in zip(a, u))
    tu = t + order.pack((0, u))
    if max(shifted) < EXP_LIMIT:
        assert tu == order.pack(shift_term((pos, a), u))
    else:
        assert tu & guard
        assert order.exponents(tu) == shifted


def test_exponent_beyond_the_field_limit_raises():
    order = TOPOrder(1)
    with pytest.raises(EngineError, match=str(EXP_LIMIT - 1)):
        buchberger([{(0, (2 ** 15,)): 1}], order)
    assert buchberger([{(0, (2 ** 15 - 1,)): 1}], order)[0].lexps == \
        (2 ** 15 - 1,)


@pytest.mark.parametrize("gens", [
    # S(g1, g2) = y^5000 * g1 - x^29999 * g2 = y^35000
    [{(0, (30000, 0)): 1, (0, (0, 30000)): 1}, {(0, (1, 5000)): 1}],
    # reducing x^20000 y^13000 by x^20000 + y^19999 leaves y^32999
    [{(0, (20000, 0)): 1, (0, (0, 19999)): 1}, {(0, (20000, 13000)): 1}],
], ids=["spair", "reduction"])
def test_shift_past_the_field_limit_raises_instead_of_wrapping(gens):
    with pytest.raises(EngineError, match=str(EXP_LIMIT - 1)):
        buchberger(gens, TOPOrder(2))


def test_schreyer_image_past_the_field_limit_raises():
    parent = TOPOrder(1)
    order = SchreyerOrder(parent, [parent.pack((0, (30000,)))])
    with pytest.raises(EngineError, match=str(EXP_LIMIT - 1)):
        order.key(order.pack((0, (5000,))))
