"""Module orders: ``ModuleOrder.key`` against each order's written definition.

A key sorts terms from the largest down: the smallest key belongs to the
largest term.  Each test states the order as a comparison on terms
``(pos, exps)`` and checks that sorting their packed forms by ``key``
agrees with it.
"""

import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logchern.errors import EngineError
from logchern.groebner import buchberger
from logchern.orders import POS_LIMIT, POTOrder, SchreyerOrder, TOPOrder

ARITY = 3
RANK = 3

exps = st.tuples(*[st.integers(0, 3)] * ARITY)
terms = st.lists(st.tuples(st.integers(0, RANK - 1), exps), min_size=2,
                 max_size=12, unique=True)


def _sign(x):
    return (x > 0) - (x < 0)


def revlex_cmp(a, b):
    """+1 if the last nonzero entry of a - b is negative."""
    for x, y in reversed(list(zip(a, b))):
        if x != y:
            return _sign(y - x)
    return 0


def grevlex_cmp(a, b):
    """+1 if monomial a > b in grevlex: higher degree, then revlex."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    return revlex_cmp(a, b)


def top_cmp(twists):
    """TOP: twisted degree, then revlex within one degree, then the
    smaller position wins."""
    def cmp(s, t):
        (p, a), (q, b) = s, t
        da, db = sum(a) + twists[p], sum(b) + twists[q]
        if da != db:
            return _sign(da - db)
        c = revlex_cmp(a, b)
        if c:
            return c
        return _sign(q - p)
    return cmp


def pot_cmp(s, t):
    """POT: the smaller position wins outright, then grevlex."""
    (p, a), (q, b) = s, t
    if p != q:
        return _sign(q - p)
    return grevlex_cmp(a, b)


def schreyer_cmp(parent_cmp, leads):
    """Schreyer: compare images mon * lt(g_i) in the parent, then the
    smaller index wins."""
    def cmp(s, t):
        (i, a), (j, b) = s, t
        (pi, la), (pj, lb) = leads[i], leads[j]
        c = parent_cmp((pi, tuple(x + y for x, y in zip(a, la))),
                       (pj, tuple(x + y for x, y in zip(b, lb))))
        if c:
            return c
        return _sign(j - i)
    return cmp


def _assert_key_sorts_like(order, cmp, ts):
    by_key = sorted(ts, key=lambda t: order.key(order.pack(t)))
    by_definition = sorted(ts, key=cmp_to_key(cmp), reverse=True)
    assert by_key == by_definition


@settings(max_examples=200, deadline=None, derandomize=True)
@given(twists=st.lists(st.integers(-3, 3), min_size=RANK, max_size=RANK),
       ts=terms)
def test_top_key_matches_definition(twists, ts):
    _assert_key_sorts_like(TOPOrder(ARITY, twists), top_cmp(twists), ts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ts=terms)
def test_pot_key_matches_definition(ts):
    _assert_key_sorts_like(POTOrder(ARITY), pot_cmp, ts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(leads=st.lists(st.tuples(st.integers(0, 1), exps), min_size=RANK,
                      max_size=RANK),
       ts=terms)
def test_schreyer_key_matches_definition(leads, ts):
    twists = (0, 1)
    parent = TOPOrder(ARITY, twists)
    order = SchreyerOrder(parent, [parent.pack(t) for t in leads])
    _assert_key_sorts_like(order, schreyer_cmp(top_cmp(twists), leads), ts)


def test_untwisted_top_is_plain_degree():
    order = TOPOrder(ARITY)
    big, small = order.pack((1, (1, 1, 0))), order.pack((0, (0, 0, 1)))
    assert min([small, big], key=order.key) == big


def test_key_is_memoized_once_per_order():
    order = TOPOrder(ARITY, (0, 1, 2))
    t = order.pack((2, (1, 0, 3)))
    assert order.key(t) is order.key(t)
    assert list(order._cache) == [t]


def _schreyer_over_twisted_top():
    parent = TOPOrder(ARITY, (0, 1))
    leads = [(0, (1, 0, 2)), (1, (0, 0, 0)), (1, (2, 1, 0))]
    return SchreyerOrder(parent, [parent.pack(t) for t in leads])


@pytest.mark.parametrize("make_order", [
    lambda: POTOrder(ARITY),
    lambda: TOPOrder(ARITY, (-2, 0, 3)),
    _schreyer_over_twisted_top,
], ids=["pot", "top", "schreyer"])
def test_key_is_an_int_that_the_memo_maps_back_to_its_term(make_order):
    order = make_order()
    ts = [order.pack((p, (a, b, c))) for p in range(RANK)
          for a in range(3) for b in range(2) for c in range(3)]
    keys = [order.key(t) for t in ts]
    assert all(type(k) is int for k in keys)
    assert len(set(keys)) == len(ts)
    assert [order._term[k] for k in keys] == ts


def test_top_position_past_its_field_raises():
    order = TOPOrder(ARITY)
    assert order.key(order.pack((POS_LIMIT - 1, (1, 0, 0))))
    with pytest.raises(EngineError, match=str(POS_LIMIT - 1)):
        order.key(order.pack((POS_LIMIT, (1, 0, 0))))


def test_schreyer_position_past_its_field_raises():
    parent = TOPOrder(ARITY)
    order = SchreyerOrder(parent, [parent.pack((0, (1, 0, 0)))]
                          * (POS_LIMIT + 1))
    assert order.key(order.pack((POS_LIMIT - 1, (0, 1, 0))))
    with pytest.raises(EngineError, match=str(POS_LIMIT - 1)):
        order.key(order.pack((POS_LIMIT, (0, 1, 0))))


@pytest.mark.parametrize("make_order", [
    lambda: TOPOrder(ARITY, (0, 2, 1)),
    lambda: TOPOrder(ARITY),
    lambda: POTOrder(ARITY),
])
def test_interreduce_returns_ascending_leading_terms(make_order):
    order = make_order()
    cmp = (top_cmp(order.twists or (0,) * RANK)
           if isinstance(order, TOPOrder) else pot_cmp)
    rng = random.Random(5)
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = {}
            for _ in range(rng.randint(1, 4)):
                t = (rng.randrange(RANK),
                     tuple(rng.randint(0, 2) for _ in range(ARITY)))
                d[t] = rng.choice([-3, -2, -1, 1, 2, 3])
            gens.append(d)
        gb = buchberger(gens, order)
        leads = [g.lt for g in gb]
        assert leads == sorted(leads, key=cmp_to_key(cmp))
        assert len(set(leads)) == len(leads)
