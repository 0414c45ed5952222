"""Eliminations that track only the coordinates their callers keep: the
projected kernels of `groebner.kernel_raw`, D_0 and the points' D, and
Ext^1, against the routes of ``tests/module_reference.py`` that track every
column; and the exact check that divides theta(alpha_H) by alpha_H."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logchern import (Arrangement, EngineError, GradedFreeModule,
                      InputError, build_lattice, ext1_against_ring,
                      log_modules, module_dual)
from logchern.cli import load_arrangement
from logchern.groebner import buchberger, kernel_raw
from logchern.log_geometry import (_centred_localization,
                                   _check_log_derivations, _derivation_basis,
                                   _divide_by_form)
from logchern.modules import hilbert_numerators, presentation_of_basis
from logchern.orders import FIELD_BITS, POTOrder
from tests import module_reference as ref
from tests.conftest import OCTIC_NORMALS, braid
from tests.test_module_reference import _exponents

FRONTIER = Path(__file__).parent / "data" / "frontier"
GENERIC6_L4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
               (1, 1, 1, 1), (1, 2, 3, 5)]


@st.composite
def columns(draw):
    """Homogeneous columns over 1-2 target positions in 2-3 variables, as
    the maps of a graded resolution: 1-4 of them, each up to three terms
    of one degree 1 or 2 with coefficients in [-3, 3], and the number of
    tracked columns."""
    arity = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        terms = [(pos, e) for pos in range(rank)
                 for e in _exponents(arity, draw(st.integers(1, 2)))]
        support = draw(st.lists(st.sampled_from(terms), max_size=3,
                                unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(support), max_size=len(support)))
        cols.append(dict(zip(support, coeffs)))
    return cols, rank, arity, draw(st.integers(0, len(cols)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=columns())
def test_tracked_kernel_is_the_reduced_basis_of_the_projection(case):
    cols, rank, arity, tracked = case
    projected = [{t: c for t, c in k.items() if t[0] < tracked}
                 for k in kernel_raw(cols, rank, arity)]
    expected = [g.d for g in buchberger([p for p in projected if p],
                                        POTOrder(arity))]
    assert kernel_raw(cols, rank, arity, tracked=tracked) == expected


@st.composite
def arrangements(draw):
    """A central arrangement of up to eight hyperplanes in C^3, or up to
    seven in C^4, normals with entries in [-3, 3]."""
    l = draw(st.integers(3, 4))
    n = draw(st.integers(l, 8 if l == 3 else 7))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=l,
                                  max_size=l),
                         min_size=n, max_size=n))
    try:
        return Arrangement(l, rows)
    except InputError:  # a zero or a repeated normal
        assume(False)


def _items(basis):
    return [list(d.items()) for d in basis]


def _assert_same_ext1(pres):
    assert hilbert_numerators(ext1_against_ring(pres)) == \
        hilbert_numerators(ref.ext1_all_columns(pres))


def _assert_tracked_routes_agree(arr, ext1_central=True):
    # the same reduced basis, dict for dict, term order and basis order
    basis = _derivation_basis(arr, d0=True)
    assert _items(basis) == \
        _items(ref.derivation_basis_all_columns(arr, d0=True))
    if ext1_central:
        _, d0, _, _, om0 = log_modules(arr)
        _assert_same_ext1(d0.presentation)
        _assert_same_ext1(om0.presentation)
    for flat in build_lattice(arr).flats_of_codim(arr.dim - 1):
        local = _centred_localization(arr, flat)
        basis = _derivation_basis(local, d0=False)
        assert _items(basis) == \
            _items(ref.derivation_basis_all_columns(local, d0=False)), flat
        d = presentation_of_basis(basis, GradedFreeModule(local.dim,
                                                          [0] * local.dim))
        _assert_same_ext1(module_dual(d))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(arr=arrangements())
def test_tracked_routes_match_the_all_column_routes(arr):
    # on six planes in C^4 the all-column Ext^1 of D_0 takes up to 12 s,
    # and seven can spend minutes in the kernel of phi_2^T and the dual of
    # D_0 on either route: their central Ext^1 is left to the fixed inputs
    _assert_tracked_routes_agree(arr, ext1_central=arr.dim == 3 or arr.n < 6)


@pytest.mark.parametrize("name", ["generic7_l4", "octic_plus1"])
def test_tracked_bases_match_on_frontier_inputs(name):
    # the all-column Ext^1 of D_0 takes about 3 s on generic7_l4 and 26 s
    # on octic_plus1
    arr = load_arrangement(str(FRONTIER / f"{name}.json"))
    _assert_tracked_routes_agree(arr, ext1_central=False)


@pytest.mark.parametrize("normals", [OCTIC_NORMALS, GENERIC6_L4, braid(5)],
                         ids=["octic", "generic6_l4", "braid_a4"])
def test_tracked_routes_match_on_fixed_inputs(normals):
    _assert_tracked_routes_agree(Arrangement(len(normals[0]), normals))


def _packed(exps):
    return sum(e << FIELD_BITS * i for i, e in enumerate(exps))


def test_synthetic_division_by_a_linear_form():
    # (2x + 3y)(x^2 - xy + y^2) = 2x^3 + x^2y - xy^2 + 3y^3
    p = {_packed(e): c for e, c in [((3, 0), 2), ((2, 1), 1), ((1, 2), -1),
                                    ((0, 3), 3)]}
    assert _divide_by_form(p, (2, 3)) == {_packed((2, 0)): 1,
                                          _packed((1, 1)): -1,
                                          _packed((0, 2)): 1}
    # the same product plus y^3: a nonzero remainder
    p[_packed((0, 3))] = 4
    assert _divide_by_form(p, (2, 3)) is None
    # x is not an integer multiple of 2x + 3y
    assert _divide_by_form({_packed((1, 0)): 1}, (2, 3)) is None
    # y is 1/3 of (0x + 3y): a division, but not in integers
    assert _divide_by_form({_packed((0, 1)): 1}, (0, 3)) is None
    assert _divide_by_form({}, (0, 1)) == {}


def _chi(l):
    return {(i, tuple(int(k == i) for k in range(l))): 1 for i in range(l)}


def test_euler_derivation_fails_only_the_sum_row(octic_arrangement):
    # chi(alpha_H) = alpha_H for every H, so each h_H = 1 and sum_H h_H = 8
    with pytest.raises(EngineError,
                       match="derivation 0 does not annihilate f: the "
                             "quotients .* do not sum to 0"):
        _check_log_derivations(octic_arrangement, [_chi(4)], d0=True)
    # a point's D has no sum row: chi lies in it
    _check_log_derivations(octic_arrangement, [_chi(4)], d0=False)
    # and d/dy does not, as y does not divide d/dy(y) = 1
    lines = Arrangement(2, [(1, 0), (0, 1)])
    with pytest.raises(EngineError,
                       match="derivation 1 does not annihilate f: alpha_1 "
                             "does not divide theta"):
        _check_log_derivations(lines, [_chi(2), {(1, (0, 0)): 1}],
                               d0=False)

