"""Hilbert data from the leading-term numerators against the staircase,
subset and resolution oracles of ``tests/module_reference.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logchern import (GradedFreeModule, GradedModulePresentation,
                      NotFiniteLengthError, build_lattice, ext1_against_ring,
                      finite_length, hilbert_function, hilbert_polynomial,
                      krull_dim, log_modules, module_dual)
from logchern.cli import load_arrangement
from logchern.log_geometry import _centred_localization, _derivation_basis
from logchern.modules import presentation_of_basis, total_dimension
from tests import module_reference as ref
from tests.test_module_reference import _exponents

DEGREES = range(-3, 8)
CAPS = (0, 1, 2, 10)  # the length counts, cut at small degrees too


def _outcome(query, pres, cap):
    try:
        return query(pres, cap)
    except NotFiniteLengthError as exc:
        return str(exc)


def _assert_matches_oracles(pres):
    assert krull_dim(pres) == ref.krull_dim(pres)
    for cap in CAPS:
        for query, oracle in ((total_dimension, ref.total_dimension),
                              (finite_length, ref.finite_length)):
            assert _outcome(query, pres, cap) == _outcome(oracle, pres, cap)
    assert [hilbert_function(pres, d) for d in DEGREES] == \
        [ref.hilbert_function(pres, d) for d in DEGREES]
    assert hilbert_polynomial(pres) == ref.hilbert_polynomial(pres)


@st.composite
def quotients(draw):
    """F / (relations) over 2-4 variables: rank 1-3, twists -1 to 2, up to
    five monomial or binomial relations of one twisted degree with
    coefficients in [-3, 3], and in half the draws powers of every
    variable."""
    arity = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 3))
    twists = draw(st.lists(st.integers(-1, 2), min_size=rank,
                           max_size=rank))
    rels = []
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(min(twists), min(twists) + 3))
        terms = [(pos, e) for pos, a in enumerate(twists) if degree >= a
                 for e in _exponents(arity, degree - a)]
        support = draw(st.lists(st.sampled_from(terms), min_size=1,
                                max_size=2, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(support), max_size=len(support)))
        rels.append(dict(zip(support, coeffs)))
    if draw(st.booleans()):
        # a power of every variable at every position: finite length
        for pos in range(rank):
            for i in range(arity):
                e = draw(st.integers(1, 3))
                rels.append({(pos, tuple(e * (k == i)
                                         for k in range(arity))): 1})
    return GradedModulePresentation(GradedFreeModule(arity, twists), rels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pres=quotients())
def test_numerators_match_the_staircase_oracles(pres):
    _assert_matches_oracles(pres)


def _chart_ext1s(arr):
    """The Ext^1 of D^* for every point's A'_q, whose lengths sum to N."""
    for flat in build_lattice(arr).flats_of_codim(arr.dim - 1):
        local = _centred_localization(arr, flat)
        d = presentation_of_basis(_derivation_basis(local, d0=False),
                                  GradedFreeModule(local.dim,
                                                   [0] * local.dim))
        yield ext1_against_ring(module_dual(d))


@pytest.mark.parametrize("name", [
    "boolean_l3", "braid_triple", "generic_4_planes",
    "generic_5_hyperplanes", "nonfree_octic", "three_lines"])
def test_log_modules_match_the_staircase_oracles(name):
    # D_0, D, Omega^1, Omega^1_0, their duals, the Ext^1 of each, and the
    # points' Ext^1
    arr = load_arrangement(f"example:{name}")
    _, *lms = log_modules(arr)
    for lm in lms:
        for pres in (lm.presentation, module_dual(lm.presentation)):
            _assert_matches_oracles(pres)
            _assert_matches_oracles(ext1_against_ring(pres))
    for ext1 in _chart_ext1s(arr):
        _assert_matches_oracles(ext1)


def test_octic_plus1_n_route_matches_the_staircase_oracles():
    # Ext^1 of Omega^1_0 and of 40 points' A'_q, which N is read from, and
    # Ext^1 of D_0 (minimal resolution ranks 9, 8, 2)
    arr = load_arrangement("tests/data/frontier/octic_plus1.json")
    _, d0, _, _, om0 = log_modules(arr)
    _assert_matches_oracles(ext1_against_ring(om0.presentation))
    _assert_matches_oracles(ext1_against_ring(d0.presentation))
    for ext1 in _chart_ext1s(arr):
        _assert_matches_oracles(ext1)
