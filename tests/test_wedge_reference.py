"""The Saito duality route for Omega^1 and Omega^1_0 against the wedge
reference route of ``tests/wedge_reference.py``."""

import pytest

from logchern import (Arrangement, ext1_against_ring, groebner_basis,
                      hilbert_polynomial, log_modules, normal_form,
                      per_flat_n_values)
from logchern.cli import load_arrangement
from logchern.log_geometry import _centred_localization
from tests import wedge_reference as wedge
from tests.conftest import braid

BUNDLED = ("boolean_l2", "boolean_l3", "boolean_l4", "boolean_l5",
           "braid_triple", "generic_4_planes", "generic_5_hyperplanes",
           "nonfree_octic", "three_lines")

GENERIC6_L4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
               (1, 1, 1, 1), (1, 2, 3, 5)]

CASES = BUNDLED + ("braid_a3", "generic6_l4")


def _arrangement(name):
    if name == "braid_a3":
        return Arrangement(4, braid(4))
    if name == "generic6_l4":
        return Arrangement(4, GENERIC6_L4)
    return load_arrangement(f"example:{name}")


@pytest.fixture(scope="module", params=CASES)
def routes(request):
    """(arrangement, library modules, reference Omega^1, Omega^1_0)."""
    arr = _arrangement(request.param)
    mods = log_modules(arr)
    ref1 = wedge.log_forms(mods[0])
    return arr, mods, ref1, wedge.relative_log_forms(ref1)


def _twists(lm):
    return [F.twist_multiset() for F in lm.minimal_resolution().terms]


def test_duality_route_matches_wedge_reference(routes):
    arr, (_, _, _, om1, om0), ref1, ref0 = routes
    assert _twists(om1) == _twists(ref1)
    assert _twists(om0) == _twists(ref0)
    assert hilbert_polynomial(ext1_against_ring(om0.presentation)) == \
        hilbert_polynomial(ext1_against_ring(ref0.presentation))
    for flat, n in per_flat_n_values(arr).items():
        assert n == wedge.affine_n_value(_centred_localization(arr, flat)), \
            flat


def test_reference_numerators_are_log_forms(routes):
    _, (dd, _, _, _, _), ref1, ref0 = routes
    df = ref1.ambient.element(list(dd.partials))
    assert df.degree() == 0
    assert normal_form(df, groebner_basis(list(ref1.generators))).is_zero()
    for g in ref0.generators:
        assert wedge.euler_contraction(ref1, g).is_zero()
