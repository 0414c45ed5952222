"""D_0 and the points' modules D cut out by linear conditions, one per
hyperplane, against the route through the partials of f kept in
``tests/module_reference.py``; each point's N, which the library reads off
the top Ext of D(A'_q) with no dual, against the two oracles kept there,
which dualize D(A'_q): the partials route and the ungraded affine chart
route; the exact kernel check; and inputs that the partials route could
not finish."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logchern import (Arrangement, EngineError, InputError, affine_n_value,
                      defining_data, derivation_module_d0, log_geometry,
                      module_dual, per_flat_n_values)
from logchern.cli import JobConfig, load_arrangement, run
from logchern.log_geometry import _centred_localization
from tests import module_reference as ref
from tests.conftest import OCTIC_NORMALS, braid

FRONTIER = Path(__file__).parent / "data" / "frontier"


@st.composite
def arrangements(draw):
    """A central arrangement of up to seven hyperplanes in C^3, or up to
    five in C^4, normals with entries in [-3, 3].  The partials route
    presents D_0 by an elimination that takes seconds on six generic
    planes in C^4 and minutes on seven; the fixed inputs below reach
    further."""
    l = draw(st.integers(3, 4))
    n = draw(st.integers(l, 7 if l == 3 else 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=l,
                                  max_size=l),
                         min_size=n, max_size=n))
    try:
        return Arrangement(l, rows)
    except InputError:  # a zero or a repeated normal
        assume(False)


def _basis_dicts(pres):
    return [g.d for g in pres.relation_gb()[0]]


def _assert_routes_agree(arr):
    dd = defining_data(arr)
    d0 = derivation_module_d0(dd)
    basis, pres = ref.derivation_module_d0(dd)
    # the same reduced basis, dict for dict and in the same order
    assert list(d0.vectors) == basis
    # the S-pair syzygies present the module the elimination presents
    assert _basis_dicts(d0.presentation) == _basis_dicts(pres)
    assert module_dual(d0.presentation).relations == \
        module_dual(pres).relations
    # each point's N on A'_q, graded, against the partials route on A'_q
    # and the ungraded route on the affine chart
    for flat, n in per_flat_n_values(arr).items():
        local = _centred_localization(arr, flat)
        assert n == ref.affine_n_value(local), flat
        assert n == ref.chart_n_value(arr, flat), flat


@settings(max_examples=25, deadline=None, derandomize=True)
@given(arr=arrangements())
def test_linear_route_matches_the_partials_route(arr):
    _assert_routes_agree(arr)


@pytest.mark.parametrize("normals", [
    OCTIC_NORMALS,
    # generic6_l4 of the benchmark
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
     (1, 2, 3, 5)],
    braid(5),
], ids=["octic", "generic6_l4", "braid_a4"])
def test_linear_route_matches_the_partials_route_on_fixed_inputs(normals):
    _assert_routes_agree(Arrangement(len(normals[0]), normals))


@pytest.mark.parametrize("spec,nonzero,exts", [
    # the octic's two points with N > 0, each D of projective dimension 1
    ("example:nonfree_octic", {"0-1-2-6-7": 2, "2-4-5-7": 1},
     [(1, 1), (1, 1)]),
    # [0:0:0:0:1], five generic planes in C^4: D of projective dimension
    # l - 3 = 2, a finite Ext^1 and the top Ext^2 of length 1
    (str(FRONTIER / "generic5_x_c_e5.json"), {"0-1-2-3-5": 1},
     [(2, 1), (2, 2)])], ids=["octic", "generic5_x_c_e5"])
def test_per_point_n_from_the_top_ext_matches_the_dual_routes(
        spec, nonzero, exts, monkeypatch):
    # the library reads each N off D(A'_q)'s own resolution; both oracles
    # dualize D(A'_q)
    built = []
    real = log_geometry.ext_from_resolution

    def recorded(res, i):
        built.append((res.length, i))
        return real(res, i)
    monkeypatch.setattr(log_geometry, "ext_from_resolution", recorded)
    arr = load_arrangement(spec)
    values = per_flat_n_values(arr)
    for flat, n in values.items():
        local = _centred_localization(arr, flat)
        assert n == ref.affine_n_value(local) == \
            ref.chart_n_value(arr, flat), flat
    assert {"-".join(map(str, sorted(f.indices))): n
            for f, n in values.items() if n} == nonzero
    assert built == exts


def _corrupting(monkeypatch):
    """Make the kernel of the linear map hand back one wrong theta: one
    coefficient off by one breaks alpha_H | theta(alpha_H) for some H."""
    real = log_geometry.kernel_raw

    def corrupted(*args, **kwargs):
        kernel = real(*args, **kwargs)
        bad = dict(kernel[0])
        t = next(iter(bad))
        bad[t] += 1
        return [bad] + kernel[1:]
    monkeypatch.setattr(log_geometry, "kernel_raw", corrupted)


def test_a_wrong_d0_kernel_vector_fails_the_exact_check(monkeypatch,
                                                        octic_arrangement):
    dd = defining_data(octic_arrangement)
    _corrupting(monkeypatch)
    with pytest.raises(EngineError, match="does not annihilate f: alpha_"):
        derivation_module_d0(dd)


def test_a_wrong_chart_kernel_vector_fails_the_exact_check(monkeypatch):
    # a point's A'_q: four lines through the origin of its chart
    local = Arrangement(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    _corrupting(monkeypatch)
    with pytest.raises(EngineError, match="does not annihilate f: alpha_"):
        affine_n_value(local)


def _job(command, name):
    report, code = run(JobConfig(command, str(FRONTIER / f"{name}.json"),
                                 fmt="json"))
    assert code == 0
    return report["result"]


def test_generic7_l4_verifies_with_n_zero():
    result = _job("verify", "generic7_l4")
    assert result["applicable"]
    assert result["N"] == 0
    assert not any(result["residual"])


def test_octic_plus1_has_n_three_on_both_routes():
    result = _job("verify", "octic_plus1")
    assert result["N"] == 3
    assert not any(result["residual"])
    result = _job("nval", "octic_plus1")
    assert result["N"] == 3
    assert result["per_flat_sum"] == 3


def test_octic_plus2_verifies_with_n_eight():
    result = _job("verify", "octic_plus2")
    assert result["N"] == 8
    assert not any(result["residual"])
