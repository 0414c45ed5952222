"""Logarithmic modules: D_0, Omega^1, Omega^1_0, freeness, non-free locus."""

from fractions import Fraction

import pytest

from logchern import (Arrangement, HypothesisError, InputError,
                      MultiPoly, UniPolyQ, affine_n_value, build_lattice,
                      defining_data, derivation_module_d0, freeness_test,
                      hilbert_function, hilbert_polynomial, log_derivations,
                      log_forms, log_modules, module_dual, nonfree_locus,
                      per_flat_n_values, relative_log_forms)
from logchern import log_geometry, modules
from logchern.cli import load_arrangement
from logchern.log_geometry import _centred_localization
from logchern.modules import hilbert_numerators, krull_dim
from tests import module_reference as ref
from tests import wedge_reference as wedge
from tests.conftest import (BRAID_TRIPLE, CORPUS, GENERIC4, GENERIC5,
                            OCTIC_NORMALS, boolean)


def _pipeline(arr):
    dd, _, _, om1, om0 = log_modules(arr)
    return dd, om1, om0


# ----- defining data -----

def test_defining_data_boolean2():
    dd = defining_data(boolean(2))
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert dd.f == x * y
    assert list(dd.partials) == [y, x]


def test_defining_data_single_hyperplane():
    arr = Arrangement(3, [(1, 0, 0)])
    dd = defining_data(arr)
    assert dd.f == MultiPoly.variable(3, 0)
    assert dd.partials[0] == MultiPoly.one(3)
    assert dd.partials[1].is_zero() and dd.partials[2].is_zero()


def test_euler_identity(octic_arrangement):
    for arr in (boolean(3), Arrangement(3, GENERIC4), octic_arrangement):
        dd = defining_data(arr)
        acc = MultiPoly.zero(arr.dim)
        for z, fi in zip(dd.euler_coefficients(), dd.partials):
            acc = acc + z * fi
        assert acc == dd.f * dd.degree


# ----- D_0 and D -----

def test_d0_boolean2_koszul():
    dd = defining_data(boolean(2))
    d0 = derivation_module_d0(dd)
    assert len(d0.generators) == 1
    g = d0.generators[0]
    assert g.degree() == 1
    assert g.dot(dd.partials).is_zero()
    report = freeness_test(d0)
    assert report.is_free and report.exponents == (1,)
    assert report.saito_checked


def test_d0_single_variable_is_zero():
    arr = Arrangement(1, [(1,)])
    d0 = derivation_module_d0(defining_data(arr))
    assert not d0.generators
    assert d0.presentation.is_zero_module()
    assert freeness_test(d0).is_free


def test_d0_generators_annihilate_partials(octic_modules):
    dd, d0, om1, om0 = octic_modules
    assert d0.generators
    for g in d0.generators:
        assert g.dot(dd.partials).is_zero()


def test_d_exponents_boolean4():
    dd = defining_data(boolean(4))
    D = log_derivations(dd)
    report = freeness_test(D)
    assert report.is_free
    assert report.exponents == (1, 1, 1, 1)


def test_d_splitting_off_euler_boolean3():
    dd = defining_data(boolean(3))
    d0 = derivation_module_d0(dd)
    D = log_derivations(dd, d0)
    assert D.generators[0] == d0.ambient.element(dd.euler_coefficients())
    exps = freeness_test(D).exponents
    assert sorted(exps) == sorted((1,) + freeness_test(d0).exponents)


# ----- Omega^1 and Omega^1_0 -----

def test_omega1_boolean2_normal_crossings():
    dd, om1, om0 = _pipeline(boolean(2))
    report = freeness_test(om1)
    assert report.is_free
    assert report.exponents == (0, 0)


def test_omega1_single_hyperplane_in_c2():
    arr = Arrangement(2, [(1, 0)])
    dd = defining_data(arr)
    om1 = log_forms(dd)
    report = freeness_test(om1)
    assert report.is_free
    assert report.exponents == (0, 1)


def test_omega0_boolean2():
    dd, _, om0 = _pipeline(boolean(2))
    assert om0.report()["generator_degrees"] == [0]
    # numerator vectors: the wedge reference route
    ref1 = wedge.log_forms(dd)
    ref0 = wedge.relative_log_forms(ref1)
    assert len(ref0.generators) == 1
    g = ref0.generators[0]
    assert g.degree() == 0
    assert wedge.euler_contraction(ref1, g).is_zero()


def test_omega0_single_variable_is_zero():
    arr = Arrangement(1, [(1,)])
    dd = defining_data(arr)
    om0 = relative_log_forms(dd)
    assert om0.presentation.is_zero_module()
    assert log_forms(dd, om0).report()["generator_degrees"] == [0]


def test_octic_hilbert_polynomials(octic_modules):
    dd, d0, om1, om0 = octic_modules
    om1_dual = module_dual(om1.presentation)
    assert hilbert_polynomial(om1_dual.twisted(-1)) == UniPolyQ(
        [2, Fraction(-5, 3), 0, Fraction(2, 3)])
    om0_dual = module_dual(om0.presentation)
    assert hilbert_polynomial(om0_dual) == UniPolyQ(
        [0, Fraction(-3, 2), 1, Fraction(1, 2)])
    assert hilbert_polynomial(om0_dual.twisted(-1)) == UniPolyQ(
        [2, -2, Fraction(-1, 2), Fraction(1, 2)])


def test_octic_splitting_difference(octic_modules):
    # P(Omega1^v(-1)) - P(S(-1)) = P(Omega0^v(-1))
    dd, d0, om1, om0 = octic_modules
    om1_dual = module_dual(om1.presentation)
    om0_dual = module_dual(om0.presentation)
    from logchern.rings import binomial_poly
    lhs = hilbert_polynomial(om1_dual.twisted(-1)) - binomial_poly(1, 3)
    assert lhs == hilbert_polynomial(om0_dual.twisted(-1))


def test_octic_resolution_of_omega0_has_length_one(octic_modules):
    dd, d0, om1, om0 = octic_modules
    assert om0.minimal_resolution().length == 1
    assert d0.minimal_resolution().length == 1
    assert [F.twist_multiset() for F in d0.minimal_resolution().terms] == \
        [{-3: 5}, {-4: 2}]


def test_hilbert_additivity_of_euler_splitting(octic_modules):
    from math import comb
    dd, d0, om1, om0 = octic_modules
    l = dd.arity
    for k in range(0, 11):
        assert hilbert_function(om1.presentation, k) == \
            hilbert_function(om0.presentation, k) + comb(k + l - 1, l - 1)


def test_duality_consistency_d0_vs_omega0_dual(octic_modules):
    # Hom(Omega^1_0, S) == D_0(1): Hilbert functions match up to the
    # twist dictated by the degree -1 contraction pairing.
    dd, d0, om1, om0 = octic_modules
    om0_dual = module_dual(om0.presentation)
    for k in range(0, 11):
        assert hilbert_function(om0_dual, k) == \
            hilbert_function(d0.presentation, k + 1)


# ----- freeness -----

def test_generic4_not_free_pdim_one():
    dd, om1, om0 = _pipeline(Arrangement(3, GENERIC4))
    report = freeness_test(om0)
    assert not report.is_free
    assert report.pdim == 1


def test_octic_arrangement_not_free(octic_modules):
    dd, d0, om1, om0 = octic_modules
    assert not freeness_test(om0).is_free
    assert not freeness_test(d0).is_free


def test_braid_triple_free_with_degree_zero_generator():
    dd, om1, om0 = _pipeline(Arrangement(3, BRAID_TRIPLE))
    d0 = derivation_module_d0(dd)
    report = freeness_test(d0)
    assert report.is_free
    assert report.exponents == (0, 2)
    assert report.saito_checked


# ----- non-free locus and N -----

def test_free_arrangements_have_zero_n():
    for arr in (boolean(2), boolean(3), boolean(4)):
        dd, om1, om0 = _pipeline(arr)
        nfl = nonfree_locus(om0)
        assert nfl.n_projective == 0


def test_generic4_locally_free_but_not_free():
    dd, om1, om0 = _pipeline(Arrangement(3, GENERIC4))
    nfl = nonfree_locus(om0, per_flat=True)
    assert nfl.n_projective == 0
    assert nfl.cone_dim <= 0
    assert sum(nfl.per_flat.values()) == 0


def test_octic_n_equals_three(octic_modules):
    dd, d0, om1, om0 = octic_modules
    nfl = nonfree_locus(om0, per_flat=True)
    assert nfl.n_projective == 3
    assert nfl.cone_dim == 1
    assert sum(nfl.per_flat.values()) == 3
    assert sorted(v for v in nfl.per_flat.values() if v) == [1, 2]


def test_octic_ext1_dimension(octic_modules):
    from logchern.modules import ext1_against_ring
    dd, d0, om1, om0 = octic_modules
    ext1 = ext1_against_ring(om0.presentation)
    assert krull_dim(ext1) == 1
    assert hilbert_polynomial(ext1) == UniPolyQ([3])


def test_generic5_n_zero_via_localizations():
    arr = Arrangement(4, GENERIC5)
    dd, om1, om0 = _pipeline(arr)
    nfl = nonfree_locus(om0, per_flat=True)
    assert nfl.n_projective == 0
    assert freeness_test(om0).pdim == 1
    # every codim-3 localization has at most 3 hyperplanes, hence free
    lat = build_lattice(arr)
    for flat in lat.flats_of_codim(3):
        assert len(flat.indices) <= 3


def test_affine_n_on_chart_of_nonfree_point(octic_arrangement, octic_lattice):
    flats = {tuple(sorted(f.indices)): f
             for f in octic_lattice.flats_of_codim(3)}
    rich = flats[(0, 1, 2, 6, 7)]  # the point [0:0:0:1]
    local = _centred_localization(octic_arrangement, rich)
    assert local.is_central and local.dim == 3 and local.n == 5
    assert affine_n_value(local) == 2


def test_chart_override_invariance(octic_arrangement, octic_lattice):
    flats = {tuple(sorted(f.indices)): f
             for f in octic_lattice.flats_of_codim(3)}
    rich = flats[(2, 4, 5, 7)]  # the point [1:1:0:1]
    values = set()
    for chart in range(4):
        direction = rich.subspace_basis()[0]
        if direction[chart] == 0:
            with pytest.raises(InputError):
                _centred_localization(octic_arrangement, rich, chart=chart)
            continue
        local = _centred_localization(octic_arrangement, rich, chart=chart)
        values.add(affine_n_value(local))
        values.add(ref.chart_n_value(octic_arrangement, rich, chart=chart))
    assert values == {1}


def test_per_flat_takes_one_affine_n_per_distinct_chart(
        octic_arrangement, octic_lattice, monkeypatch):
    # 18 points, whose A'_q have 13 distinct normal lists; 6 of them are
    # normal-crossing points (three independent planes), whose N is 0
    # without a computation
    charts = []

    def counted(arr, **kwargs):
        charts.append(arr.normals)
        return affine_n_value(arr, **kwargs)
    monkeypatch.setattr(log_geometry, "affine_n_value", counted)
    values = per_flat_n_values(octic_arrangement, lattice=octic_lattice)
    assert len(values) == 18
    assert len(charts) == len(set(charts)) == 7
    assert sum(values.values()) == 3
    assert sorted(v for v in values.values() if v) == [1, 2]


@pytest.mark.parametrize("spec", [spec for _, spec in CORPUS],
                         ids=[name for name, _ in CORPUS])
def test_normal_crossing_points_have_n_zero(spec):
    # per_flat_n_values gives N = 0 to an A'_q of l - 1 hyperplanes without
    # computing it; the full pipeline agrees at every such point
    arr = load_arrangement(spec)
    seen = set()
    for flat in build_lattice(arr).flats_of_codim(arr.dim - 1):
        local = _centred_localization(arr, flat)
        if local.n == local.dim and local.normals not in seen:
            seen.add(local.normals)
            assert affine_n_value(local) == 0


def test_affine_n_reads_the_hilbert_numerators_twice_per_chart(
        octic_arrangement, octic_lattice, monkeypatch):
    # once for the Krull dimension check, once for the length, on each
    # A'_q whose D is not free: 2 of the 7 that are not normal crossings
    calls = []

    def counted(pres):
        calls.append(1)
        return hilbert_numerators(pres)
    monkeypatch.setattr(modules, "hilbert_numerators", counted)
    per_flat_n_values(octic_arrangement, lattice=octic_lattice)
    assert len(calls) == 2 * 2


OCTIC_X_C = [a + (0,) for a in OCTIC_NORMALS]


@pytest.mark.parametrize("normals", [OCTIC_X_C, OCTIC_X_C + [(1, 2, 3, 5, 7)]],
                         ids=["octic_x_C", "octic_x_C_plus"])
def test_per_flat_n_rejects_a_non_isolated_locus(normals):
    # at the offending points D(A'_q) has projective dimension 1 in 4
    # variables, and its top Ext^1 has positive dimension
    with pytest.raises(HypothesisError, match="not zero-dimensional"):
        per_flat_n_values(Arrangement(5, normals))


def test_a_finite_top_ext_does_not_hide_a_non_free_line(monkeypatch):
    # the octic's rich point times C, plus two generic planes: D has
    # projective dimension 2 and a top Ext^2 of finite length, but it is
    # not free along the line z_1 = z_2 = z_3 = 0, where Ext^1 lives
    rich = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
    local = Arrangement(4, [a + (0,) for a in rich]
                        + [(1, 1, 1, 1), (1, 2, 3, 5)])
    with pytest.raises(HypothesisError, match="not zero-dimensional"):
        ref.affine_n_value(local)
    dims = {}
    real = log_geometry.ext_from_resolution

    def recorded(res, i):
        ext = real(res, i)
        dims[res.length, i] = krull_dim(ext)
        return ext
    monkeypatch.setattr(log_geometry, "ext_from_resolution", recorded)
    with pytest.raises(HypothesisError, match="not zero-dimensional"):
        affine_n_value(local)
    assert dims == {(2, 2): 0, (2, 1): 1}
    # the same A'_q at the one point of the cone over it
    with pytest.raises(HypothesisError, match="not zero-dimensional"):
        per_flat_n_values(Arrangement(5, [a + (0,) for a in local.normals]))


def test_per_flat_requires_central():
    d = Arrangement(2, [(1, 0)], constants=[1])
    with pytest.raises(InputError):
        per_flat_n_values(d)

