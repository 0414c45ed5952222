"""Chow-ring operations and the identity-verification pipelines."""

from fractions import Fraction

import pytest

from logchern import (Arrangement, ArityMismatchError, ChernPoly, ChowClass,
                      GradedFreeModule, GradedModulePresentation,
                      HypothesisError, InputError, MultiPoly, PoincarePoly,
                      chern_dual, chern_from_hilbert, chern_from_resolution,
                      chern_point, chow_from_chern, csm_complement,
                      csm_of_divisor, defect_coefficient, ext1_against_ring,
                      free_resolution, krull_dim, log_modules,
                      poincare_projective, twist_chern,
                      verify_denham_schulze, verify_main_theorem,
                      verify_mustata_schenck)
from logchern.chern_csm import _dual_route
from logchern.cli import load_arrangement
from logchern.modules import ResolutionData, to_engine
from tests.conftest import (BRAID_TRIPLE, CORPUS, GENERIC4, GENERIC5,
                            OCTIC_NORMALS, boolean, braid)


def _free_resolution_of(module):
    return free_resolution(GradedModulePresentation(module, []))


def test_chern_of_free_twisted_module():
    res = _free_resolution_of(GradedFreeModule(4, [1, 1]))
    ct = chern_from_resolution(res, 0, 4)
    assert ct.coeffs == (1, -2, 1, 0)  # (1-t)^2


def test_chern_of_koszul_point_matches_point_formula():
    # a reduced point of P^d is cut out by d linear forms in d+1 variables
    for d in (1, 2, 3):
        arity = d + 1
        S = GradedFreeModule(arity, [0])
        rels = [to_engine(S.element([MultiPoly.variable(arity, i)]))
                for i in range(d)]
        res = GradedModulePresentation(S, rels).minimal_resolution()
        assert chern_from_resolution(res, 0, d + 1) == chern_point(d)
    # by contrast, the irrelevant point S/(x, y) over two variables
    # sheafifies to zero on P^1 and its class is trivial
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    S = GradedFreeModule(2, [0])
    pres = GradedModulePresentation(
        S, [to_engine(S.element([x])), to_engine(S.element([y]))])
    ct = chern_from_resolution(pres.minimal_resolution(), 0, 2)
    assert ct.coeffs == (1, 0)


def test_chern_octic_d0(octic_modules):
    dd, d0, om1, om0 = octic_modules
    ct = chern_from_resolution(d0.minimal_resolution(), 1, 4)
    assert ct.coeffs == (1, -4, 7, -2)


def test_chern_whitney_resolution_independence(octic_modules):
    dd, d0, om1, om0 = octic_modules
    minimal = d0.minimal_resolution()
    ct_min = chern_from_resolution(minimal, 1, 4)
    # pad with a trivial S(-6) -> S(-6) summand
    padded_terms = [GradedFreeModule(4, list(minimal.terms[0].twists) + [6]),
                    GradedFreeModule(4, list(minimal.terms[1].twists) + [6])]
    padded = ResolutionData(padded_terms, [[], []], [1, 1], minimal=False)
    assert chern_from_resolution(padded, 1, 4) == ct_min
    # and a genuinely non-minimal resolution of the same module
    raw = free_resolution(d0.presentation, minimal=False)
    assert chern_from_resolution(raw, 1, 4) == ct_min
    # the Hilbert series holds the same alternating twist count, for every
    # log module of the bundled and frontier inputs
    for name, spec in CORPUS:
        arr = load_arrangement(spec)
        for lm in log_modules(arr)[1:]:
            assert chern_from_hilbert(lm.presentation, 1, arr.dim) == \
                chern_from_resolution(lm.minimal_resolution(), 1, arr.dim), \
                (name, lm.kind)


def _cross(normals, k):
    """The normals of A x C^k."""
    return [tuple(a) + (0,) * k for a in normals]


@pytest.mark.parametrize("normals,defect", [
    (_cross(OCTIC_NORMALS, 1), (0, 0, 0, 3, 8)),
    (_cross(OCTIC_NORMALS, 1) + [(1, 2, 3, 5, 7)], (0, 0, 0, 3, 5)),
    (_cross(GENERIC4, 2), (0, 0, 0, 1, 4))],
    ids=["octic_x_C", "octic_x_C_plus", "generic4_x_C2"])
def test_third_route_on_positive_dimensional_loci(normals, defect):
    # Ext^1 has cone dimension 2, so verify reports applicable: false and
    # skips the third route; with the class of Ext^1(-1) it still gives the
    # lhs, which a skyscraper factor cannot (and the twists Ext^1 and
    # Ext^1(1) do not)
    arr = Arrangement(5, normals)
    _, d0, _, _, om0 = log_modules(arr)
    lhs = chern_from_hilbert(d0.presentation, 1, 5)
    ct_omega = chern_from_resolution(om0.minimal_resolution(), 1, 5)
    ext1 = ext1_against_ring(om0.presentation)
    assert krull_dim(ext1) == 2
    assert _dual_route(ct_omega, ext1, 5) == lhs
    for s in (1, 2):
        assert _dual_route(ct_omega, ext1.twisted(s), 5) != lhs
    csm = csm_complement(poincare_projective(arr), 5)
    assert (chow_from_chern(lhs) - csm).coeffs == defect


def test_chow_classes_of_different_lengths_do_not_combine():
    a, b = ChowClass(3, [1, 2, 3]), ChowClass(4, [1, 1, 1, 1])
    for x, y in ((a, b), (b, a)):
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(ArityMismatchError):
                op(x, y)
        with pytest.raises(ArityMismatchError):
            ChernPoly(x.l, x.coeffs) * ChernPoly(y.l, y.coeffs)


def test_chern_dual_examples():
    c = ChernPoly(4, [1, 5, 0, 0])
    assert chern_dual(c).coeffs == (1, -5, 0, 0)
    assert chern_dual(chern_dual(c)) == c
    pi_shape = ChernPoly(4, [1, 7, 18, 17])
    assert chern_dual(pi_shape).coeffs == (1, -7, 18, -17)


@pytest.mark.parametrize("cls", [ChernPoly, ChowClass])
@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.7])
def test_non_integer_coefficients_raise(cls, bad):
    # integral Fractions and floats are accepted as ints; others never
    # truncate
    assert cls(3, [Fraction(4, 2), 3.0]).coeffs == (2, 3, 0)
    with pytest.raises(InputError, match="must be integers"):
        cls(3, [1, bad, 2])


def test_twist_chern_octic_value():
    # c_t(Omega^1(PA)^v(-1)) -> c_t(Omega^1(PA)^v) for the octic arrangement
    ct = ChernPoly(4, [1, -7, 18, -14])
    assert twist_chern(ct, 4).coeffs == (1, -4, 7, -2)


def test_twist_chern_of_trivial_class():
    assert twist_chern(ChernPoly(4, [1]), 4).coeffs == (1, 3, 3, 1)


def test_twist_chern_degree_zero_fixed():
    for l in (2, 3, 4, 5):
        c = ChernPoly(l, [1] + [0] * (l - 1))
        assert twist_chern(c, l).coeffs[0] == 1


def test_chern_point_values():
    assert chern_point(3).coeffs == (1, 0, 0, 2)
    assert chern_point(1).coeffs == (1, 1)
    assert chern_point(2).coeffs == (1, 0, -1)
    with pytest.raises(InputError):
        chern_point(0)


# ----- CSM classes -----

def test_csm_boolean_torus():
    for l in (2, 3, 4, 5):
        pi = poincare_projective(boolean(l))
        csm = csm_complement(pi, l)
        assert csm.coeffs == (1,) + (0,) * (l - 1)


def test_csm_three_points_on_line():
    pi = PoincarePoly([1, 2])
    assert csm_complement(pi, 2).coeffs == (1, -1)


def test_csm_octic_value(octic_arrangement):
    pi = poincare_projective(octic_arrangement)
    assert csm_complement(pi, 4).coeffs == (1, -4, 7, -5)


def test_csm_divisor_values(octic_arrangement):
    pi = poincare_projective(octic_arrangement)
    assert csm_of_divisor(pi, 4).coeffs == (0, 8, -1, 9)
    single = Arrangement(2, [(1, 0)])
    assert csm_of_divisor(poincare_projective(single), 2).coeffs == (0, 1)
    assert csm_of_divisor(poincare_projective(boolean(2)), 2).coeffs == (0, 2)


def test_csm_euler_characteristic_invariant(octic_arrangement):
    for arr in (boolean(3), Arrangement(3, GENERIC4), octic_arrangement):
        l = arr.dim
        pi = poincare_projective(arr)
        csm = csm_complement(pi, l)
        assert csm.coeffs[0] == 1
        assert csm.coeffs[l - 1] == pi.evaluate(-1)


# ----- identity checks -----

def test_mustata_schenck_residuals(octic_verification):
    assert verify_mustata_schenck(
        ChernPoly(3, [1, 2, 1]), poincare_projective(boolean(3))).is_zero()
    rep = verify_main_theorem(Arrangement(3, GENERIC4))
    assert rep.ms_residual.is_zero()
    assert octic_verification.ms_residual.coeffs == (0, 0, 0, 3)


def test_denham_schulze_residuals(octic_verification):
    assert octic_verification.ds_residual.is_zero()
    ct = octic_verification.ct_omega_twisted
    pi = octic_verification.pi_projective
    assert verify_denham_schulze(ct, pi, 3, 4).is_zero()
    assert not verify_denham_schulze(ct, pi, 0, 4).is_zero()


def test_defect_coefficients():
    assert defect_coefficient(4) == 1
    assert defect_coefficient(3) == 0
    assert defect_coefficient(5) == -5
    assert defect_coefficient(2) == 0
    with pytest.raises(InputError):
        defect_coefficient(1)


def test_octic_verification_report(octic_verification):
    rep = octic_verification
    assert rep.lhs.coeffs == (1, -4, 7, -2)
    assert rep.rhs_csm.coeffs == (1, -4, 7, -5)
    assert rep.csm_divisor.coeffs == (0, 8, -1, 9)
    assert rep.n_value == 3
    assert rep.defect_coeff == 1
    assert rep.predicted_defect.coeffs == (0, 0, 0, 3)
    assert rep.residual.is_zero()
    assert rep.holds()
    assert (rep.lhs - rep.rhs_csm).coeffs == (0, 0, 0, 3)


def test_free_arrangements_aluffi_equality():
    for arr in (boolean(2), boolean(3), boolean(4),
                Arrangement(3, BRAID_TRIPLE)):
        rep = verify_main_theorem(arr)
        assert rep.holds()
        assert rep.n_value == 0
        assert rep.lhs == rep.rhs_csm
        assert rep.freeness.pdim == 0
        assert rep.ms_residual.is_zero()


def test_boolean5_requires_assertion_then_passes():
    arr = boolean(5)
    with pytest.raises(HypothesisError):
        verify_main_theorem(arr)
    rep = verify_main_theorem(arr, assume_locally_tame=True)
    assert rep.holds() and rep.n_value == 0


def test_generic5_locally_free_identity():
    rep = verify_main_theorem(Arrangement(4, GENERIC5),
                              per_flat_check=True)
    assert rep.holds()
    assert rep.n_value == 0
    assert rep.freeness.pdim == 1
    assert rep.ms_residual.is_zero()
    assert sum(rep.per_flat.values()) == 0


def test_every_l3_arrangement_has_equal_sides():
    # reflexive sheaves on P^2 are locally free: N = 0 and, with defect
    # coefficient 0, lhs == csm even when the arrangement is not free
    for normals in ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)],
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]):
        rep = verify_main_theorem(Arrangement(3, normals))
        assert rep.n_value == 0
        assert rep.lhs == rep.rhs_csm
        assert rep.holds()


def test_twist_then_inverse_binomial_transform_recovers_input():
    # untwisting by O(-1) is the signed binomial transform
    from math import comb
    for l in (3, 4, 5):
        c = ChernPoly(l, [1] + [(-1) ** k * (k + 2) for k in range(1, l)])
        tw = twist_chern(c, l)
        back = [sum((-1) ** (k - i) * comb(l - 1 - i, k - i) * tw.coeffs[i]
                    for i in range(k + 1)) for k in range(l)]
        assert tuple(back) == c.coeffs


def test_defect_linearity_between_routes(octic_verification):
    # main-theorem residual zero iff Denham-Schulze residual zero
    rep = octic_verification
    assert rep.residual.is_zero() == rep.ds_residual.is_zero()
    for arr in (boolean(3), Arrangement(3, GENERIC4)):
        r = verify_main_theorem(arr)
        assert r.residual.is_zero() == r.ds_residual.is_zero()


def test_verify_rejects_bad_inputs():
    with pytest.raises(InputError):
        verify_main_theorem(Arrangement(2, [(1, 0)], constants=[1]))
    with pytest.raises(InputError):
        verify_main_theorem(Arrangement(2, []))


@pytest.mark.parametrize("arr", [
    boolean(2), boolean(3), boolean(4), boolean(5),
    Arrangement(3, BRAID_TRIPLE), Arrangement(4, braid(4)),
    Arrangement(5, braid(5))],
    ids=["boolean_l2", "boolean_l3", "boolean_l4", "boolean_l5",
         "braid_triple", "braid_a3", "braid_a4"])
def test_terao_factorization_on_free_arrangements(arr):
    # verify_main_theorem raises unless pi(PA, t) = prod (1 + d_i t) over
    # the exponents d_i of a free D_0; Omega^1_0 = D_0^*(-1) has the
    # exponents 1 - d_i, so the product is rebuilt here from the report
    l = arr.dim
    rep = verify_main_theorem(arr, assume_locally_tame=l >= 5)
    assert rep.freeness.is_free
    product = ChernPoly.one(l)
    for e in rep.freeness.exponents:
        product = product * ChernPoly(l, [1, 1 - e])
    assert product == ChernPoly(l, rep.pi_projective.coeffs)
    assert rep.holds()


def test_verify_reuses_its_lattice_for_the_per_flat_route(
        octic_arrangement, monkeypatch):
    from logchern import arrangements, chern_csm, log_geometry
    built = []

    def counted(arr):
        built.append(arr)
        return arrangements.build_lattice(arr)

    for module in (chern_csm, log_geometry):
        monkeypatch.setattr(module, "build_lattice", counted)
    rep = verify_main_theorem(octic_arrangement, per_flat_check=True)
    assert sum(rep.per_flat.values()) == 3
    assert built == [octic_arrangement]


def test_verify_computes_module_kernels_on_term_dicts(octic_arrangement,
                                                       monkeypatch):
    # kernels, duals and Ext^1 run on the engine's integer term dicts: no
    # FreeModuleElement kernel is taken, and every presentation of the
    # logarithmic modules holds its relations as dicts
    from logchern import chern_csm, log_geometry, log_modules, modules
    calls = []
    original = modules.kernel_generators

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (modules, log_geometry, chern_csm):
        if getattr(module, "kernel_generators", None) is original:
            monkeypatch.setattr(module, "kernel_generators", counted)
    assert verify_main_theorem(octic_arrangement).n_value == 3
    assert calls == []
    for lm in log_modules(octic_arrangement)[1:]:
        assert lm.presentation.relations, lm.kind
        for r in lm.presentation.relations:
            assert type(r) is dict, lm.kind
            assert all(type(c) is int for c in r.values()), lm.kind
        res = lm.minimal_resolution()
        assert res.compose_is_zero() and not res.has_unit_entry(), lm.kind
