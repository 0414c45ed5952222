"""Logarithmic derivations and forms, resolutions and Hilbert polynomials.

Computes D_0 (derivations annihilating the defining polynomial), Omega^1
(logarithmic 1-forms) and Omega^1_0 (the relative ones, killed by the
Euler contraction), their minimal graded free resolutions, freeness tests
with Saito determinant certificates, and the non-freeness number N.  The
form modules come from Saito duality: Omega^1_0 = D_0^*(-1) and
Omega^1 = S*(df/f) + Omega^1_0.

Run:  python demos/02_logarithmic_modules.py
"""

from logchern import (Arrangement, defining_data, derivation_module_d0,
                      freeness_test, hilbert_polynomial, log_derivations,
                      log_forms, module_dual, nonfree_locus,
                      relative_log_forms)


def show(title, arr):
    print(title)
    dd = defining_data(arr)
    print("  f =", dd.f.render(), " (degree", str(dd.degree) + ")")

    d0 = derivation_module_d0(dd)
    rep = freeness_test(d0)
    print("  D_0: generator degrees",
          sorted(g.degree() for g in d0.generators) or "(zero module)",
          "| free:", rep.is_free,
          "| exponents:", rep.exponents, "| pdim:", rep.pdim)
    if rep.is_free and rep.saito_checked:
        print("       Saito determinant check passed: det = c*f")

    D = log_derivations(dd, d0)
    print("  D = S*chi + D_0: exponents", freeness_test(D).exponents)

    om0 = relative_log_forms(dd, d0)
    om1 = log_forms(dd, om0)
    print("  Omega^1 = S*(df/f) + Omega^1_0: generator degrees",
          om1.report()["generator_degrees"])
    res = om0.minimal_resolution()
    print("  Omega^1_0 resolution twists:",
          [F.twist_multiset() for F in res.terms], "| pdim:", res.length)

    dual = module_dual(om0.presentation)
    print("  P(Omega^1_0(A)^v, t) =", hilbert_polynomial(dual).render())

    nfl = nonfree_locus(om0, per_flat=True)
    print("  N(PA) =", nfl.n_projective,
          "| Ext^1 cone dimension:", nfl.cone_dim)
    nonzero = {tuple(sorted(f.indices)): v
               for f, v in nfl.per_flat.items() if v}
    if nonzero:
        print("  non-free points (hyperplane sets -> local N):", nonzero)
    print()


show("Boolean arrangement in C^4 (free)",
     Arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                     (0, 0, 0, 1)]))

show("Generic four planes in C^3 (locally free, not free)",
     Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))

show("The octic arrangement in C^4 (N = 3)",
     Arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                     (1, 0, 0, -1), (0, 1, 0, -1), (1, 1, 1, 0),
                     (1, -1, 1, 0)]))
