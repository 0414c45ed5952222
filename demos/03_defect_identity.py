"""The defect identity between Chern and CSM classes.

For a locally tame arrangement with zero-dimensional non-free locus,

    c(Omega^1(PA)^v) . [PV]
        = c_SM(M(PA)) + ((-1)^(l-1) + (-1)^(l-2) (l-2)!) N(PA) h^(l-1).

Both sides are computed by independent pipelines: the left side from the
Hilbert series of D_0 through the Whitney formula, the right side
from the intersection lattice through the CSM expansion of the Poincare
polynomial.  N comes from the graded Ext^1 of Omega^1_0; a per-point
computation, on the chart centred at each point, cross-checks it.

Run:  python demos/03_defect_identity.py
"""

from logchern import Arrangement, defect_coefficient, verify_main_theorem

print("defect coefficients by dimension:",
      {l: defect_coefficient(l) for l in (2, 3, 4, 5, 6)})
print()


def show(title, arr, **kw):
    rep = verify_main_theorem(arr, per_flat_check=True, **kw)
    print(title)
    print("  pi(PA, t)              =", rep.pi_projective.render())
    print("  lhs  c(Omega^1(PA)^v)  =", rep.lhs.render())
    print("  rhs  c_SM(M(PA))       =", rep.rhs_csm.render())
    print("  c_SM(PA)               =", rep.csm_divisor.render())
    print("  N(PA) =", rep.n_value, " predicted defect =",
          rep.predicted_defect.render())
    print("  Mustata-Schenck residual:", rep.ms_residual.render(),
          "| Denham-Schulze residual:", rep.ds_residual.render())
    print("  identity holds:", rep.holds())
    print()


show("Boolean arrangement in C^4 (free: both sides agree, N = 0)",
     Arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                     (0, 0, 0, 1)]))

show("Generic five hyperplanes in C^4 (locally free, not free: N = 0)",
     Arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                     (1, 1, 1, 1)]))

show("The octic arrangement (N = 3: the sides differ by exactly 3h^3)",
     Arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                     (1, 0, 0, -1), (0, 1, 0, -1), (1, 1, 1, 0),
                     (1, -1, 1, 0)]))
