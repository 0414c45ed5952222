"""logchern: exact invariants of central hyperplane arrangements.

Combinatorics (intersection lattice, Moebius function, Poincare
polynomials), commutative algebra (logarithmic derivation and form modules,
graded free resolutions, Hilbert polynomials, the non-freeness number N)
and intersection theory (Chern polynomials, CSM classes) over exact
rational arithmetic, with an end-to-end verification of the defect identity

    c(Omega^1(PA)^v) . [PV]
        = c_SM(M(PA)) + ((-1)^(l-1) + (-1)^(l-2) (l-2)!) N(PA) h^(l-1).
"""

from .arrangements import (Arrangement, Flat, IntersectionLattice,
                           PoincarePoly, build_lattice, decone, essentialize,
                           localize, mobius, parse_arrangement,
                           poincare_affine, poincare_projective)
from .chern_csm import (ChernPoly, ChowClass, VerificationReport,
                        chern_dual, chern_from_hilbert,
                        chern_from_resolution, chern_point,
                        chow_from_chern, csm_complement, csm_of_divisor,
                        defect_coefficient, twist_chern,
                        verify_denham_schulze, verify_main_theorem,
                        verify_mustata_schenck)
from .errors import (ArityMismatchError, EngineError, HypothesisError,
                     InputError, LogChernError, NonUnitError,
                     NotFiniteLengthError, ResolutionLengthError)
from .groebner import EngineStats, stats_scope
from .log_geometry import (DefiningData, FreenessReport, LogModule,
                           NonFreeLocusReport, affine_n_value,
                           defining_data, derivation_module_d0,
                           freeness_test, log_derivations, log_forms,
                           log_modules, nonfree_locus, per_flat_n_values,
                           relative_log_forms)
from .modules import (FreeModuleElement, GradedFreeModule,
                      GradedModulePresentation, GroebnerBasis,
                      ResolutionData, ext1_against_ring, finite_length,
                      free_resolution, groebner_basis, hilbert_function,
                      hilbert_polynomial, kernel_generators, krull_dim,
                      module_dual, normal_form, presentation_of_submodule,
                      syzygies)
from .rings import MultiPoly, TruncatedPoly, UniPolyQ

__version__ = "0.1.0"
