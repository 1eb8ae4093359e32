"""Exact-arithmetic workbench for determinantal varieties with isolated
singularities: polynomial algebra, Groebner bases, germ classification,
Euler characteristic calculus, and the global index identities."""

from .detvar import (AFFINE, ESSENTIAL_SINGULAR, OUTSIDE, PROJECTIVE,
                     SMOOTH_STRATUM, AmbientSpace, DeterminantalModel,
                     GermClassification, ProjectivePoint, chart_ideal,
                     chart_matrix, classify, is_point_on_variety,
                     lower_locus_generators)
from .grobner import (DEFAULT_SPAIR_BUDGET, GroebnerBasis, Ideal,
                      ResourceLimitExceeded, SPairBudgetExceeded, buchberger,
                      eliminant, ideal_dimension, normal_form,
                      quasi_homogeneous_weights, quotient_dimension,
                      s_polynomial)
from .indexcalc import (IdentityResult, LedgerError, SingularPointRecord,
                        cstar_fixed_points, defect, global_identity,
                        phn_from_radial, phn_from_radial_nonsmoothable)
from .polyalg import (ParseError, Polynomial, PolyMatrix, minors,
                      parse_polynomial, rank_at_point)
from .topo import (BouquetDescriptor, CWDescriptor, LeGreuelResult,
                   MilnorData, UnsupportedDimensionError, chi_bouquet,
                   chi_cw, chi_smoothing, le_greuel_check)

__version__ = "0.1.0"
