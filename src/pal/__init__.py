"""pal: exact finite geometry around pseudo-ovals and pseudo-hyperovals.

Construct regular pseudo-arcs of PG(3n-1, q) by field reduction, derive
their spreads, test regularity through reguli and transversal lines, run
the recognition construction, and check the associated designs.
"""

from .fields import FieldTower, FiniteField, field_make, gf, make_tower
from .planearcs import (PlaneArc, conic, make_arc, oval_nucleus_and_complete,
                        tangent_lines, translation_oval, verify_karc)
from .projective import (Chart, Point, ProjSpace, QuotientMap, Subspace, dual,
                         meet, span)
from .pseudoarcs import (PseudoArc, extend_to_hyperoval, make_pseudo_arc,
                         nucleus, tangent_spaces, verify_pseudo_arc)
from .reduction import ReductionMap, desarguesian_spread, reduction_map
from .sigma import (NotRegularError, PlaneModel, RecognitionResult,
                    SigmaScaffold, build_sigma, generated_spread, plane_model,
                    recognize_regular, spread_transversals)
from .spreads import (DualArc, Regulus, Spread, count_reguli_through_pair,
                      derive_spread_from_element, derive_spread_from_nucleus,
                      derive_tangent_spread_odd, distinct_reguli, dual_arc,
                      is_regular_spread, opposite_regulus, regularity_reports,
                      regulus_through, transversal_lines, verify_spread)
from .theorems import (DesignSpec, TheoremParams, TheoremReport, check_design,
                       check_theorem, lines_design, regulus_blocks,
                       spread_reguli_design)

__version__ = "0.1.0"
