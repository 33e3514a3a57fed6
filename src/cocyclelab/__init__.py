"""Concrete group cocycles on compact groups, checked at desk scale.

The package builds geodesic and chart simplices on spheres and SU(2),
integrates invariant forms into circle-valued homogeneous cochains, pairs
them with cycles of finite cyclic subgroups, computes exact homology of
predicate-restricted tuple complexes of finite groups, differentiates
group cochains into Lie-algebra cochains and identifies the result with
the Cartan cocycle, and verifies the symplectic and contact bracket
normalizations and the contact Hamiltonian field on the 2- and 3-sphere.
The ``verify`` command line exposes each battery of checks as a suite.
"""

from .cochains import (HomogeneousChain, HomogeneousCochain,
                       circle_distance, coboundary, conjugate_point_map,
                       cyclic_cycle, degree_of_map, generic_rotation,
                       integrated_cochain, kronecker_pair, transfer,
                       twisted_square_map)
from .contact import (ContactFunction, contact_bracket, contact_cocycle,
                      contact_field, fiber_period, pullback, reeb_field)
from .errors import (BadOrder, BadReps, CocycleLabError, ConfigParse,
                     DegenerateConfig, DomainGuard, IndexOut,
                     KernelObstruction, NotAChainMap, NotNormal,
                     NotWellConfigured, PredicateNotFaceClosed,
                     QuadratureDiverged, StepTooLarge, UnknownSuite)
from .finite import (ConfiguredComplex, FiniteGroupTable, HomologySummary,
                     brute_force_free_rank, build_complex, build_retraction,
                     extend_cocycle, homology)
from .forms import (DifferentialForm, fubini_study_form, mc3_form,
                    pullback_integral, sphere_atlas, sphere_integral,
                    vol_form)
from .groups import (LieVector, Rotation, UnitQuaternion, apply_rotation,
                     cyclic_embed, quat_exp, so4_of)
from .hamiltonian import (SphereFunction, hamiltonian_field, poisson,
                          symplectic_cocycle)
from .lie import (LieAlgebraTable, MultilinearCochain, cartan_cocycle,
                  ce_differential, cochain_derivative, derivation_residual)
from .quadrature import IntegralResult, QuadratureSpec
from .simplices import (GeodesicSimplex, ParametrizedMap, face,
                        in_open_hemisphere, is_chart_small, prism_cell,
                        straighten)
from .suites import SuiteReport, list_suites, parse_config, run_suite

__version__ = "0.1.0"
