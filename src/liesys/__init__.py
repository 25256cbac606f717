"""Numerical workbench for sl(2,R) Lie systems and their superposition rules."""

from .errors import (DependentSolutionsError, DimensionMismatchError,
                     DomainError, IntegrationError, LiesysError,
                     QuadratureError, ScenarioError, SingularityError,
                     UndeterminedRankError)
from .integrate import (FrequencyProfile, Trajectory, constant_frequency,
                        integrate, integrate_lanes, quadrature, step_frequency,
                        two_plus_sin)
from .invariants import (InvariantSeries, angular_momentum, drift,
                         ermakov_pair_invariants, generalized_invariant,
                         lewis_ermakov)
from .superposition import (keys_from, linear_rule, pinney_rule,
                            pinney_rule_from_solutions, quadrature_rule)
from .systems import (ShapeFunctions, SystemDef, ermakov, generalized_ermakov,
                      milne_pinney, oscillator_1d, oscillator_2d,
                      pinney_triple, quadratic_shapes, zero_one_shapes)
from .group import (A1, A2, A3, PinneyActionResult, SL2Matrix, Sl2Vector,
                    generator_by_finite_difference, linear_action,
                    pinney_action, reduce_oscillator,
                    reduce_pinney_from_oscillator, reduce_pinney_from_pinney,
                    sl2_exp, solve_group_equation, tau_grid,
                    tau_reparametrization)
from .vectorfield import (AlgebraReport, StructureConstants, VectorField,
                          bracket, diagonal_prolongation, minimal_m,
                          prolonged_rank, sl2_constants, verify_algebra)

__version__ = "0.1.0"
