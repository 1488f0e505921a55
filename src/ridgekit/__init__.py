"""ridgekit: polynomial ridge decompositions, orthonormal bases on the ball,
quasi-projection operators, dictionary-based shallow networks, and
approximation-rate experiments."""

from .polycore import (ComplexBiPolynomial, ExactComplex, MultiIndex,
                       MultiIndexPolynomial, dim_complex_bihomogeneous,
                       dim_homogeneous, monomials_up_to)
from .quadrature import (NodeCapError, QuadratureRule, ball_sup_grid,
                         build_ball_rule, build_sphere_rule, inner_product,
                         lq_norm, pointwise)
from .orthobasis import ConditioningError, OrthoBasis, build_basis, project_coefficients
from .quasiproj import (CutoffFunction, QuasiProjector, cesaro_mean,
                        estimate_l1_operator_norm, forward_difference,
                        verify_cesaro_identity)
from .ridge_real import (DecompositionError, DirectionSet, RidgeDecomposition,
                         SpanningError, decompose, eval_ridge,
                         orthonormalize_rows, sample_spanning_directions)
from .ridge_complex import (ComplexDirectionSet, ComplexRidgeDecomposition,
                            complex_decompose, realify,
                            sample_complex_directions, wirtinger_derivative)
from .testfuncs import (BumpFamily, counterexample_ratio, eval_f_eps,
                        make_bump_family, q_coefficient, trig_reduce,
                        verify_inner_product_expansion)
from .networks import (ComplexPolynomialDictionary, CVNNetwork, GTNetwork,
                       PolynomialDictionary, cvnn_from_decomposition,
                       gtn_from_decomposition, network_eval, phi_eval, tau_eval)
from .pipeline import (ExperimentConfig, RateReport, approximate_by_ridge,
                       fit_polynomial, rate_sweep, verify)

__version__ = "0.1.0"
