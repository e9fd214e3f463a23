"""Numerical toolkit for m-accretive boundary realizations of
first-order differential operators on an interval.

The package is organised around an exact exponential-polynomial
function algebra (:mod:`maccretive.funcspace`) on which deficiency
projections, boundary correspondences, resolvents, and semigroup
trajectories are all closed-form, so the structural identities of the
theory can be verified to roundoff.
"""

from .funcspace import (
    ExpPoly,
    Interval,
    antiderivative,
    differentiate,
    graph_inner,
    graph_norm,
    l2_inner,
    l2_norm,
)
from .relations import (
    CayleyRelation,
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    STReport,
    cayley_to_relation,
    is_accretive_linear,
    is_m_accretive_linear,
    relation_to_cayley,
    st_criterion,
    st_relation,
)
from .derivative import (
    BoundaryFunction,
    Realization1D,
    accretivity_witness,
    check_lipschitz_transfer,
    extract_h,
    in_domain,
    kernel_element,
    linear_reduce,
    linear_unreduce,
    maximality_probe,
    pi_minus_coeff,
    pi_plus_coeff,
    pi_zero,
    resolve,
)
from .blockop import (
    BlockRealization,
    BlockState,
    bd_project,
    bd_space,
    block_resolve,
    g_bd,
    lift_f_to_h,
    pi1_block,
    pi_minus1_block,
    reduce_h_to_f,
    st_domain,
)
from .impedance1d import (
    gamma0,
    gammaN,
    impedance_realization,
    is_K_accretive,
    kappa,
    kappa_adjoint,
)
from .evolution import convergence_order, evolve
from . import errors

__version__ = "0.1.0"
