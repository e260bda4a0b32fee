"""Tail dependence modeling for Markov random fields on block graphs.

The package is organized around a validated :class:`~extreme_blocks.graph.BlockGraph`
and a family of positive squared edge parameters on it. From those it
evaluates the limiting dependence structures exactly (path sums, Gaussian
limit parameters, precision matrices, stdf and CDFs), simulates the
limiting multiplicative field reproducibly, estimates the parameters from
data by moment matching, and recovers parameters when nodes are latent.
"""

from .errors import (
    AllZeroWeightsError,
    ConstantColumnError,
    DimensionCapError,
    DisconnectedGraphError,
    ExtremeBlocksError,
    InconsistentInputError,
    KOutOfRangeError,
    MissingEdgeParamError,
    NonPositiveCoordinateError,
    NonPositiveParamError,
    NotBlockGraphError,
    NotCNDError,
    NotIdentifiableError,
    NotPDError,
    NumericalError,
    ScaleError,
    SingularBlockError,
    SubsetTooSmallError,
    UnknownNodeError,
)
from .graph import BlockGraph, build_block_graph, canonical_edge
from .model import (
    DeltaFamily,
    GaussianLimit,
    GraphCheckReport,
    PathSumMatrix,
    extremal_graph_check,
    gaussian_limit,
    path_sum_matrix,
    precision_matrix,
    validate_delta,
)
from .mvn import MvnResult, mvn_cdf, std_normal_cdf
from .dist import (
    extremal_coefficient,
    extremal_coefficient_detailed,
    hr_cdf_detailed,
    nu_hr,
    pareto_cdf,
    pareto_cdf_detailed,
    stdf_hr_detailed,
)
from .sim import FieldSample, sample_limit_field, sample_pareto_conditioned
from .fit import FitResult, SampleSet, fit_delta, fit_delta_from_covariances, log_spacings, nnls_active_set, rank_transform
from .latent import (
    ObservationMask,
    check_identifiable,
    recover_edge_params,
    recover_path_sums,
)

__version__ = "0.1.0"
