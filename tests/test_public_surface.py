"""The public surface, pinned: a name added to or removed from the
package or from BlockGraph shows up as an edit to these lists."""

import inspect

import extreme_blocks as eb
from extreme_blocks import errors

EXPORTS = [
    "AllZeroWeightsError", "BlockGraph", "ConstantColumnError", "DeltaFamily",
    "DimensionCapError", "DisconnectedGraphError", "ExtremeBlocksError", "FieldSample",
    "FitResult", "GaussianLimit", "GraphCheckReport", "InconsistentInputError",
    "KOutOfRangeError", "MissingEdgeParamError", "MvnResult", "NonPositiveCoordinateError",
    "NonPositiveParamError", "NotBlockGraphError", "NotCNDError", "NotIdentifiableError",
    "NotPDError", "NumericalError", "ObservationMask", "PathSumMatrix", "SampleSet",
    "ScaleError", "SingularBlockError", "SubsetTooSmallError", "UnknownNodeError",
    "build_block_graph", "canonical_edge", "check_identifiable", "extremal_coefficient",
    "extremal_coefficient_detailed", "extremal_graph_check", "fit_delta",
    "fit_delta_from_covariances", "gaussian_limit", "hr_cdf_detailed", "log_spacings",
    "mvn_cdf", "nnls_active_set", "nu_hr", "pareto_cdf", "pareto_cdf_detailed",
    "path_sum_matrix", "precision_matrix", "rank_transform", "recover_edge_params",
    "recover_path_sums", "sample_limit_field", "sample_pareto_conditioned", "std_normal_cdf",
    "stdf_hr_detailed", "validate_delta",
]

BLOCK_GRAPH_METHODS = [
    "clique_degree", "clique_of_edge", "cliques_at", "edges_sorted", "has_edge", "index",
    "parent_toward", "path_nodes", "shortest_path",
]


def test_public_surface():
    # submodules are left out: which of them are attributes depends on imports
    exported = sorted(name for name, value in vars(eb).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == EXPORTS
    # every error class the package defines is exported
    assert {name for name, value in vars(errors).items() if isinstance(value, type)} <= set(EXPORTS)
    methods = sorted(name for name in vars(eb.BlockGraph) if not name.startswith("_"))
    assert methods == BLOCK_GRAPH_METHODS
