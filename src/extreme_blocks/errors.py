"""Exception hierarchy shared by all modules.

Two families make the CLI exit-code contract. Validation failures (bad
graphs, parameters, masks, domains) subclass ExtremeBlocksError directly
and exit with code 2. Numerical failures (singular blocks,
non-positive-definite covariances, MVN terms past the dimension cap, an
unconverged NNLS, inconsistent reconstructions) subclass NumericalError
and exit with code 3. Usage problems (bad flags, unparseable files)
never reach this module.
"""


class ExtremeBlocksError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class DisconnectedGraphError(ExtremeBlocksError):
    pass


class NotBlockGraphError(ExtremeBlocksError):
    """Some block (maximal biconnected component) is not complete."""

    def __init__(self, block, message=None):
        self.block = tuple(sorted(block))
        super().__init__(message or f"block {self.block} is not a clique")


class UnknownNodeError(ExtremeBlocksError):
    pass


class MissingEdgeParamError(ExtremeBlocksError):
    """Edge parameters do not cover exactly the edge set."""


class NonPositiveParamError(ExtremeBlocksError):
    pass


class NotCNDError(ExtremeBlocksError):
    """A clique matrix is not conditionally negative definite."""

    def __init__(self, clique):
        self.clique = tuple(sorted(clique))
        super().__init__(f"clique {self.clique} parameter matrix is not conditionally negative definite")


class AllZeroWeightsError(ExtremeBlocksError):
    pass


class NonPositiveCoordinateError(ExtremeBlocksError):
    pass


class SubsetTooSmallError(ExtremeBlocksError):
    pass


class ConstantColumnError(ExtremeBlocksError):
    pass


class KOutOfRangeError(ExtremeBlocksError):
    pass


class ScaleError(ExtremeBlocksError):
    """Sample set is on the wrong marginal scale for the operation."""


class NotIdentifiableError(ExtremeBlocksError):
    def __init__(self, offending):
        self.offending = tuple(sorted(offending))
        super().__init__(f"latent nodes with clique degree < 3: {', '.join(self.offending)}")


class NumericalError(ExtremeBlocksError):
    """Base for numerical failures; CLI maps these to exit code 3."""

    exit_code = 3


class NotPDError(NumericalError):
    pass


class DimensionCapError(NumericalError):
    """An MVN term has more dimensions than the lattice rule supports."""


class SingularBlockError(NumericalError):
    pass


class InconsistentInputError(NumericalError):
    """Reconstructed quantities disagree beyond tolerance."""
