"""Exception types shared across the package."""


class GFSBError(Exception):
    """Base class for all package-specific errors."""


# --- tree algebra ---

class UnitSymbol(GFSBError):
    """Regularity queried on the unit symbol, where it is undefined."""


class PreconditionViolated(GFSBError):
    """A stated hypothesis of a verification routine fails."""


# --- spectral core ---

class GridMismatch(GFSBError):
    """Binary field operation on fields living on different grids."""


class FormatError(GFSBError):
    """Corrupt or foreign binary snapshot."""


# --- dyadic / paraproduct toolkit ---

class BlockOutOfRange(GFSBError):
    """Dyadic block index outside the partition."""


class TimeGridMismatch(GFSBError):
    """Trajectory pair with incompatible time grids."""


# --- noise engine ---

class UnresolvedMollifier(GFSBError):
    """Grid too coarse to resolve the mollifier support."""


class ConfigMismatch(GFSBError):
    """Coupled sampling requested for configs differing beyond epsilon."""


# --- tree constructor ---

class NonuniformGrid(GFSBError):
    """Duhamel integration needs a uniform time grid."""


class ZeroModeK(GFSBError):
    """Covariance kernel queried at output mode k = 0."""


class DomainError(GFSBError):
    """Parameter outside the validity region of a closed form."""


# --- solvers ---

class BlowupDetected(GFSBError):
    """Solution exceeded the blow-up monitoring ceiling."""


class NoContraction(GFSBError):
    """Picard iteration failed to contract after slab refinement."""


class NonpositiveOrder(GFSBError):
    """Mittag-Leffler order must be positive."""


# --- harness ---

class ValidationError(GFSBError):
    """Experiment spec failed schema validation."""


class TaskFailure(GFSBError):
    """An experiment task failed; partial manifest attached."""

    def __init__(self, message, manifest=None):
        super().__init__(message)
        self.manifest = manifest


class IncompleteManifest(GFSBError):
    """Plot emission requested from an incomplete run manifest."""
