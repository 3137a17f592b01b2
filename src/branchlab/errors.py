"""Exception hierarchy shared by every branchlab module."""


class BranchLabError(Exception):
    """Base class for all branchlab errors."""


class FormatError(BranchLabError):
    """Stream does not carry the expected magic/header for the format."""


class CorruptTrace(BranchLabError):
    """Structurally invalid trace payload: bad ordering, truncation, bad fields."""


class ArgumentError(BranchLabError, ValueError):
    """An operation was called with an out-of-domain argument."""


class ConfigError(BranchLabError, ValueError):
    """Predictor configuration is inconsistent or unsatisfiable."""


class EmptyTargetError(BranchLabError):
    """The requested target ip, or any COND branch at all, never executes
    in the analyzed trace."""


class TrainingError(BranchLabError):
    """Helper-model training could not proceed (e.g. too few samples)."""


class CorruptModel(BranchLabError):
    """Model file failed structural or checksum validation."""
