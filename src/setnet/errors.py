"""Exception taxonomy shared across the library.

Every error the library raises on purpose derives from SetNetError. Each
class carries the exit code the CLI returns for it: 2 config/usage, 3 file
format, 4 numeric, 1 anything else.
"""


class SetNetError(Exception):
    """Base class for all library errors."""
    exit_code = 1


class DimensionError(SetNetError):
    """Shapes or sizes are incompatible with the requested operation."""
    exit_code = 2


class EmptyReductionError(SetNetError):
    """A reduction was requested over a zero-length axis or empty set."""
    exit_code = 2


class NumericError(SetNetError):
    """A non-finite value appeared, or a step was refused because of one."""
    exit_code = 4


class ContractError(SetNetError):
    """An API precondition was violated (e.g. backward from a non-scalar)."""
    exit_code = 2


class FormatError(SetNetError):
    """A file did not match its expected on-disk format."""
    exit_code = 3


class ConfigError(SetNetError):
    """An experiment or CLI configuration is invalid."""
    exit_code = 2


class DegenerateSetError(SetNetError):
    """A set is too small for the requested operation (e.g. normalize)."""
    exit_code = 2


class DegenerateMeshError(SetNetError):
    """A mesh has no sampleable area."""
    exit_code = 3
