"""Exception types shared across the package."""


class VmfclError(Exception):
    """Base class for all package errors."""


class DegenerateFeature(VmfclError):
    """A feature vector with (near-)zero norm cannot be projected to the sphere."""


class DimensionError(VmfclError):
    """Operands do not share the required dimension."""


class UnknownClass(VmfclError):
    """A class id that the model has never observed."""


class EmptyModel(VmfclError):
    """Inference requested from a model with no classes."""


class NumericalError(VmfclError):
    """A loss or gradient evaluated to a non-finite value."""


class ModelRegression(VmfclError):
    """The current model lost a class that the previous-session snapshot had."""


class DegenerateMerge(VmfclError):
    """Merged cluster statistics cancel to a (near-)zero resultant vector."""


class ConfigError(VmfclError):
    """Invalid run/synthesis configuration."""


class ParseError(VmfclError):
    """Malformed VMFS stream file (the package reads no other binary format).

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InsufficientBudget(UserWarning):
    """Memory budget smaller than the number of observed classes."""
