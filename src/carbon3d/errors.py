"""Typed errors and warnings raised by the carbon model.

Every malformed input raises one of the ValidationError subclasses with a
dotted ``path`` naming the offending key, so CLI users can locate the
problem in their config file.
"""

from __future__ import annotations

# the prefix of every error on finite inputs whose results leave the float range
_OUT_OF_RANGE = "inputs outside the model's numeric range: "


class CarbonModelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CarbonModelError):
    """Config/document validation failure, carries the document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class MissingField(ValidationError):
    pass


class InvalidCombination(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class UnknownNode(ValidationError):
    """A node name with no fixture; ``path`` names where the name came from."""

    def __init__(self, path: str, node: str, known: list[str]):
        self.node = node
        super().__init__(path, f"unknown node {node!r}; known: {', '.join(known)}")


class UnsupportedConfiguration(CarbonModelError):
    pass


class NonPositiveArea(CarbonModelError):
    pass


class CardinalityMismatch(CarbonModelError):
    pass


class DieLargerThanWafer(CarbonModelError):
    pass


class LayerCountExceedsProfile(CarbonModelError):
    pass


class UnresolvablePath(CarbonModelError):
    pass


class CapExceeded(CarbonModelError):
    pass


class NoCrossing(CarbonModelError):
    """Sign of the embodied-carbon difference never changes on the range."""


class CarbonModelWarning(UserWarning):
    """Non-fatal modeling notice (surveyed-range exceedance, DPW clamp...)."""
