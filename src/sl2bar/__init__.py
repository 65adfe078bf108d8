"""Exact algebra in the tower of binary fields, SL2 over its union, and an
exhaustive finite group verification engine."""

from . import errors
from .gf2_field import FieldElt
from .closure import ClosureElt

__all__ = ["errors", "FieldElt", "ClosureElt"]
__version__ = "0.1.0"
