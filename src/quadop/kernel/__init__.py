"""Sparse fraction-free echelon kernel over exact rationals (pure Python)."""

from ._echelon_py import EchelonBasis, echelon_rows

BACKEND = "python"

__all__ = ["EchelonBasis", "echelon_rows", "BACKEND"]
