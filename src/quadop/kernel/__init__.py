"""Echelon kernel selection: compiled extension if built, pure Python otherwise.

Set QUADOP_PURE=1 to force the pure-Python kernel even when the compiled one
is built, for example to compare the two end to end.  The twin-equivalence
tests import both modules directly and do not need it.
"""

import os

from . import _echelon_py

if os.environ.get("QUADOP_PURE"):
    _impl = _echelon_py
    BACKEND = "python"
else:
    try:
        from . import _echelon_cy as _impl
        BACKEND = "compiled"
    except ImportError:
        _impl = _echelon_py
        BACKEND = "python"

EchelonBasis = _impl.EchelonBasis
echelon_rows = _impl.echelon_rows
rank_of_rows = _impl.rank_of_rows

__all__ = ["EchelonBasis", "echelon_rows", "rank_of_rows", "BACKEND"]
