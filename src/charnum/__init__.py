"""Exact enumerative invariants of curves: Gromov-Witten numbers via WDVV,
tangency descendants via topological recursions, and characteristic numbers
of plane and quadric curves in genus 0, 1, 2: all in exact rational
arithmetic."""

__version__ = "0.1.0"

from .descend import (
    DescendantEngine,
    DescendantSpec,
    genus0_tangency_potential,
    genus1_tangency_potential,
    reduce_special,
)
from .geometry import TargetGeometry, builtin_geometry, load_geometry
from .gw import GWTable, wdvv_solve
from .metric import PolyMatrix, deformed_metric, substitute_metric
from .planecurves import charnum_genus0, charnum_genus1, charnum_genus2
from .quadric import hurwitz, quadric_genus0, quadric_genus1
from .series import DiffOperator, Rat, SeriesTable, VarSpace, series_product

__all__ = [
    "Rat",
    "SeriesTable",
    "VarSpace",
    "DiffOperator",
    "series_product",
    "TargetGeometry",
    "builtin_geometry",
    "load_geometry",
    "PolyMatrix",
    "deformed_metric",
    "substitute_metric",
    "GWTable",
    "wdvv_solve",
    "DescendantSpec",
    "DescendantEngine",
    "reduce_special",
    "genus0_tangency_potential",
    "genus1_tangency_potential",
    "charnum_genus0",
    "charnum_genus1",
    "charnum_genus2",
    "hurwitz",
    "quadric_genus0",
    "quadric_genus1",
    "__version__",
]
