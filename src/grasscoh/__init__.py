"""Exact symbolic engine for the rational cohomology of complex
Grassmannians G(k,n): dual Chern classes, Schur-basis reduction, Adams
Lefschetz numbers, and nontrivial-intersection certificates."""

from ._backend import backend_name, clear_caches
from .freepoly import FreeClass, dual_class_closed, dual_class_recursive, render_free
from .lefschetz import apply_adams, fpp_classification, lefschetz_number
from .obstruction import Certificate, dispatch_case, nontrivial_intersection_report
from .partitions import conjugate, multinomial, partitions_in_box, weight
from .ring import (GrassElement, RingContext, SchurClass, giambelli, integrate,
                   pairing, reduce_free)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "FreeClass", "GrassElement", "RingContext", "SchurClass",
    "apply_adams", "backend_name", "clear_caches", "conjugate", "dispatch_case",
    "dual_class_closed", "dual_class_recursive", "fpp_classification",
    "giambelli", "integrate", "lefschetz_number", "multinomial",
    "nontrivial_intersection_report", "pairing", "partitions_in_box",
    "reduce_free", "render_free", "weight",
]
