"""Exact symbolic engine for the rational cohomology of complex
Grassmannians G(k,n): dual Chern classes, Schur-basis reduction, Adams
Lefschetz numbers, and nontrivial-intersection certificates."""

from . import partitions, ring
from .freepoly import FreeClass, dual_class_closed, dual_class_recursive, render_free
from .lefschetz import apply_adams, fpp_classification, lefschetz_number
from .obstruction import Certificate, dispatch_case, nontrivial_intersection_report
from .partitions import conjugate, multinomial, partitions_in_box, weight
from .ring import RingContext, SchurClass, giambelli, integrate, pairing, reduce_free

__version__ = "0.1.0"

__all__ = [
    "Certificate", "FreeClass", "RingContext", "SchurClass",
    "apply_adams", "backend_name", "clear_caches", "conjugate", "dispatch_case",
    "dual_class_closed", "dual_class_recursive", "fpp_classification",
    "giambelli", "integrate", "lefschetz_number", "multinomial",
    "nontrivial_intersection_report", "pairing", "partitions_in_box",
    "reduce_free", "render_free", "weight",
]

# every memo in the package; clear_caches() empties them all
_MEMOS = (ring.vertical_strips, ring._reduce_monomial, partitions.count_in_box)


def clear_caches():
    for memo in _MEMOS:
        memo.cache_clear()
    ring._products.clear()


def backend_name() -> str:
    return "python"
