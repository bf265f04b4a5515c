"""The `kernel` binding that perfbench/tracer.py wraps: the strip and
exponent-vector enumerators, as the very function objects the package
calls.  No package module imports this one."""

from types import SimpleNamespace

from . import partitions, ring

kernel = SimpleNamespace(vertical_strips=ring.vertical_strips,
                         expvecs_of_weight=partitions.exponent_vectors_of_weight)
