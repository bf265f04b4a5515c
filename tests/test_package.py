import sys

import grasscoh
import grasscoh.cli  # noqa: F401  (imports every module that holds a memo)
from grasscoh import _backend, freepoly, partitions, ring
from grasscoh.freepoly import dual_class_closed, dual_class_recursive
from grasscoh.ring import RingContext, reduce_free


def test_backend_name_reported():
    assert _backend.backend_name() == "python"


def package_memos():
    return {f"{name}.{attr}": value
            for name, mod in list(sys.modules.items())
            if name.startswith("grasscoh") and mod is not None
            for attr, value in vars(mod).items()
            if hasattr(value, "cache_info")}


def test_clear_caches_empties_every_memo():
    reduce_free(dual_class_closed(6, 3), RingContext(3, 4))
    dual_class_recursive(5, 3)
    partitions.betti_numbers(3, 4)
    named = {ring._reduce_monomial, freepoly._dual_recursive,
             freepoly._dual_closed, partitions.count_in_box,
             _backend.kernel.vertical_strips}
    memos = package_memos()
    assert named <= set(memos.values())
    assert all(fn.cache_info().currsize > 0 for fn in named)
    grasscoh.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in memos.items()} == \
        dict.fromkeys(memos, 0)
