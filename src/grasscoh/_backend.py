"""The pure-Python kernel and the registry of package memos."""

from . import _kernel_py

# perfbench/tracer.py wraps the kernel.* layers through this binding.
kernel = _kernel_py

_cache_clearers = []


def register_cache(clear_fn):
    _cache_clearers.append(clear_fn)
    return clear_fn


def clear_caches():
    for fn in _cache_clearers:
        fn()


register_cache(kernel.vertical_strips.cache_clear)


def backend_name() -> str:
    return kernel.NAME
