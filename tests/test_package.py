import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import grasscoh
import grasscoh.cli  # noqa: F401  (imports every module that holds a memo)
from grasscoh import partitions, ring
from grasscoh.freepoly import dual_class_closed, dual_class_recursive
from grasscoh.ring import RingContext, reduce_free

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_backend_name_reported():
    assert grasscoh.backend_name() == "python"


def package_memos():
    return {f"{name}.{attr}": value
            for name, mod in list(sys.modules.items())
            if name.startswith("grasscoh") and mod is not None
            for attr, value in vars(mod).items()
            if hasattr(value, "cache_info")}


def test_clear_caches_empties_every_memo():
    reduce_free(dual_class_closed(6, 3), RingContext(3, 4))
    dual_class_recursive(5, 3)
    partitions.count_in_box(5, 3, 4)
    ring.giambelli((2, 1), 3)
    ctx = RingContext(3, 4)
    ring.schur_mul(ring.SchurClass(ctx, {(2,): 1}), ring.SchurClass(ctx, {(1,): 1}))
    named = {ring._reduce_monomial, partitions.count_in_box,
             ring.vertical_strips}
    memos = package_memos()
    assert named <= set(memos.values())
    assert all(fn.cache_info().currsize > 0 for fn in named)
    assert ring._products[ctx]
    grasscoh.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in memos.items()} == \
        dict.fromkeys(memos, 0)
    assert not ring._products


def test_betti_rows_keep_no_state():
    # each call computes its row afresh: no memo fills, and a row that the
    # caller changes is not the next call's row
    grasscoh.clear_caches()
    boxes = [(0, 5), (4, 0), (1, 1), (2, 3), (3, 4), (6, 5), (40, 40)]
    rows = [partitions.betti_numbers(k, n) for k, n in boxes]
    memos = package_memos()
    assert {name: fn.cache_info().currsize for name, fn in memos.items()} == \
        dict.fromkeys(memos, 0)
    for (k, n), row in zip(boxes, rows):
        want = row.copy()
        row[0] += 1
        assert partitions.betti_numbers(k, n) == want


def test_memo_matches_functools_lru_cache():
    # the tracer's memo metrics read cache_info(): the package's memo must
    # count as functools.lru_cache does, call for call, so a change to the
    # C cache under it fails here instead of moving those metrics
    import functools

    def boxed(x, y=0):
        return [x, y]          # a fresh object per miss, so a hit shows

    ours = partitions.memo(boxed)
    theirs = functools.lru_cache(maxsize=None)(boxed)
    assert type(ours) is type(theirs) and ours.__wrapped__ is boxed

    def replay(fn):
        seen = {}
        steps = []
        for args in [(3,), (4,), (3,), (3, 1), (3,), (5,), (4,), (3, 1)]:
            result = fn(*args)
            hit = args in seen
            steps.append((result, hit and result is seen[args],
                          fn.cache_info()._asdict()))
            seen.setdefault(args, result)
        return steps

    for _ in range(2):         # the second pass follows a cache_clear()
        steps = replay(ours)
        assert steps == replay(theirs)
        assert [same for _, same, _ in steps] == \
            [False, False, True, False, True, False, True, True]
        assert tuple(ours.cache_info()) == tuple(theirs.cache_info()) == \
            (4, 4, None, 4)
        ours.cache_clear(), theirs.cache_clear()
        assert ours.cache_info() == theirs.cache_info() == (0, 0, None, 0)
    assert partitions.CacheInfo._fields == ("hits", "misses", "maxsize",
                                            "currsize")


def load_tracer():
    """perfbench/tracer.py, imported from its file and never modified."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_session_harness_runs_clean():
    # perfbench/session.py drives the package through its element API,
    # the compatibility names included; a broken name is a failed job
    done = subprocess.run([sys.executable, "-I", "-S",
                           str(ROOT / "perfbench" / "session.py"), str(ROOT),
                           "1", "0", "trace0", "5"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["jobs"], report["failed"], report["failures"]) == (60, 0, [])


def test_tracer_hooks_resolve():
    # the benchmark's per-layer metrics read null for a name that is gone
    tracer = load_tracer()
    missing = [entry for entry in tracer.SPANNED + tracer.COUNTED
               if not callable(tracer._resolve(*entry[1:])[1])]
    assert not missing
    memos = [(prefix, tracer._resolve(module, None, attr)[1])
             for prefix, module, attr in tracer.MEMOS]
    assert [prefix for prefix, fn in memos if not hasattr(fn, "cache_info")] == []


def test_tracer_kernel_binding_is_the_called_functions():
    # the tracer swaps functions by identity: a copy would silently count 0
    from grasscoh import _backend
    assert _backend.kernel.vertical_strips is ring.vertical_strips
    assert _backend.kernel.expvecs_of_weight is partitions.exponent_vectors_of_weight


def test_package_does_not_import_the_tracer_binding():
    # nor the record machinery: records are tuple subclasses and plain classes;
    # nor argparse, nor fractions, which only a rational input needs
    modules = ("grasscoh._backend", "grasscoh._kernel_py",
               "dataclasses", "inspect", "typing", "csv", "argparse", "fractions")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import grasscoh.cli; "
             "print(sorted(m for m in sys.argv[2:] if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC),
                           *modules],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("module", ["grasscoh", "grasscoh.cli"])
def test_library_import_loads_no_json(module):
    # the library returns values; only the writers that print JSON, in cli
    # and expr.render, import json, and cli imports os only for a closed
    # stdout, so a plain import pays for none of json, re, enum and os; the
    # memos and records rest on _functools and _operator, so none of
    # functools, collections, types, operator or __future__ loads either
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             f"import {module}; "
             "print(sorted(m for m in ('json', 're', 'enum', 'os', "
             "'functools', 'collections', 'types', 'operator', '__future__') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
