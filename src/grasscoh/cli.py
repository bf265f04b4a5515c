"""Command-line surface.

Exit codes: 0 success, 1 usage or parse error, 2 evaluation error,
3 selftest or certificate failure.  Diagnostics go to stderr, results to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import backend_name, obstruction
from .expr import EvalError, ParseError, eval_expr, parse, render
from .freepoly import dual_class_closed, dual_class_recursive, render_free
from .lefschetz import fpp_classification, lefschetz_number, proposition_check, sweep_csv
from .partitions import betti_numbers, total_boxes_count
from .ring import RingContext

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_CHECK = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="grasscoh",
                description="Exact Schubert-calculus engine for H*(G(k,n); Q)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an expression in G(k,n)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("expression")

    sp = sub.add_parser("dual", help="inverse total-class component cbar_i")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--method", choices=["closed", "recursive", "both"],
                    default="closed")

    sp = sub.add_parser("betti", help="box-partition Betti numbers")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("lefschetz", help="Lefschetz number of the degree-m "
                                          "Adams endomorphism")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("fpp", help="fixed-point-property sweep")
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--m-range", default="-5:5")

    sp = sub.add_parser("obstruct", help="nontrivial-intersection certificate")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sub.add_parser("selftest", help="run the desk-scale invariant suites")
    return p


def _parse_m_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --m-range {text!r}, expected LO:HI")
    if lo > hi:
        raise _UsageError(f"bad --m-range {text!r}, LO > HI")
    return range(lo, hi + 1)


def _cmd_eval(args, out) -> int:
    try:
        ast = parse(args.expression)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        ctx = RingContext(args.k, args.n)
        value = eval_expr(ast, ctx)
    except (EvalError, ValueError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    print(render(value, ctx, args.format), file=out)
    return EXIT_OK


def _cmd_dual(args, out) -> int:
    if args.k < 1 or args.i < 0:
        print("evaluation error: need k >= 1 and i >= 0", file=sys.stderr)
        return EXIT_EVAL
    closed = dual_class_closed(args.i, args.k)
    if args.method == "closed":
        print(render_free(closed), file=out)
        return EXIT_OK
    recursive = dual_class_recursive(args.i, args.k)
    if args.method == "recursive":
        print(render_free(recursive), file=out)
        return EXIT_OK
    print(f"closed:    {render_free(closed)}", file=out)
    print(f"recursive: {render_free(recursive)}", file=out)
    if closed == recursive:
        print("MATCH", file=out)
        return EXIT_OK
    print("MISMATCH", file=out)
    return EXIT_CHECK


def _cmd_betti(args, out) -> int:
    if args.k < 1 or args.n < 1:
        print("evaluation error: need k, n >= 1", file=sys.stderr)
        return EXIT_EVAL
    betti = betti_numbers(args.k, args.n)
    if args.format == "json":
        print(json.dumps({"k": args.k, "n": args.n, "betti": betti,
                          "total": sum(betti)}), file=out)
    elif args.format == "csv":
        print("i,betti", file=out)
        for i, b in enumerate(betti):
            print(f"{i},{b}", file=out)
    else:
        for i, b in enumerate(betti):
            print(f"b_{i} = {b}", file=out)
        print(f"total = {sum(betti)}", file=out)
    return EXIT_OK


def _cmd_lefschetz(args, out) -> int:
    if args.k < 1 or args.n < 1:
        print("evaluation error: need k, n >= 1", file=sys.stderr)
        return EXIT_EVAL
    lef = lefschetz_number(args.m, RingContext(args.k, args.n))
    if args.format == "json":
        print(json.dumps({"k": args.k, "n": args.n, "m": args.m,
                          "lefschetz": str(lef)}), file=out)
    else:
        print(lef, file=out)
    return EXIT_OK


def _cmd_fpp(args, out) -> int:
    m_range = _parse_m_range(args.m_range)
    if args.k_max < 1 or args.n_max < 1:
        print("evaluation error: need positive bounds", file=sys.stderr)
        return EXIT_EVAL
    if args.format == "json":
        rows = []
        for k in range(1, args.k_max + 1):
            for n in range(1, args.n_max + 1):
                verdict = fpp_classification(k, n, m_range)
                rows.append({"k": k, "n": n, "status": verdict.status,
                             "lefschetz": {str(m): verdict.lefschetz_table[m]
                                           for m in m_range}})
        print(json.dumps(rows), file=out)
    else:
        out.write(sweep_csv(args.k_max, args.n_max, m_range))
    return EXIT_OK


def _cmd_obstruct(args, out) -> int:
    try:
        cert = obstruction.nontrivial_intersection_report(args.k, args.n)
    except obstruction.HypothesisError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except AssertionError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    if args.format == "text":
        obj = cert.to_obj()
        print(f"case: {obj['case']}  (k={obj['k']}, n={obj['n']})", file=out)
        if obj["witness"] is not None:
            print(f"witness: {obj['witness']['alpha']} "
                  f"coefficient {obj['coefficient']}", file=out)
        if obj["search_log"] is not None:
            print(f"search_log: {json.dumps(obj['search_log'], sort_keys=True)}",
                  file=out)
        print(f"assumptions: {', '.join(obj['assumptions'])}", file=out)
    else:
        print(cert.to_json(), file=out)
    return EXIT_OK


def _selftest_suites():
    from .partitions import (conjugate, exponent_vectors_of_weight,
                             multinomial, partitions_in_box)
    from .ring import reduce_free
    from .freepoly import total_chern

    def lemma_equivalence():
        for k in range(1, 5):
            for i in range(9):
                if dual_class_closed(i, k) != dual_class_recursive(i, k):
                    return False
        return True

    def x_beta_identity():
        for k in range(1, 5):
            for w in range(1, 7):
                for beta in exponent_vectors_of_weight(w, k):
                    total = 0
                    for i, b in enumerate(beta):
                        if b:
                            shifted = list(beta)
                            shifted[i] -= 1
                            total += multinomial(shifted)
                    if total != multinomial(beta):
                        return False
        return True

    def ideal_relations():
        for k in range(1, 4):
            for n in range(k + 1, 6):
                ctx = RingContext(k, n)
                for j in range(1, k + 1):
                    if not reduce_free(dual_class_closed(n + j, k), ctx).is_zero():
                        return False
        return True

    def whitney():
        for k in range(1, 4):
            for n in range(k + 1, 6):
                ctx = RingContext(k, n)
                total = total_chern(k)
                dual = sum((dual_class_closed(i, k) for i in range(1, n + 1)),
                           start=dual_class_closed(0, k))
                prod = total * dual
                for j in range(1, n + k + 1):
                    comp = prod.homogeneous_component(j)
                    if not reduce_free(comp, ctx).is_zero():
                        return False
        return True

    def betti_counts():
        for k in range(1, 5):
            for n in range(1, 5):
                counts = [len(partitions_in_box(i, k, n))
                          for i in range(k * n + 1)]
                if counts != betti_numbers(k, n):
                    return False
                if sum(counts) != total_boxes_count(k, n):
                    return False
        return True

    def lefschetz_criterion():
        return proposition_check(6, 6, range(-3, 4)).passed

    def certificates():
        for k in range(2, 6):
            for n in range(k + 1, 11):
                cert = obstruction.nontrivial_intersection_report(k, n)
                has_witness = (cert.witness_coefficient is not None
                               and cert.witness_coefficient != 0)
                has_log = (cert.search_log is not None
                           and not cert.search_log.get("solutions"))
                if not (has_witness or has_log):
                    return False
        return True

    def conjugate_involution():
        for k in range(1, 5):
            for n in range(1, 5):
                for i in range(k * n + 1):
                    for lam in partitions_in_box(i, k, n):
                        if conjugate(conjugate(lam)) != lam:
                            return False
        return True

    return [
        ("lemma-equivalence", lemma_equivalence),
        ("x-beta-identity", x_beta_identity),
        ("ideal-relations", ideal_relations),
        ("whitney", whitney),
        ("betti-counts", betti_counts),
        ("lefschetz-criterion", lefschetz_criterion),
        ("certificates", certificates),
        ("conjugate-involution", conjugate_involution),
    ]


def _cmd_selftest(args, out) -> int:
    failures = 0
    print(f"backend: {backend_name()}", file=out)
    for name, fn in _selftest_suites():
        ok = fn()
        print(f"{name}: {'PASS' if ok else 'FAIL'}", file=out)
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_CHECK


_COMMANDS = {
    "eval": _cmd_eval,
    "dual": _cmd_dual,
    "betti": _cmd_betti,
    "lefschetz": _cmd_lefschetz,
    "fpp": _cmd_fpp,
    "obstruct": _cmd_obstruct,
    "selftest": _cmd_selftest,
}


def run_cli(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    # exact integers print and parse at any length (CPython 3.10.7 and
    # later cap int <-> str conversion at 4,300 digits by default)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    # merge "--m-range -5:5" into one token so argparse does not mistake
    # the leading minus for an option
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--m-range" and i + 1 < len(argv):
            merged.append(f"--m-range={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    try:
        args = parser.parse_args(merged)
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse exits after printing -h/--help
        return exc.code or EXIT_OK


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
