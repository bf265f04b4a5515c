"""Command-line surface: one table of subcommands, `_COMMANDS`, read by
`_parse`.  Handlers print results to stdout and raise on failure;
`run_cli` alone turns an exception into a stderr line and an exit code."""

import sys
from math import comb, factorial, prod

from . import backend_name, obstruction
from .expr import ParseError, eval_expr, parse, render
from .freepoly import (MAX_DUAL_SIZE, dual_class_closed, dual_class_recursive,
                       render_free)
from .lefschetz import fpp_classification, lefschetz_number, proposition_check
from .partitions import betti_numbers
from .ring import RingContext

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_CHECK = 3

# The work budgets of betti, lefschetz and fpp (README, CLI section): an
# input past one is refused with exit 2 before any work starts.
_MAX_BETTI_CELLS = 90_000          # k*n
_MAX_LEFSCHETZ_DIGITS = 250_000    # k*n*digits(m), about the digits printed
_MAX_FPP_CELLS = 40_000            # k-max*n-max*(HI-LO+1)
_MAX_FPP_DIGITS = 40_000_000       # k*n*digits(m) summed over the sweep

USAGE = """\
usage: grasscoh [--format text|json|csv] <subcommand> [options]

  eval      --k K --n N EXPR          evaluate EXPR in G(k,n)
  dual      --k K --i I [--method closed|recursive|both]
                                      inverse total-class component cbar_i
  betti     --k K --n N               box-partition Betti numbers
  lefschetz --k K --n N --m M         Lefschetz number of the degree-m
                                      Adams endomorphism
  fpp       --k-max A --n-max B [--m-range LO:HI]
                                      fixed-point-property sweep over
                                      degrees LO..HI (default -5:5)
  obstruct  --k K --n N               nontrivial-intersection certificate
  selftest                            desk-scale invariant suites

Formats: text, json or csv for eval, betti and fpp; text or json for
lefschetz and obstruct; text only for dual and selftest.

Exit codes: 0 success, 1 usage or parse error, 2 evaluation error, 3 check failed."""


class _UsageError(Exception):
    pass


def _parse_m_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --m-range {text!r}, expected LO:HI")
    if lo > hi:
        raise _UsageError(f"bad --m-range {text!r}, LO > HI")
    return range(lo, hi + 1)


def _digits(m: int) -> int:
    return len(str(abs(m)))


def _cmd_eval(out, fmt, k, n, expression):
    ast = parse(expression)
    ctx = RingContext(k, n)
    # every class holds exponent vectors of k ints: dual's budget on k
    if k > MAX_DUAL_SIZE:
        raise ValueError(f"need k <= {MAX_DUAL_SIZE}, got k={k}")
    print(render(eval_expr(ast, ctx), ctx, fmt), file=out)


def _cmd_dual(out, fmt, k, i, method):
    if k < 1 or i < 0:
        raise ValueError("need k >= 1 and i >= 0")
    if method != "both":
        # only the chosen class: the other one could cost more than it
        build = dual_class_closed if method == "closed" else dual_class_recursive
        print(render_free(build(i, k)), file=out)
        return
    closed, recursive = dual_class_closed(i, k), dual_class_recursive(i, k)
    print(f"closed:    {render_free(closed)}", file=out)
    print(f"recursive: {render_free(recursive)}", file=out)
    if closed != recursive:
        print("MISMATCH", file=out)
        raise AssertionError(f"closed and recursive cbar_{i} differ")
    print("MATCH", file=out)


def _cmd_betti(out, fmt, k, n):
    RingContext(k, n)  # checks k, n >= 1
    if k * n > _MAX_BETTI_CELLS:
        raise ValueError(f"need k*n <= {_MAX_BETTI_CELLS}, got k*n={k * n}")
    betti = betti_numbers(k, n)
    if fmt == "json":
        import json
        print(json.dumps({"k": k, "n": n, "betti": betti,
                          "total": sum(betti)}), file=out)
    elif fmt == "csv":
        print("i,betti", file=out)
        for i, b in enumerate(betti):
            print(f"{i},{b}", file=out)
    else:
        for i, b in enumerate(betti):
            print(f"b_{i} = {b}", file=out)
        print(f"total = {sum(betti)}", file=out)


def _cmd_lefschetz(out, fmt, k, n, m):
    ctx = RingContext(k, n)
    size = k * n * _digits(m)
    if size > _MAX_LEFSCHETZ_DIGITS:
        raise ValueError(f"need k*n*digits(m) <= {_MAX_LEFSCHETZ_DIGITS}, "
                         f"got {size}")
    lef = lefschetz_number(m, ctx)
    if fmt == "json":
        import json
        print(json.dumps({"k": k, "n": n, "m": m,
                          "lefschetz": str(lef)}), file=out)
    else:
        print(lef, file=out)


def _cmd_fpp(out, fmt, k_max, n_max, m_range):
    m_range = _parse_m_range(m_range)
    if k_max < 1 or n_max < 1:
        raise ValueError("need positive bounds")
    cells = k_max * n_max * (m_range.stop - m_range.start)
    if cells > _MAX_FPP_CELLS:
        raise ValueError(f"need k-max*n-max*(HI-LO+1) <= {_MAX_FPP_CELLS}, "
                         f"got {cells}")
    # sum of k*n*digits(m) over the grid, the digits it prints
    size = (k_max * (k_max + 1) // 2 * n_max * (n_max + 1) // 2
            * sum(map(_digits, m_range)))
    if size > _MAX_FPP_DIGITS:
        raise ValueError(f"need the sum of k*n*digits(m) <= {_MAX_FPP_DIGITS}, "
                         f"got {size}")
    grid = [(k, n, fpp_classification(k, n, m_range))
            for k in range(1, k_max + 1) for n in range(1, n_max + 1)]
    if fmt == "json":
        import json
        print(json.dumps([{"k": k, "n": n, "status": verdict.status,
                           "lefschetz": {str(m): verdict.lefschetz_table[m]
                                         for m in m_range}}
                          for k, n, verdict in grid]), file=out)
        return
    # text and csv: one row per (k, n, m), m ascending
    rows = ["k,n,m,lefschetz,kn_parity,in_classified_range,verdict\n"]
    for k, n, verdict in grid:
        parity = "odd" if (k * n) % 2 else "even"
        in_range = str(verdict.status != "OutsideClassifiedRange").lower()
        for m in m_range:
            rows.append(f"{k},{n},{m},{verdict.lefschetz_table[m]},"
                        f"{parity},{in_range},{verdict.status}\n")
    out.write("".join(rows))


def _cmd_obstruct(out, fmt, k, n):
    import json
    cert = obstruction.nontrivial_intersection_report(k, n)
    alpha, coeff = cert.witness_monomial, cert.witness_coefficient
    if fmt == "json":
        # tuples print as JSON arrays
        print(json.dumps({
            "case": cert.case_tag, "k": cert.k, "n": cert.n,
            "witness": None if alpha is None else {"alpha": alpha},
            "coefficient": None if coeff is None else str(coeff),
            "assumptions": cert.assumptions, "search_log": cert.search_log}),
            file=out)
        return
    print(f"case: {cert.case_tag}  (k={cert.k}, n={cert.n})", file=out)
    if alpha is not None:
        print(f"witness: {list(alpha)} coefficient {coeff}", file=out)
    if cert.search_log is not None:
        print(f"search_log: {json.dumps(cert.search_log, sort_keys=True)}",
              file=out)
    print(f"assumptions: {', '.join(cert.assumptions)}", file=out)


def _selftest_suites():
    from .partitions import (conjugate, exponent_vectors_of_weight,
                             multinomial, partitions_in_box, weight)
    from .ring import SchurClass, integrate, reduce_free
    from .freepoly import FreeClass, total_chern

    def lemma_equivalence():
        return all(dual_class_closed(i, k) == dual_class_recursive(i, k)
                   for k in range(1, 5) for i in range(9))

    def x_beta_identity():
        # |beta|!/beta! is the sum of |beta - e_i|!/(beta - e_i)! over
        # beta_i > 0; and, which a multinomial of 0 would fail, m!/1!^m = m!
        # and m!/m! = 1
        return all(sum(multinomial(beta[:i] + (b - 1,) + beta[i + 1:])
                       for i, b in enumerate(beta) if b) == multinomial(beta)
                   for k in range(1, 5) for w in range(1, 7)
                   for beta in exponent_vectors_of_weight(w, k)) and all(
            multinomial((1,) * m) == factorial(m) and multinomial((m,)) == 1
            for m in range(7))

    def ideal_relations():
        # the relations vanish; and, which a reduction sending every class to
        # zero would fail, sigma_1^(kn) integrates to the degree of G(k,n),
        # (kn)! prod_{i<k} i!/(n+i)!
        boxes = [RingContext(k, n) for k in range(1, 4) for n in range(k + 1, 6)]
        return all(reduce_free(dual_class_closed(c.n + j, c.k), c).is_zero()
                   for c in boxes for j in range(1, c.k + 1)) and all(
            integrate(reduce_free(FreeClass.generator(c.k, 1).power(c.k * c.n), c))
            * prod(factorial(c.n + i) for i in range(c.k))
            == factorial(c.k * c.n) * prod(map(factorial, range(c.k)))
            for c in boxes)

    def whitney():
        # c * cbar = 1 degree by degree; and, which a reduction sending every
        # class to zero would fail, c_i -> sigma[1^i] and cbar_i -> (-1)^i sigma[i]
        for k in range(1, 4):
            for n in range(k + 1, 6):
                ctx = RingContext(k, n)
                duals = [dual_class_closed(i, k) for i in range(n + 1)]
                product = total_chern(k) * sum(duals[1:], start=duals[0])
                if not all(reduce_free(product.homogeneous_component(j), ctx).is_zero()
                           for j in range(1, n + k + 1)):
                    return False
                if any(reduce_free(FreeClass.generator(k, i), ctx)
                       != SchurClass(ctx, {(1,) * i: 1}) for i in range(1, k + 1)):
                    return False
                if any(reduce_free(duals[i], ctx) != SchurClass(ctx, {(i,): (-1) ** i})
                       for i in range(1, n + 1)):
                    return False
        return True

    def betti_counts():
        for k in range(1, 5):
            for n in range(1, 5):
                counts = [len(partitions_in_box(i, k, n))
                          for i in range(k * n + 1)]
                if counts != betti_numbers(k, n):
                    return False
                if sum(counts) != comb(k + n, k):
                    return False
        return True

    def lefschetz_criterion():
        return proposition_check(6, 6, range(-3, 4)).passed

    def certificates():
        # the cited results each case rests on, written out here rather than
        # read from `obstruction`, so a certificate that drops one fails
        adams, omits = "GH3-Thm1-Adams", "witness-absent-from-induced-product"
        leading = "ctilde-t-leading-coefficients-one"
        tags = {"Case1": ["ONeill-GH3-low-rank-Adams"],
                "Case2i": [adams, omits], "Case2ii": [adams, omits],
                "Case2iii": [adams, leading], "Case2iv": [adams, leading]}
        for k in range(2, 6):
            for n in range(k + 1, 11):
                cert = obstruction.nontrivial_intersection_report(k, n)
                alpha = cert.witness_monomial
                if alpha is None:
                    ok = (cert.search_log is not None
                          and not cert.search_log.get("solutions"))
                else:
                    ok = weight(alpha) == n and cert.witness_coefficient not in (None, 0)
                if not ok or list(cert.assumptions) != tags.get(cert.case_tag):
                    return False
        return True

    def conjugate_involution():
        # an involution, and, which the identity would fail, the column
        # counts lam'_j = #{i : lam_i >= j}
        return all(conjugate(conjugate(lam)) == lam and conjugate(lam) ==
                   tuple(sum(p >= j for p in lam)
                         for j in range(1, max(lam, default=0) + 1))
                   for k in range(1, 5) for n in range(1, 5)
                   for i in range(k * n + 1) for lam in partitions_in_box(i, k, n))

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


def _cmd_selftest(out, fmt):
    # a suite that raises fails alone: its error goes to stderr, and the
    # remaining suites still run
    failed = []
    print(f"backend: {backend_name()}", file=out)
    for name, fn in _selftest_suites():
        try:
            ok = fn()
        except Exception as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        print(f"{name}: {'PASS' if ok else 'FAIL'}", file=out)
        if not ok:
            failed.append(name)
    if failed:
        raise AssertionError(f"selftest suites failed: {', '.join(failed)}")


# subcommand: (handler, its int options, all required; its other options
# with their defaults; whether it takes EXPR; the --format values it prints)
_COMMANDS = {
    "eval": (_cmd_eval, ("k", "n"), {}, True, ("text", "json", "csv")),
    "dual": (_cmd_dual, ("k", "i"), {"method": "closed"}, False, ("text",)),
    "betti": (_cmd_betti, ("k", "n"), {}, False, ("text", "json", "csv")),
    "lefschetz": (_cmd_lefschetz, ("k", "n", "m"), {}, False, ("text", "json")),
    "fpp": (_cmd_fpp, ("k-max", "n-max"), {"m-range": "-5:5"}, False,
            ("text", "json", "csv")),
    "obstruct": (_cmd_obstruct, ("k", "n"), {}, False, ("text", "json")),
    "selftest": (_cmd_selftest, (), {}, False, ("text",)),
}


# the options that take one of a few words
_CHOICES = {"format": ("text", "json", "csv"),
            "method": ("closed", "recursive", "both")}


def _option(token, tokens, ints, others):
    """(name, value) of one option, `--name=value` or `--name value`: an
    int if the name is in ints, else a string, one of its _CHOICES if it
    has them."""
    name, eq, value = token[2:].partition("=")
    if name not in ints and name not in others:
        raise _UsageError(f"unknown option --{name}")
    if not eq:
        value = next(tokens, None)
        if value is None:
            raise _UsageError(f"--{name} needs a value")
    if name in ints:
        try:
            return name, int(value)
        except ValueError:
            raise _UsageError(f"--{name}: invalid int {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise _UsageError(f"bad --{name} {value!r}")
    return name, value


def _parse(argv):
    """(subcommand, keyword arguments of its handler) read from argv
    against _COMMANDS; the README lists the argv forms it accepts."""
    tokens = iter(argv)
    fmt, command = "text", next(tokens, None)
    while command is not None and command.startswith("--"):
        _, fmt = _option(command, tokens, (), ("format",))
        command = next(tokens, None)
    if command not in _COMMANDS:
        raise _UsageError(f"unknown subcommand {command!r}")
    _, ints, others, takes_expr, formats = _COMMANDS[command]
    if fmt not in formats:
        raise _UsageError(f"{command} has no --format {fmt}")
    values, words = dict(others, fmt=fmt), []
    for token in tokens:
        if token == "--":
            words += tokens
        elif token.startswith("--"):
            name, value = _option(token, tokens, ints, others)
            values[name] = value
        else:
            words.append(token)
    missing = [f"--{name}" for name in ints if name not in values]
    if missing:
        raise _UsageError(f"{command} needs {' '.join(missing)}")
    if len(words) != takes_expr:
        raise _UsageError(f"{command} takes {int(takes_expr)} EXPR, got {words}")
    if takes_expr:
        values["expression"] = words[0]
    return command, {name.replace("-", "_"): value for name, value in values.items()}


def run_cli(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    # exact integers print and parse at any length (CPython 3.10.7 and
    # later cap int <-> str conversion at 4,300 digits by default)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if "-h" in argv or "--help" in argv:
        print(USAGE, file=out)
        return EXIT_OK
    try:
        command, kwargs = _parse(argv)
        _COMMANDS[command][0](out, **kwargs)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    # EvalError, HypothesisError and RingContext's range check among them
    except ValueError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except MemoryError:
        print("evaluation error: out of memory", file=sys.stderr)
        return EXIT_EVAL
    except AssertionError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        # a buffered stdout can raise here, not only inside run_cli
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull and exit 0, the reader having chosen to stop
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
