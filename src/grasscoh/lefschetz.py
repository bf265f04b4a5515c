"""Adams endomorphisms, Lefschetz numbers, and fixed-point-property verdicts.

Only Adams endomorphisms are modelled: degree-m action scales H^{2i} by
m^i.  Graded endomorphisms killing the degree-one generator are an open
problem and are deliberately not represented.
"""

from math import comb

from .freepoly import exact
from .partitions import betti_numbers, record
from .ring import RingContext, SchurClass


def apply_adams(x: SchurClass, m: int) -> SchurClass:
    """The degree-m Adams endomorphism: sigma_lam -> m^|lam| sigma_lam."""
    # the keys are x's own, checked when x was built
    return SchurClass._of(x.context, {lam: exact(m ** sum(lam) * c)
                                      for lam, c in x.terms.items()})


def _gaussian_column(m: int, n: int, k: int):
    """Yield [n+j, j]_m for j = 1..k, for m not 1 or -1: the partial
    products of prod_j (m^(n+j) - 1) / (m^j - 1), each from the one before
    by one exact division, since each is an integer."""
    lef = 1
    m_j = 1
    m_nj = m ** n
    for _ in range(k):
        m_j *= m
        m_nj *= m
        lef = lef * (m_nj - 1) // (m_j - 1)
        yield lef


def lefschetz_number(m: int, ctx: RingContext) -> int:
    """Exact alternating-trace sum.  All classes are even-dimensional, so
    the trace is sum of m^i * dim H^{2i}: the Gaussian binomial
    [k+n, k]_q at q = m, computed in closed form without the Betti row.

    L(1) = C(k+n, k), the Euler characteristic, and L(0) = 1.  L(-1) is 0
    when k and n are both odd and C(floor((k+n)/2), floor(k/2)) otherwise
    (the q-Lucas theorem at q = -1).  Any other m gives
    prod_{j=1..k} (m^(n+j) - 1) / (m^j - 1), taken over the shorter side
    of the box and divided step by step: each partial product is the
    integer [n+j, j]_m, the Lefschetz number of G(j, n), so one column walk
    gives a whole column of cells (`fpp_grid`).  Only the last is kept.
    """
    k, n = sorted(ctx)
    if m == 1:
        return comb(k + n, k)
    if m == -1:
        return 0 if k % 2 and n % 2 else comb((k + n) // 2, k // 2)
    for lef in _gaussian_column(m, n, k):
        pass
    return lef


@record
class PropositionReport(tuple):
    __slots__ = ()

    def __new__(cls, cells_checked, counterexamples=()):
        return tuple.__new__(cls, (cells_checked, counterexamples))

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def proposition_check(k_max: int, n_max: int, m_range) -> PropositionReport:
    """Exhaustively verify: Lefschetz number vanishes exactly for degree -1
    with kn odd, and equals the trace sum of m^i * b_i over the Betti row,
    a second path that shares no code with the closed form."""
    if k_max < 1 or n_max < 1:
        raise ValueError("bounds must be >= 1")
    bad = []
    cells = 0
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            ctx = RingContext(k, n)
            betti = betti_numbers(k, n)
            for m in m_range:
                cells += 1
                lef = lefschetz_number(m, ctx)
                expected_zero = (m == -1 and (k * n) % 2 == 1)
                trace = sum(m ** i * b for i, b in enumerate(betti))
                if (lef == 0) != expected_zero or lef != trace:
                    bad.append((k, n, m, lef))
    return PropositionReport(cells_checked=cells, counterexamples=bad)


def in_classified_range(k: int, n: int) -> bool:
    return (k <= 3 and n > k) or (k > 3 and n >= 2 * k * k - k - 1)


@record
class FppVerdict(tuple):
    """status is FPP, NoFPP or OutsideClassifiedRange."""
    __slots__ = ()

    def __new__(cls, status, lefschetz_table):
        return tuple.__new__(cls, (status, lefschetz_table))


def _verdict(k: int, n: int, table) -> FppVerdict:
    if not in_classified_range(k, n):
        return FppVerdict("OutsideClassifiedRange", table)
    return FppVerdict("FPP" if (k * n) % 2 == 0 else "NoFPP", table)


def fpp_classification(k: int, n: int, m_range=range(-5, 6)) -> FppVerdict:
    """Inside the classified range every selfmap induces an Adams
    endomorphism, so the f.p.p. holds exactly when kn is even.  Outside
    that range no verdict is claimed."""
    ctx = RingContext(k, n)
    return _verdict(k, n, {m: lefschetz_number(m, ctx) for m in m_range})


def fpp_grid(k_max: int, n_max: int, m_range) -> list:
    """`fpp_classification` of every box up to k_max x n_max, as a list of
    (k, n, verdict), k outer.

    For each n and each m other than 1 and -1, one column walk yields
    [n+j, j]_m = L(f_m) of G(j, n) for j = 1..k_max, a whole column of
    cells; the cells with j > n are right too, since [n+j, j]_m =
    [n+j, n]_m.  m = 1 and m = -1 are taken per cell from their closed
    forms in `lefschetz_number`.
    """
    tables = {(k, n): {} for k in range(1, k_max + 1)
              for n in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        for m in m_range:
            if m in (1, -1):
                for k in range(1, k_max + 1):
                    tables[k, n][m] = lefschetz_number(m, RingContext(k, n))
            else:
                for k, lef in enumerate(_gaussian_column(m, n, k_max), 1):
                    tables[k, n][m] = lef
    return [(k, n, _verdict(k, n, table)) for (k, n), table in tables.items()]
