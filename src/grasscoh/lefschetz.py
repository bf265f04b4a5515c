"""Adams endomorphisms, Lefschetz numbers, and fixed-point-property verdicts.

Only Adams endomorphisms are modelled: degree-m action scales H^{2i} by
m^i.  Graded endomorphisms killing the degree-one generator are an open
problem and are deliberately not represented.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field

from .partitions import betti_numbers
from .ring import GrassElement, RingContext


def apply_adams(x: GrassElement, m: int) -> GrassElement:
    out = GrassElement.zero(x.context)
    for q in x.free.weights():
        out = out + GrassElement(x.context,
                                 x.free.homogeneous_component(q).scale(m ** q))
    return out


def lefschetz_number(m: int, ctx: RingContext) -> int:
    """Exact alternating-trace sum: all classes are even-dimensional, so
    the trace is sum of m^i * dim H^{2i}."""
    return sum((m ** i) * b for i, b in enumerate(betti_numbers(ctx.k, ctx.n)))


@dataclass
class PropositionReport:
    cells_checked: int
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def proposition_check(k_max: int, n_max: int, m_range) -> PropositionReport:
    """Exhaustively verify: Lefschetz number vanishes exactly for degree -1
    with kn odd."""
    if k_max < 1 or n_max < 1:
        raise ValueError("bounds must be >= 1")
    bad = []
    cells = 0
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            ctx = RingContext(k, n)
            for m in m_range:
                cells += 1
                lef = lefschetz_number(m, ctx)
                expected_zero = (m == -1 and (k * n) % 2 == 1)
                if (lef == 0) != expected_zero:
                    bad.append((k, n, m, lef))
    return PropositionReport(cells_checked=cells, counterexamples=bad)


CLASSIFIED_RANGE_RULE = "k<=3 and n>k, or k>3 and n>=2k^2-k-1"


def in_classified_range(k: int, n: int) -> bool:
    return (k <= 3 and n > k) or (k > 3 and n >= 2 * k * k - k - 1)


@dataclass(frozen=True)
class FppVerdict:
    status: str  # FPP | NoFPP | OutsideClassifiedRange
    lefschetz_table: dict
    range_rule: str = CLASSIFIED_RANGE_RULE


def fpp_classification(k: int, n: int, m_range=range(-5, 6)) -> FppVerdict:
    """Inside the classified range every selfmap induces an Adams
    endomorphism, so the f.p.p. holds exactly when kn is even.  Outside
    that range no verdict is claimed."""
    ctx = RingContext(k, n)
    table = {m: lefschetz_number(m, ctx) for m in m_range}
    if not in_classified_range(k, n):
        return FppVerdict("OutsideClassifiedRange", table)
    status = "FPP" if (k * n) % 2 == 0 else "NoFPP"
    return FppVerdict(status, table)


def sweep_csv(k_max: int, n_max: int, m_range=range(-5, 6)) -> str:
    """CSV sweep over the (k,n,m) grid, rows in lexicographic order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "m", "lefschetz", "kn_parity",
                     "in_classified_range", "verdict"])
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            verdict = fpp_classification(k, n, m_range)
            parity = "odd" if (k * n) % 2 else "even"
            in_range = in_classified_range(k, n)
            for m in sorted(m_range):
                writer.writerow([k, n, m, verdict.lefschetz_table[m],
                                 parity, str(in_range).lower(), verdict.status])
    return buf.getvalue()
