"""Job catalogues and seeded job streams for the three workloads.

Every job a workload can draw is listed here, so the golden table
(`golden.tsv`) can hold an expected digest for each of them.  Nothing in
this module imports grasscoh: the inputs are built from the benchmark's
own definitions.

Cold workloads are stratified.  Each stratum (an expression family or a
CLI subcommand) is cut into bins of equal size by the cost recorded with
the golden table, and every round draws one job from every bin.  Rounds
therefore have the same cost profile whatever the seed, which keeps the
run-to-run spread of medians and tails small while the seed still picks
the concrete inputs.
"""

from __future__ import annotations

import random

# -- reduce-cold: `eval` in G(k,n), k in {3,4,5}, n <= 7 ----------------

REDUCE_KS = (3, 4, 5)
REDUCE_NS = range(3, 8)
# Largest exponent of the total class per k, and the largest weight
# a + b + k*j in cbar(a)*cbar(b)*(total)^j.  Both cap the heavy tail:
# cbar(7)*cbar(7)*(total)^3 in G(5,7) alone takes seconds.
POWER_MAX = {3: 12, 4: 9, 5: 7}
DUAL_PRODUCT_MAX_WEIGHT = {3: 23, 4: 20, 5: 16}
C1C2_MAX = 15


def total_class(k: int) -> str:
    return "(" + "+".join(["1"] + [f"c{i}" for i in range(1, k + 1)]) + ")"


def _eval(k: int, n: int, expr: str):
    return ["eval", "--k", str(k), "--n", str(n), expr]


def reduce_catalogue():
    """(stratum, argv) for every reduce-cold job."""
    out = []
    for k in REDUCE_KS:
        total = total_class(k)
        for n in REDUCE_NS:
            for m in range(1, POWER_MAX[k] + 1):
                out.append(("power", _eval(k, n, f"{total}^{m}")))
            for j in range(4):
                for a in range(1, n + 1):
                    for b in range(a, n + 1):
                        if a + b + k * j > DUAL_PRODUCT_MAX_WEIGHT[k]:
                            continue
                        expr = f"cbar({a})*cbar({b})"
                        if j:
                            expr += f"*{total}^{j}"
                        out.append(("dual-product", _eval(k, n, expr)))
            for m in range(1, C1C2_MAX + 1):
                out.append(("c1c2", _eval(k, n, f"(c1+c2)^{m}*c{k}")))
    return out


# -- certify-cold: obstruct, betti, lefschetz, fpp, dual ----------------

LEFSCHETZ_MS = (-2, -1, 2, 3)
# Caps the certificate tail: obstruct at k=10, n=55 takes a second and
# four times the memory of n=50.
OBSTRUCT_MAX_KN = 500


def certify_catalogue():
    """(stratum, argv) for every certify-cold job."""
    out = []
    for k in range(4, 11):
        for n in range(k + 1, min(55, OBSTRUCT_MAX_KN // k) + 1):
            out.append(("obstruct", ["obstruct", "--k", str(k), "--n", str(n)]))
    for k in range(8, 19):
        for n in range(8, 19):
            out.append(("betti", ["betti", "--k", str(k), "--n", str(n)]))
    for k in range(2, 13):
        for n in range(2, 13):
            for m in LEFSCHETZ_MS:
                out.append(("lefschetz", ["lefschetz", "--k", str(k), "--n", str(n),
                                          "--m", str(m)]))
    for fmt in ("text", "json"):
        for k_max in range(1, 9):
            for n_max in range(1, 13):
                out.append((f"fpp-{fmt}", ["--format", fmt, "fpp", "--k-max", str(k_max),
                                           "--n-max", str(n_max)]))
    for k in range(1, 7):
        for i in range(21):
            out.append(("dual", ["dual", "--k", str(k), "--i", str(i), "--method", "both"]))
    return out


# Bins per stratum: one job from each bin per round.
BINS = {
    "reduce-cold": {"power": 48, "dual-product": 96, "c1c2": 36},
    "certify-cold": {"obstruct": 60, "betti": 36, "lefschetz": 30, "fpp-text": 18,
                     "fpp-json": 18, "dual": 18},
}

CATALOGUES = {"reduce-cold": reduce_catalogue, "certify-cold": certify_catalogue}


def job_key(argv) -> str:
    return " ".join(argv)


def cold_bins(workload: str, costs: dict):
    """Bins of job keys per stratum, cut at equal counts of the recorded
    cost order.  `costs` maps job key to recorded milliseconds."""
    by_stratum = {}
    for stratum, argv in CATALOGUES[workload]():
        by_stratum.setdefault(stratum, []).append(argv)
    bins = []
    for stratum, nbins in BINS[workload].items():
        jobs = sorted(by_stratum[stratum], key=lambda a: (costs[job_key(a)], job_key(a)))
        for b in range(nbins):
            lo, hi = len(jobs) * b // nbins, len(jobs) * (b + 1) // nbins
            bins.append(jobs[lo:hi])
    return bins


def _van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


def cold_rounds(workload: str, costs: dict, seed: int):
    """Endless seeded stream of rounds; a round holds one job per bin.

    Each bin is walked in a seeded order without replacement.  Within a
    round the bins run in van der Corput order of their cost rank, so a
    run cut off mid-round still has the cost profile of a whole round."""
    rng = random.Random(f"{workload}:{seed}")
    bins = [list(b) for b in cold_bins(workload, costs)]
    for b in bins:
        rng.shuffle(b)
    ranked = sorted(range(len(bins)),
                    key=lambda i: sorted(costs[job_key(a)] for a in bins[i])[len(bins[i]) // 2])
    order = [ranked[r] for r in sorted(range(len(bins)), key=_van_der_corput)]
    r = 0
    while True:
        yield [bins[i][r % len(bins[i])] for i in order]
        r += 1


# -- session-warm: library calls in one long-lived process --------------

SESSION_RINGS = ((3, 5), (4, 4), (2, 8))
SESSION_OPS = ("schur_mul", "cup", "pairing", "adams")
ADAMS_DEGREES = (-3, -2, -1, 2, 3)


def box_partitions(k: int, n: int):
    """All partitions in the k x n box: by size, then lexicographically
    descending."""
    out = []

    def rec(rem, rows, cap, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if rows == 0:
            return
        for p in range(min(cap, rem), 0, -1):
            prefix.append(p)
            rec(rem - p, rows - 1, p, prefix)
            prefix.pop()

    for size in range(k * n + 1):
        rec(size, k, n, [])
    return out


def complement(lam, k: int, n: int):
    """Poincare-dual partition of lam in the k x n box."""
    padded = tuple(lam) + (0,) * (k - len(lam))
    return tuple(n - p for p in reversed(padded) if n - p > 0)


def sigma(lam) -> str:
    return f"sigma[{','.join(map(str, lam))}]"


def session_jobs(seed: int, purpose: str):
    """Endless seeded stream of session jobs (ring, op, a, b, m).

    Rings and operations rotate in a fixed cycle; the seed and `purpose`
    pick the basis classes and Adams degrees, so the warm-up pass
    (`purpose` 'warmup...') draws different arguments from the same rings
    as the timed pass."""
    rng = random.Random(f"session-warm:{seed}:{purpose}")
    bases = {ring: box_partitions(*ring) for ring in SESSION_RINGS}
    while True:
        for ring in SESSION_RINGS:
            basis = bases[ring]
            for op in SESSION_OPS:
                a = rng.choice(basis)
                b = rng.choice(basis)
                m = rng.choice(ADAMS_DEGREES)
                yield ring, op, a, b, m


def adams_expected(a, m) -> str:
    """Schur form of the degree-m Adams image of sigma_a: m^|a| sigma_a."""
    c = m ** sum(a)
    return f"{c}*{sigma(a)}" if c > 0 else f"- {-c}*{sigma(a)}"


def pairing_expected(ring, a, b) -> str:
    """Poincare duality: the pairing of two basis classes is 1 exactly
    when they are dual in the box, else 0."""
    return "1" if tuple(b) == complement(a, *ring) else "0"
