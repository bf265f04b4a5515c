"""Pure-Python kernels for the hot inner loops."""

from functools import lru_cache

NAME = "python"


def expvecs_of_weight(w, k):
    """Length-k tuples (a_1..a_k) with sum i*a_i == w, deterministic order."""
    out = []
    vec = [0] * k

    def rec(rem, i):
        if i == 1:
            vec[0] = rem
            out.append(tuple(vec))
            vec[0] = 0
            return
        for a in range(rem // i, -1, -1):
            vec[i - 1] = a
            rec(rem - a * i, i - 1)
        vec[i - 1] = 0

    if k >= 1 and w >= 0:
        rec(w, k)
    elif w == 0:
        out.append(())
    return out


@lru_cache(maxsize=None)
def vertical_strips(parts, size, max_rows, max_part):
    """Partitions obtained from `parts` by adding a vertical strip of
    `size` boxes (at most one box per row), pruned to the
    max_rows x max_part box.  Deterministic order.  Memoised, so the
    result is a shared tuple."""
    nrows = len(parts)
    if nrows > max_rows:
        return ()
    lam = list(parts) + [0] * (max_rows - nrows)
    out = []
    mu = [0] * max_rows

    def rec(row, left, prev):
        # prev = value of mu[row-1]; adding at most one box per row
        if left == 0:
            res = lam[row:]
            cand = tuple(mu[:row]) + tuple(res)
            # remaining rows unchanged; still decreasing since mu[row-1] >= lam[row-1] >= lam[row]
            while cand and cand[-1] == 0:
                cand = cand[:-1]
            out.append(cand)
            return
        if row == max_rows or left > max_rows - row:
            return
        up = lam[row] + 1
        if up <= prev and up <= max_part:
            mu[row] = up
            rec(row + 1, left - 1, up)
        mu[row] = lam[row]
        rec(row + 1, left, lam[row])

    if parts and parts[0] > max_part:
        return ()
    rec(0, size, max_part)
    return tuple(out)
