"""Integer Smith normal form and abelian invariants of presentations.

Everything here is exact big-integer arithmetic.  The pivot rule is
deterministic: smallest nonzero absolute value in the remaining block,
ties broken by lowest row then lowest column, so the search stops at the
first unit.  Relation matrices are almost empty, so rows are
``{column: value}`` dicts without zeros.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd

from ._record import FrozenRecord, Record
from .present import Presentation
from .words import format_atom, strip_sign


def relation_matrix(pres: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    index = {g: k for k, g in enumerate(pres.generators)}
    matrix = [[0] * len(index) for _ in pres.relators]
    for e, r in zip(matrix, pres.relators):
        for a in r.word.atoms:
            try:
                e[index[strip_sign(a)]] += a.sign
            except KeyError:
                msg = f"relator atom {format_atom(a)} is not a generator"
                raise ValueError(msg) from None
    return matrix


class SmithForm(Record):
    __slots__ = _fields = ("diagonal", "rank", "right", "cols")

    def __init__(self, diagonal: list[int], rank: int, right: list[list[int]], cols: int):
        self.diagonal = diagonal
        self.rank = rank
        self.right = right
        self.cols = cols


def smith_normal_form(matrix) -> SmithForm:
    """Diagonalize an integer matrix by row and column operations.

    Returns the positive diagonal entries (each dividing the next), the
    rank, and the accumulated column transform V with A_in @ V row-space
    equivalent to the diagonal form, so coordinates of a generator-exponent
    vector e in the quotient group are e @ V.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    A = [{j: x for j, x in enumerate(map(int, row)) if x} for row in matrix]
    if any(len(row) != cols for row in matrix):
        raise ValueError("ragged matrix")
    W = [[int(i == j) for i in range(cols)] for j in range(cols)]  # V by columns

    def add_row(src, dst, q):
        row = A[dst]
        for j, b in A[src].items():
            if v := row.get(j, 0) + q * b:
                row[j] = v
            else:
                row.pop(j, None)

    # Column work skips rows above min(i, j): they hold only their diagonal.
    def add_col(src, dst, q):
        for row in A[min(src, dst) :]:
            if src in row:
                if v := row.get(dst, 0) + q * row[src]:
                    row[dst] = v
                else:
                    row.pop(dst, None)
        W[dst] = [a + q * b for a, b in zip(W[dst], W[src])]

    def swap_cols(i, j):
        for row in A[min(i, j) :]:
            if i in row or j in row:
                a, b = row.pop(i, 0), row.pop(j, 0)
                row |= {k: v for k, v in ((i, b), (j, a)) if v}
        W[i], W[j] = W[j], W[i]

    def negate_col(j):  # column j is just A[j][j] here
        A[j][j] = -A[j][j]
        W[j] = [-a for a in W[j]]

    t = 0
    while True:
        best = 0
        for i in range(t, rows):
            if A[i]:
                m = min(map(abs, A[i].values()))
                if not best or m < best:
                    best, pi = m, i
                    if m == 1:
                        break
        if not best:
            break
        A[t], A[pi] = A[pi], A[t]
        pj = min(j for j, a in A[t].items() if abs(a) == best)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if t in A[i]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    if t in A[i]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            # Columns right of j are untouched until reached.
            for j in sorted(A[t]):
                if j > t:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    if j in A[t]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if A[t][t] < 0:
            negate_col(t)
        t += 1
    rank = t

    # Enforce the divisibility chain pairwise: folding column k+1 into k
    # gives the block [[a, 0], [c, c]], Euclid on its rows puts gcd(a, c)
    # at (k, k), and one column step leaves the lcm at (k+1, k+1).
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            if A[k + 1][k + 1] % A[k][k] == 0:
                continue
            changed = True
            add_col(k + 1, k, 1)
            while A[k + 1].get(k):
                q = A[k][k] // A[k + 1][k]
                add_row(k + 1, k, -q)
                A[k], A[k + 1] = A[k + 1], A[k]
            b = A[k].get(k + 1, 0)
            assert b % A[k][k] == 0
            add_col(k, k + 1, -(b // A[k][k]))
            if A[k][k] < 0:
                negate_col(k)
            if A[k + 1][k + 1] < 0:
                negate_col(k + 1)
    V = [list(r) for r in zip(*W)]
    return SmithForm([A[k][k] for k in range(rank)], rank, V, cols)


class AbelianInvariants(FrozenRecord):
    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    snf = smith_normal_form(relation_matrix(pres))
    return AbelianInvariants(
        len(pres.generators) - snf.rank,
        tuple(d for d in snf.diagonal if d > 1),
    )


def invariants_text(inv: AbelianInvariants) -> str:
    """Direct-sum notation with explicit exponents, e.g. ``Z^1 + Z_2^4``;
    the trivial group prints as ``0``."""
    parts = [f"Z^{inv.free_rank}"] if inv.free_rank else []
    parts += [f"Z_{d}^{len(list(run))}" for d, run in groupby(inv.torsion)]
    return " + ".join(parts) or "0"


def minor_gcd_invariants(matrix) -> list[int]:
    """Independent route to the invariant factors: the k-th determinantal
    divisor is the gcd of all k by k minors, and factors are successive
    quotients.  Exponential in size, fine for the small matrices the
    validation sweep uses."""
    from itertools import combinations

    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(rs, cs):
        if len(rs) == 1:
            return matrix[rs[0]][cs[0]]
        total = 0
        for p, r in enumerate(rs):
            m = det(rs[:p] + rs[p + 1 :], cs[1:])
            term = matrix[r][cs[0]] * m
            total += term if p % 2 == 0 else -term
        return total

    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det(list(rs), list(cs)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out
